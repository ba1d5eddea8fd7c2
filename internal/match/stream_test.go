package match

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"verifyio/internal/recorder"
	"verifyio/internal/trace"
)

// feedMatcher runs tr through a Matcher: the ranks in the given order, each
// in batches of the given size, on this goroutine — or, with concurrent set,
// every rank from a goroutine of its own.
func feedMatcher(t *testing.T, tr *trace.Trace, order []int, batch int, concurrent bool) *Result {
	t.Helper()
	m := NewMatcher(tr.NumRanks())
	feed := func(rank int) {
		recs := tr.Ranks[rank]
		for lo := 0; lo < len(recs); lo += batch {
			m.Feed(rank, recs[lo:min(lo+batch, len(recs))])
		}
	}
	var wg sync.WaitGroup
	for _, rank := range order {
		if !concurrent {
			feed(rank)
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			feed(rank)
		}()
	}
	wg.Wait()
	return m.Finish(Options{})
}

// streamFeed feeds the ranks in ascending order.
func streamFeed(t *testing.T, tr *trace.Trace, batch int) *Result {
	t.Helper()
	order := make([]int, tr.NumRanks())
	for i := range order {
		order[i] = i
	}
	return feedMatcher(t, tr, order, batch, false)
}

// streamTestTraces covers every scanner state machine that must carry
// across batch boundaries: pending requests, communicator registrations,
// the open-file table for MPI-IO communicator recovery, and problem
// reporting.
func streamTestTraces(t *testing.T) map[string]*trace.Trace {
	t.Helper()
	traces := map[string]*trace.Trace{}

	traces["comm-split-file-io"] = runTraced(t, 4, func(r *recorder.Rank) error {
		c := r.Proc().CommWorld()
		sub, err := r.CommSplit(c, r.Rank()%2, r.Rank())
		if err != nil {
			return err
		}
		if err := r.Barrier(sub); err != nil {
			return err
		}
		if err := r.Record(trace.LayerMPIIO, "MPI_File_open", func() []string {
			return []string{sub.GID(), "f", "rw", "3"}
		}, func() error { return nil }); err != nil {
			return err
		}
		return r.Record(trace.LayerMPIIO, "MPI_File_close", func() []string {
			return []string{"3"}
		}, func() error { return nil })
	})

	traces["p2p-nonblocking"] = runTraced(t, 2, func(r *recorder.Rank) error {
		c := r.Proc().CommWorld()
		if r.Rank() == 0 {
			return r.Send(c, 1, 7, []byte("data"))
		}
		req, err := r.Irecv(c, 0, 7)
		if err != nil {
			return err
		}
		_, err = r.Wait(req)
		return err
	})

	// Hand-built: dangling request + malformed record + unmatched p2p +
	// file collective with no preceding open on one rank.
	mixed := trace.New(2)
	mixed.Append(trace.Record{Rank: 0, Func: "MPI_Irecv", Layer: trace.LayerMPI,
		Args: []string{"comm-world", "1", "3", "req-0.0"}, Tick: 1, Ret: 2})
	mixed.Append(trace.Record{Rank: 0, Func: "MPI_Send", Layer: trace.LayerMPI,
		Args: []string{"comm-world", "notanint", "1", "4"}, Tick: 3, Ret: 4})
	mixed.Append(trace.Record{Rank: 0, Func: "MPI_File_write_all", Layer: trace.LayerMPIIO,
		Args: []string{"3", "8"}, Tick: 5, Ret: 6})
	mixed.Append(trace.Record{Rank: 1, Func: "MPI_File_open", Layer: trace.LayerMPIIO,
		Args: []string{"comm-world", "f", "rw", "3"}, Tick: 1, Ret: 2})
	mixed.Append(trace.Record{Rank: 1, Func: "MPI_File_write_all", Layer: trace.LayerMPIIO,
		Args: []string{"3", "8"}, Tick: 3, Ret: 4})
	traces["mixed-problems"] = mixed

	return traces
}

// TestStreamMatcherMatchesMatch is the Matcher's feeding contract: any batch
// split (down to one record at a time), the ranks ascending, descending,
// rotated, or each from its own goroutine (under -race a Feed that shared
// state between ranks fails here) give the Result of handing MatchOpts the whole
// trace — whose shape is pinned per fixture, so the contract is not only
// self-agreement.
func TestStreamMatcherMatchesMatch(t *testing.T) {
	shape := map[string][3]int{ // edges, problems, collectives + p2p
		"comm-split-file-io": {8, 0, 7},
		"p2p-nonblocking":    {1, 0, 1},
		"mixed-problems":     {0, 4, 0},
	}
	for name, tr := range streamTestTraces(t) {
		t.Run(name, func(t *testing.T) {
			want := mustMatch(t, tr)
			if got := [3]int{len(want.Edges), len(want.Problems), want.Collectives + want.P2P}; got != shape[name] {
				t.Fatalf("MatchOpts: (edges, problems, matches) = %v, want %v", got, shape[name])
			}
			n, longest := tr.NumRanks(), 0
			ascending := make([]int, n)
			for rank, recs := range tr.Ranks {
				ascending[rank] = rank
				longest = max(longest, len(recs))
			}
			descending := slices.Clone(ascending)
			slices.Reverse(descending)
			rotated := append(slices.Clone(ascending[n/2:]), ascending[:n/2]...)
			for _, batch := range []int{1, 3, longest + 1} {
				for how, got := range map[string]*Result{
					"ascending":  feedMatcher(t, tr, ascending, batch, false),
					"descending": feedMatcher(t, tr, descending, batch, false),
					"rotated":    feedMatcher(t, tr, rotated, batch, false),
					"concurrent": feedMatcher(t, tr, ascending, batch, true),
				} {
					if !reflect.DeepEqual(got, want) {
						t.Errorf("batch=%d, ranks fed %s: result differs from MatchOpts\ngot:  %+v\nwant: %+v",
							batch, how, got, want)
					}
				}
			}
		})
	}
}

// TestStreamMatcherSkippedEmptyRank pins that a rank never fed (no records)
// matches the scan of an empty rank — the missing-collective report must
// still name it.
func TestStreamMatcherSkippedEmptyRank(t *testing.T) {
	tr := trace.New(3)
	for _, rank := range []int{0, 2} {
		tr.Append(trace.Record{Rank: rank, Func: "MPI_Barrier", Layer: trace.LayerMPI,
			Args: []string{"comm-world"}, Tick: 1, Ret: 2})
	}
	want := mustMatch(t, tr)
	got := feedMatcher(t, tr, []int{2, 0}, 1, false)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("result differs from MatchOpts\ngot:  %+v\nwant: %+v", got, want)
	}
	if len(problems(got, MissingCollective)) == 0 {
		t.Fatal("empty rank did not surface a missing collective")
	}
}

// TestCommunicatorResolutionRankSymmetric pins the rule in the package
// comment: a rank resolves a communicator from comm-world and its own earlier
// creation records only, whichever rank asks.
func TestCommunicatorResolutionRankSymmetric(t *testing.T) {
	rec := func(rank int, tick int64, fn string, args ...string) trace.Record {
		return trace.Record{Rank: rank, Func: fn, Layer: trace.LayerMPI, Args: args, Tick: tick, Ret: tick + 1}
	}
	dup := func(rank int, tick int64, gid, members string) trace.Record {
		return rec(rank, tick, "MPI_Comm_dup", "comm-world", gid, members)
	}

	// Rank a sends on a communicator only rank b created.
	for _, ab := range [][2]int{{1, 0}, {0, 1}} {
		a, b := ab[0], ab[1]
		tr := trace.New(2)
		tr.Append(dup(b, 1, "comm-x", "0,1"))
		tr.Append(rec(a, 1, "MPI_Send", "comm-x", fmt.Sprint(b), "7", "4"))
		res := mustMatch(t, tr)
		unknown := 0
		for _, p := range problems(res, MalformedRecord) {
			if strings.Contains(p.Detail, "unknown communicator comm-x") && int(p.Refs[0].Rank) == a {
				unknown++
			}
		}
		if unknown != 1 {
			t.Errorf("rank %d sends on rank %d's communicator: problems %+v, want one unknown-communicator MalformedRecord on rank %d",
				a, b, res.Problems, a)
		}
		if res.P2P != 0 || len(problems(res, UnmatchedSend)) != 0 {
			t.Errorf("(a, b) = (%d, %d): the unresolvable send was bucketed: %+v", a, b, res)
		}
	}

	// A rank that creates, then uses, resolves — in both rank orders.
	for _, sender := range []int{0, 1} {
		tr := trace.New(2)
		for rank := 0; rank < 2; rank++ {
			tr.Append(dup(rank, 1, "comm-x", "0,1"))
		}
		tr.Append(rec(sender, 3, "MPI_Send", "comm-x", fmt.Sprint(1-sender), "7", "4"))
		tr.Append(rec(1-sender, 3, "MPI_Recv", "comm-x", fmt.Sprint(sender), "7", "4", fmt.Sprint(sender), "7"))
		res := mustMatch(t, tr)
		if len(res.Problems) != 0 || res.P2P != 1 {
			t.Errorf("sender %d: P2P = %d, problems %+v; want the message matched", sender, res.P2P, res.Problems)
		}
	}

	// Two ranks register one gid with different member lists: collectives
	// match against the lower rank's list, fed in either order.
	tr := trace.New(3)
	tr.Append(dup(0, 1, "comm-y", "0,1"))
	tr.Append(dup(1, 1, "comm-y", "0,1,2"))
	tr.Append(dup(2, 1, "comm-world-only", "2")) // keeps the world dup slot complete
	for rank := 0; rank < 2; rank++ {
		tr.Append(rec(rank, 3, "MPI_Barrier", "comm-y"))
	}
	want := mustMatch(t, tr)
	if got := problems(want, MissingCollective); len(got) != 0 {
		t.Errorf("barrier on comm-y = {0,1} reported missing members: %+v", got)
	}
	if !hasEdge(want, trace.Ref{Rank: 0, Seq: 0}, trace.Ref{Rank: 1, Seq: 1}) {
		t.Errorf("barrier on comm-y ordered nothing: %+v", want.Edges)
	}
	if got := feedMatcher(t, tr, []int{2, 1, 0}, 1, false); !reflect.DeepEqual(got, want) {
		t.Errorf("ranks fed in reverse: %+v, want %+v", got, want)
	}
}
