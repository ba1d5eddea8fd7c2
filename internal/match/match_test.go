package match

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"verifyio/internal/recorder"
	"verifyio/internal/sim/mpi"
	"verifyio/internal/sim/posixfs"
	"verifyio/internal/trace"
)

func runTraced(t *testing.T, nranks int, prog func(r *recorder.Rank) error) *trace.Trace {
	t.Helper()
	env := recorder.NewEnv(nranks, recorder.Options{FSMode: posixfs.ModePOSIX,
		MPIOptions: []mpi.Option{mpi.WithTimeout(2 * time.Second)}})
	if err := env.Run(prog); err != nil {
		t.Fatalf("traced program failed: %v", err)
	}
	return env.Trace()
}

func mustMatch(t *testing.T, tr *trace.Trace) *Result {
	t.Helper()
	res, err := MatchOpts(tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// hasEdge reports whether the sync order of res holds from → to as a pair
// (join nodes expanded).
func hasEdge(res *Result, from, to trace.Ref) bool {
	for _, e := range Pairwise(res.Edges) {
		if e.From == from && e.To == to {
			return true
		}
	}
	return false
}

func problems(res *Result, kind ProblemKind) []Problem {
	var out []Problem
	for _, p := range res.Problems {
		if p.Kind == kind {
			out = append(out, p)
		}
	}
	return out
}

func TestBlockingSendRecvEdge(t *testing.T) {
	tr := runTraced(t, 2, func(r *recorder.Rank) error {
		c := r.Proc().CommWorld()
		if r.Rank() == 0 {
			return r.Send(c, 1, 5, []byte("x"))
		}
		_, _, err := r.Recv(c, 0, 5)
		return err
	})
	res := mustMatch(t, tr)
	if len(res.Problems) != 0 {
		t.Fatalf("problems = %v", res.Problems)
	}
	if res.P2P != 1 {
		t.Fatalf("p2p = %d", res.P2P)
	}
	if !hasEdge(res, trace.Ref{Rank: 0, Seq: 0}, trace.Ref{Rank: 1, Seq: 0}) {
		t.Errorf("missing send→recv edge; edges = %v", res.Edges)
	}
}

func TestWildcardRecvResolvedFromStatus(t *testing.T) {
	tr := runTraced(t, 3, func(r *recorder.Rank) error {
		c := r.Proc().CommWorld()
		switch r.Rank() {
		case 0:
			return r.Send(c, 2, 10, []byte("a"))
		case 1:
			return r.Send(c, 2, 20, []byte("b"))
		default:
			for i := 0; i < 2; i++ {
				if _, _, err := r.Recv(c, mpi.AnySource, mpi.AnyTag); err != nil {
					return err
				}
			}
			return nil
		}
	})
	res := mustMatch(t, tr)
	if len(res.Problems) != 0 {
		t.Fatalf("problems = %v", res.Problems)
	}
	if res.P2P != 2 {
		t.Fatalf("p2p = %d, want 2 (wildcards resolved)", res.P2P)
	}
}

func TestNonBlockingMatchedThroughWait(t *testing.T) {
	tr := runTraced(t, 2, func(r *recorder.Rank) error {
		c := r.Proc().CommWorld()
		if r.Rank() == 0 {
			req, err := r.Isend(c, 1, 3, []byte("z"))
			if err != nil {
				return err
			}
			_, err = r.Wait(req)
			return err
		}
		req, err := r.Irecv(c, 0, 3)
		if err != nil {
			return err
		}
		_, err = r.Wait(req)
		return err
	})
	res := mustMatch(t, tr)
	if len(res.Problems) != 0 {
		t.Fatalf("problems = %v", res.Problems)
	}
	// Edge runs from the Isend initiation (rank 0 seq 0) to the Wait that
	// completed the Irecv (rank 1 seq 1).
	if !hasEdge(res, trace.Ref{Rank: 0, Seq: 0}, trace.Ref{Rank: 1, Seq: 1}) {
		t.Errorf("edge should land on the receive's completion; edges = %v", res.Edges)
	}
}

func TestTestsomeCompletion(t *testing.T) {
	tr := runTraced(t, 2, func(r *recorder.Rank) error {
		c := r.Proc().CommWorld()
		if r.Rank() == 0 {
			return r.Send(c, 1, 1, []byte("p"))
		}
		req, err := r.Irecv(c, 0, 1)
		if err != nil {
			return err
		}
		for {
			idx, _, err := r.Testsome([]*mpi.Request{req})
			if err != nil {
				return err
			}
			if len(idx) == 1 {
				return nil
			}
			time.Sleep(time.Millisecond)
		}
	})
	res := mustMatch(t, tr)
	if len(res.Problems) != 0 {
		t.Fatalf("problems = %v", res.Problems)
	}
	if res.P2P != 1 {
		t.Fatalf("p2p = %d", res.P2P)
	}
	// Completion must be the successful Testsome record (flag set).
	found := false
	for _, e := range res.Edges {
		rec := tr.Record(e.To)
		if rec.Func == "MPI_Testsome" {
			found = true
		}
	}
	if !found {
		t.Errorf("edge does not land on Testsome; edges = %v", res.Edges)
	}
}

func TestBarrierEdgesUsePredecessors(t *testing.T) {
	tr := runTraced(t, 2, func(r *recorder.Rank) error {
		c := r.Proc().CommWorld()
		// One record before the barrier on each rank.
		if _, err := r.Allreduce(c, 1, mpi.OpSum); err != nil {
			return err
		}
		return r.Barrier(c)
	})
	res := mustMatch(t, tr)
	if len(res.Problems) != 0 {
		t.Fatalf("problems = %v", res.Problems)
	}
	if res.Collectives != 2 {
		t.Fatalf("collectives = %d, want 2", res.Collectives)
	}
	// Barrier (seq 1) edges: pred on rank0 (seq 0) → barrier on rank1.
	if !hasEdge(res, trace.Ref{Rank: 0, Seq: 0}, trace.Ref{Rank: 1, Seq: 1}) {
		t.Errorf("missing pred-edge; edges = %v", res.Edges)
	}
	// No cycle: barrier_0 → barrier_1 and barrier_1 → barrier_0 both
	// absent.
	if hasEdge(res, trace.Ref{Rank: 0, Seq: 1}, trace.Ref{Rank: 1, Seq: 1}) &&
		hasEdge(res, trace.Ref{Rank: 1, Seq: 1}, trace.Ref{Rank: 0, Seq: 1}) {
		t.Error("mutual barrier edges form a cycle")
	}
}

// TestBarrierStoredAsJoin pins the stored shape of a barrier-like slot: one
// join node with an edge in from every member's predecessor and an edge out
// to every member's call — linear in the communicator size — in generation
// order (member by member, each one's edge in before its edge out), and its
// Pairwise expansion, the pred(call_i) → call_j clique.
func TestBarrierStoredAsJoin(t *testing.T) {
	const nranks = 5
	tr := runTraced(t, nranks, func(r *recorder.Rank) error {
		c := r.Proc().CommWorld()
		if _, err := r.Allreduce(c, 1, mpi.OpSum); err != nil {
			return err
		}
		return r.Barrier(c)
	})
	res := mustMatch(t, tr)
	// The Allreduce is every rank's first record: no predecessors, no edges.
	join := trace.Ref{Rank: -1, Seq: 0}
	var want []Edge
	for rank := range int32(nranks) {
		want = append(want, Edge{From: trace.Ref{Rank: rank, Seq: 0}, To: join},
			Edge{From: join, To: trace.Ref{Rank: rank, Seq: 1}})
	}
	if !reflect.DeepEqual(res.Edges, want) {
		t.Fatalf("stored edges = %v\nwant %v", res.Edges, want)
	}
	pairs := Pairwise(res.Edges)
	if len(pairs) != nranks*(nranks-1) {
		t.Fatalf("Pairwise gave %d pairs, want %d", len(pairs), nranks*(nranks-1))
	}
	for _, e := range pairs {
		if e.From.Rank < 0 || e.To.Rank < 0 || e.From.Rank == e.To.Rank || e.From.Seq != 0 || e.To.Seq != 1 {
			t.Errorf("Pairwise pair %v→%v is not pred(call_i) → call_j, i ≠ j", e.From, e.To)
		}
	}
	if !slices.IsSortedFunc(pairs, func(a, b Edge) int {
		return cmp.Or(refCompare(a.From, b.From), refCompare(a.To, b.To))
	}) {
		t.Error("Pairwise output is not sorted by (From, To)")
	}
}

// TestJoinEndpointsAreTheCliquesEndpoints covers the corners where the
// pairwise order has fewer endpoints than "every pred, every call": a member
// whose call is its first record has no predecessor, a lone source's own
// call is nobody's target, and a one-rank communicator orders nothing.
func TestJoinEndpointsAreTheCliquesEndpoints(t *testing.T) {
	barrier := func(tr *trace.Trace, rank int, comm string) {
		tr.Append(trace.Record{Rank: rank, Func: "MPI_Barrier", Layer: trace.LayerMPI,
			Args: []string{comm}, Tick: 1, Ret: 2})
	}
	op := func(tr *trace.Trace, rank int) {
		tr.Append(trace.Record{Rank: rank, Func: "write", Layer: trace.LayerPOSIX, Tick: 1, Ret: 2})
	}

	// Only rank 1 has a record before the barrier.
	lone := trace.New(3)
	barrier(lone, 0, "comm-world")
	op(lone, 1)
	barrier(lone, 1, "comm-world")
	barrier(lone, 2, "comm-world")
	res := mustMatch(t, lone)
	want := []Edge{
		{From: trace.Ref{Rank: 1, Seq: 0}, To: trace.Ref{Rank: 0, Seq: 0}},
		{From: trace.Ref{Rank: 1, Seq: 0}, To: trace.Ref{Rank: 2, Seq: 0}},
	}
	if got := Pairwise(res.Edges); !reflect.DeepEqual(got, want) {
		t.Errorf("lone source: pairs = %v, want %v", got, want)
	}
	for _, e := range res.Edges {
		if e.To == (trace.Ref{Rank: 1, Seq: 1}) {
			t.Errorf("lone source: its own call %v is a target; the pairwise order never reaches it", e.To)
		}
	}

	// A communicator of one rank: a barrier on it orders nothing.
	self := trace.New(2)
	for rank := 0; rank < 2; rank++ {
		self.Append(trace.Record{Rank: rank, Func: "MPI_Comm_split", Layer: trace.LayerMPI,
			Args: []string{"comm-world", fmt.Sprint(rank), "0", fmt.Sprintf("comm-self%d", rank), fmt.Sprint(rank)},
			Tick: 1, Ret: 2})
		barrier(self, rank, fmt.Sprintf("comm-self%d", rank))
	}
	res = mustMatch(t, self)
	if len(res.Problems) != 0 || res.Collectives != 3 {
		t.Fatalf("one-rank communicators: collectives = %d, problems = %v", res.Collectives, res.Problems)
	}
	if len(res.Edges) != 0 {
		t.Errorf("one-rank communicators produced sync edges: %v", res.Edges)
	}
}

// TestRootedCollectiveBadRootReported is the regression test for a silent
// hole: when every member of a rooted collective carries the same unusable
// root (missing, non-integer, or past the communicator), the slot matched,
// emitted no edges, and raised nothing — a "verified" report on an
// incomplete happens-before order. It must be flagged however the ranks are
// batched.
func TestRootedCollectiveBadRootReported(t *testing.T) {
	cases := []struct {
		name string
		fn   string
		args []string // after the communicator
		root string   // as the problem must name it
	}{
		{"bcast root past the communicator", "MPI_Bcast", []string{"3", "8"}, "root 3"},
		{"bcast root not an integer", "MPI_Bcast", []string{"zero", "8"}, "root -1"},
		{"reduce root missing", "MPI_Reduce", nil, "root -1"},
		{"reduce root negative", "MPI_Reduce", []string{"-2", "sum"}, "root -2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := trace.New(3)
			for rank := 0; rank < 3; rank++ {
				tr.Append(trace.Record{Rank: rank, Func: "write", Layer: trace.LayerPOSIX, Tick: 1, Ret: 2})
				tr.Append(trace.Record{Rank: rank, Func: tc.fn, Layer: trace.LayerMPI,
					Args: append([]string{"comm-world"}, tc.args...), Tick: 3, Ret: 4})
			}
			for front, res := range map[string]*Result{
				"whole ranks":          mustMatch(t, tr),
				"one record at a time": streamFeed(t, tr, 1),
			} {
				probs := problems(res, MalformedRecord)
				if len(probs) != 1 {
					t.Fatalf("%s: MalformedRecord problems = %v, want exactly one", front, res.Problems)
				}
				p := probs[0]
				for _, want := range []string{tc.fn, tc.root, "comm-world", "size 3"} {
					if !strings.Contains(p.Detail, want) {
						t.Errorf("%s: detail %q does not name %q", front, p.Detail, want)
					}
				}
				wantRefs := []trace.Ref{{Rank: 0, Seq: 1}, {Rank: 1, Seq: 1}, {Rank: 2, Seq: 1}}
				if !reflect.DeepEqual(p.Refs, wantRefs) {
					t.Errorf("%s: refs = %v, want the members' calls %v", front, p.Refs, wantRefs)
				}
				if res.Collectives != 0 || len(res.Edges) != 0 {
					t.Errorf("%s: unusable slot counted (%d collectives) or ordered (%v)", front, res.Collectives, res.Edges)
				}
			}
		})
	}
}

func TestRootedCollectiveEdges(t *testing.T) {
	tr := runTraced(t, 3, func(r *recorder.Rank) error {
		c := r.Proc().CommWorld()
		if _, err := r.Bcast(c, 1, []byte("d")); err != nil {
			return err
		}
		_, err := r.Reduce(c, 2, int64(r.Rank()), mpi.OpSum)
		return err
	})
	res := mustMatch(t, tr)
	if len(res.Problems) != 0 {
		t.Fatalf("problems = %v", res.Problems)
	}
	// Bcast: root (rank 1, seq 0) → others' bcast records.
	if !hasEdge(res, trace.Ref{Rank: 1, Seq: 0}, trace.Ref{Rank: 0, Seq: 0}) ||
		!hasEdge(res, trace.Ref{Rank: 1, Seq: 0}, trace.Ref{Rank: 2, Seq: 0}) {
		t.Errorf("bcast edges wrong: %v", res.Edges)
	}
	// Bcast must NOT order non-root pairs.
	if hasEdge(res, trace.Ref{Rank: 0, Seq: 0}, trace.Ref{Rank: 2, Seq: 0}) {
		t.Error("bcast created a non-root→non-root edge")
	}
	// Reduce: others (seq 1) → root (rank 2, seq 1).
	if !hasEdge(res, trace.Ref{Rank: 0, Seq: 1}, trace.Ref{Rank: 2, Seq: 1}) {
		t.Errorf("reduce edges wrong: %v", res.Edges)
	}
}

func TestUserCommunicatorCollectives(t *testing.T) {
	tr := runTraced(t, 4, func(r *recorder.Rank) error {
		c := r.Proc().CommWorld()
		sub, err := r.CommSplit(c, r.Rank()%2, r.Rank())
		if err != nil {
			return err
		}
		return r.Barrier(sub)
	})
	res := mustMatch(t, tr)
	if len(res.Problems) != 0 {
		t.Fatalf("problems = %v", res.Problems)
	}
	// 1 split on world + 2 sub-barriers (one per half).
	if res.Collectives != 3 {
		t.Fatalf("collectives = %d, want 3", res.Collectives)
	}
	// Barrier on the even half must not order the odd half: rank0's
	// pre-barrier record to rank1's barrier.
	if hasEdge(res, trace.Ref{Rank: 0, Seq: 0}, trace.Ref{Rank: 1, Seq: 1}) {
		t.Error("sub-communicator barrier leaked across halves")
	}
}

func TestMismatchedCollectiveDetected(t *testing.T) {
	tr := runTraced(t, 2, func(r *recorder.Rank) error {
		c := r.Proc().CommWorld()
		if r.Rank() == 0 {
			return r.Barrier(c)
		}
		_, err := r.Allreduce(c, 1, mpi.OpSum)
		return err
	})
	res := mustMatch(t, tr)
	ps := problems(res, MismatchedCollective)
	if len(ps) != 1 {
		t.Fatalf("mismatched problems = %v", res.Problems)
	}
	if !strings.Contains(ps[0].Detail, "MPI_Barrier") || !strings.Contains(ps[0].Detail, "MPI_Allreduce") {
		t.Errorf("detail = %s", ps[0].Detail)
	}
}

func TestMissingCollectiveDetected(t *testing.T) {
	// Build the trace by hand: rank 1 simply never reaches the barrier
	// (at runtime this would hang; the matcher sees the truncated trace).
	tr := trace.New(2)
	tr.Append(trace.Record{Rank: 0, Func: "MPI_Barrier", Layer: trace.LayerMPI,
		Args: []string{"comm-world"}, Tick: 1, Ret: 2})
	res := mustMatch(t, tr)
	ps := problems(res, MissingCollective)
	if len(ps) != 1 || !strings.Contains(ps[0].Detail, "rank 1") {
		t.Fatalf("problems = %v", res.Problems)
	}
}

func TestUnmatchedSendAndRecv(t *testing.T) {
	tr := trace.New(2)
	tr.Append(trace.Record{Rank: 0, Func: "MPI_Send", Layer: trace.LayerMPI,
		Args: []string{"comm-world", "1", "7", "4"}, Tick: 1, Ret: 2})
	tr.Append(trace.Record{Rank: 1, Func: "MPI_Recv", Layer: trace.LayerMPI,
		Args: []string{"comm-world", "0", "9", "4", "0", "9"}, Tick: 1, Ret: 2})
	res := mustMatch(t, tr)
	if len(problems(res, UnmatchedSend)) != 1 {
		t.Errorf("unmatched sends: %v", res.Problems)
	}
	if len(problems(res, UnmatchedRecv)) != 1 {
		t.Errorf("unmatched recvs: %v", res.Problems)
	}
}

func TestDanglingRequestDetected(t *testing.T) {
	tr := trace.New(1)
	tr.Append(trace.Record{Rank: 0, Func: "MPI_Irecv", Layer: trace.LayerMPI,
		Args: []string{"comm-world", "0", "1", "req-0.0"}, Tick: 1, Ret: 2})
	res := mustMatch(t, tr)
	if len(problems(res, DanglingRequest)) != 1 {
		t.Errorf("problems = %v", res.Problems)
	}
}

func TestMalformedRecordsReported(t *testing.T) {
	tr := trace.New(1)
	tr.Append(trace.Record{Rank: 0, Func: "MPI_Send", Layer: trace.LayerMPI,
		Args: []string{"comm-world", "notanint", "1", "4"}, Tick: 1, Ret: 2})
	res := mustMatch(t, tr)
	if len(problems(res, MalformedRecord)) != 1 {
		t.Errorf("problems = %v", res.Problems)
	}
}

func TestFileCollectivesMatchedButNotSynchronizing(t *testing.T) {
	tr := runTraced(t, 2, func(r *recorder.Rank) error {
		c := r.Proc().CommWorld()
		return r.Record(trace.LayerMPIIO, "MPI_File_open", func() []string {
			return []string{c.GID(), "f", "rw", "3"}
		}, func() error { return nil })
	})
	res := mustMatch(t, tr)
	if len(res.Problems) != 0 {
		t.Fatalf("problems = %v", res.Problems)
	}
	if res.Collectives != 1 {
		t.Fatalf("collectives = %d", res.Collectives)
	}
	if len(res.Edges) != 0 {
		t.Errorf("MPI-IO open produced sync edges: %v", res.Edges)
	}
}

func TestNcmpiWaitBugShapeFlagged(t *testing.T) {
	// Hand-built §V-D shape: rank 0 records MPI_File_write_at_all, rank 1
	// records MPI_File_write_all, both after an MPI_File_open on world.
	tr := trace.New(2)
	for rank := 0; rank < 2; rank++ {
		tr.Append(trace.Record{Rank: rank, Func: "MPI_File_open", Layer: trace.LayerMPIIO,
			Args: []string{"comm-world", "f", "rw", "3"}, Tick: 1, Ret: 2})
	}
	tr.Append(trace.Record{Rank: 0, Func: "MPI_File_write_at_all", Layer: trace.LayerMPIIO,
		Args: []string{"3", "0", "4"}, Tick: 3, Ret: 4})
	tr.Append(trace.Record{Rank: 1, Func: "MPI_File_write_all", Layer: trace.LayerMPIIO,
		Args: []string{"3", "4"}, Tick: 3, Ret: 4})
	res := mustMatch(t, tr)
	ps := problems(res, MismatchedCollective)
	if len(ps) != 1 {
		t.Fatalf("problems = %v", res.Problems)
	}
	if !strings.Contains(ps[0].Detail, "MPI_File_write_at_all") || !strings.Contains(ps[0].Detail, "MPI_File_write_all") {
		t.Errorf("detail = %s", ps[0].Detail)
	}
}

func TestNonBlockingCollectiveCompletionTarget(t *testing.T) {
	tr := runTraced(t, 2, func(r *recorder.Rank) error {
		c := r.Proc().CommWorld()
		// A data record before the Ibarrier so pred edges exist.
		if _, err := r.Allreduce(c, 0, mpi.OpSum); err != nil {
			return err
		}
		req, err := r.Ibarrier(c)
		if err != nil {
			return err
		}
		_, err = r.Wait(req)
		return err
	})
	res := mustMatch(t, tr)
	if len(res.Problems) != 0 {
		t.Fatalf("problems = %v", res.Problems)
	}
	// The Ibarrier edge must land on the MPI_Wait record (seq 2), sourced
	// from the other rank's pred (seq 0).
	if !hasEdge(res, trace.Ref{Rank: 0, Seq: 0}, trace.Ref{Rank: 1, Seq: 2}) {
		t.Errorf("ibarrier edge should target the Wait; edges = %v", res.Edges)
	}
}

func TestDeterministicOutput(t *testing.T) {
	prog := func(r *recorder.Rank) error {
		c := r.Proc().CommWorld()
		if r.Rank() == 0 {
			if err := r.Send(c, 1, 1, []byte("a")); err != nil {
				return err
			}
		} else {
			if _, _, err := r.Recv(c, 0, 1); err != nil {
				return err
			}
		}
		return r.Barrier(c)
	}
	tr := runTraced(t, 2, prog)
	a := mustMatch(t, tr)
	b := mustMatch(t, tr)
	if fmt.Sprint(a.Edges) != fmt.Sprint(b.Edges) {
		t.Error("matcher output is not deterministic")
	}
}

func TestSendrecvMatchesBothHalves(t *testing.T) {
	// A ring shift with MPI_Sendrecv: every rank sends right, receives
	// from the left. Each record is both a send and a receive event.
	tr := runTraced(t, 3, func(r *recorder.Rank) error {
		c := r.Proc().CommWorld()
		right := (r.Rank() + 1) % 3
		left := (r.Rank() + 2) % 3
		data, st, err := r.Sendrecv(c, right, 9, []byte{byte(r.Rank())}, left, 9)
		if err != nil {
			return err
		}
		if st.Source != left || data[0] != byte(left) {
			return fmt.Errorf("rank %d got %v from %d", r.Rank(), data, st.Source)
		}
		return nil
	})
	res := mustMatch(t, tr)
	if len(res.Problems) != 0 {
		t.Fatalf("problems = %v", res.Problems)
	}
	if res.P2P != 3 {
		t.Fatalf("p2p = %d, want 3 ring edges", res.P2P)
	}
	// Each edge runs from a Sendrecv record to the right neighbour's
	// Sendrecv record.
	for _, e := range res.Edges {
		if tr.Record(e.From).Func != "MPI_Sendrecv" || tr.Record(e.To).Func != "MPI_Sendrecv" {
			t.Errorf("edge endpoints %s -> %s", tr.Record(e.From).Func, tr.Record(e.To).Func)
		}
		if (e.From.Rank+1)%3 != e.To.Rank {
			t.Errorf("edge %v -> %v is not a ring-right edge", e.From, e.To)
		}
	}
}

// TestMalformedCommCreationReported pins the ingestion-hardening fix: a
// communicator-creation record whose member list cannot be parsed must
// surface as a MalformedRecord problem naming that record, not vanish
// silently (leaving later collectives on the comm to fail cryptically).
func TestMalformedCommCreationReported(t *testing.T) {
	cases := []struct {
		name string
		fn   string
		args []string
		want string
	}{
		{"dup bad member", "MPI_Comm_dup", []string{"comm-world", "comm1", "0,x"}, "not a rank"},
		{"dup negative member", "MPI_Comm_dup", []string{"comm-world", "comm1", "0,-2"}, "not a rank"},
		{"dup missing members", "MPI_Comm_dup", []string{"comm-world", "comm1"}, "missing group id or member list"},
		{"split bad member", "MPI_Comm_split", []string{"comm-world", "0", "0", "comm1", "1,zzz"}, "not a rank"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := trace.New(1)
			tr.Append(trace.Record{
				Rank: 0, Func: tc.fn, Layer: trace.LayerMPI,
				Args: tc.args, Tick: 2, Ret: 3,
			})
			if err := tr.Validate(); err != nil {
				t.Fatal(err)
			}
			res := mustMatch(t, tr)
			probs := problems(res, MalformedRecord)
			if len(probs) != 1 {
				t.Fatalf("MalformedRecord problems = %v, want exactly one", probs)
			}
			p := probs[0]
			if !strings.Contains(p.Detail, tc.want) {
				t.Errorf("problem detail %q does not explain the damage (%q)", p.Detail, tc.want)
			}
			if len(p.Refs) != 1 || p.Refs[0] != (trace.Ref{Rank: 0, Seq: 0}) {
				t.Errorf("problem refs = %v, want the creation record", p.Refs)
			}
		})
	}
}

// TestWellFormedCommCreationNotReported guards against over-reporting: the
// recorder's normal [parent, new, members] layout must register cleanly.
func TestWellFormedCommCreationNotReported(t *testing.T) {
	tr := runTraced(t, 2, func(r *recorder.Rank) error {
		_, err := r.CommDup(r.Proc().CommWorld())
		return err
	})
	res := mustMatch(t, tr)
	if probs := problems(res, MalformedRecord); len(probs) != 0 {
		t.Fatalf("unexpected MalformedRecord problems: %v", probs)
	}
}

// TestOutOfRangeValuesMalformed: a rank, tag, root or index beyond int32 is
// a MalformedRecord naming its record on every architecture. Truncated to a
// 32-bit int instead, a send to 1<<32+1 would match rank 1 on 386 and name
// no rank on amd64.
func TestOutOfRangeValuesMalformed(t *testing.T) {
	const huge = "4294967297" // 1<<32 + 1
	type rec struct {
		rank int
		fn   string
		args []string
	}
	cases := map[string][]rec{
		"send peer": {{0, "MPI_Send", []string{"comm-world", huge, "1", "4"}}},
		"send tag": {{0, "MPI_Send", []string{"comm-world", "1", huge, "4"}},
			{1, "MPI_Recv", []string{"comm-world", "0", "1", "4", "0", "1"}}},
		"isend peer": {{0, "MPI_Isend", []string{"comm-world", huge, "1", "4", "req-0.0"}}},
		"irecv tag":  {{0, "MPI_Irecv", []string{"comm-world", "1", huge, "req-0.0"}}},
		"recv status source": {{1, "MPI_Send", []string{"comm-world", "0", "1", "4"}},
			{0, "MPI_Recv", []string{"comm-world", "-1", "1", "4", huge, "1"}}},
		"wait status tag": {{0, "MPI_Irecv", []string{"comm-world", "1", "1", "req-0.0"}},
			{1, "MPI_Send", []string{"comm-world", "0", "1", "4"}},
			{0, "MPI_Wait", []string{"req-0.0", "1", huge}}},
		"waitany index": {{0, "MPI_Isend", []string{"comm-world", "1", "1", "4", "req-0.0"}},
			{1, "MPI_Recv", []string{"comm-world", "0", "1", "4", "0", "1"}},
			{0, "MPI_Waitany", []string{"1", "req-0.0", "4294967296", "0", "0"}}},
		"waitsome index": {{0, "MPI_Isend", []string{"comm-world", "1", "1", "4", "req-0.0"}},
			{1, "MPI_Recv", []string{"comm-world", "0", "1", "4", "0", "1"}},
			{0, "MPI_Waitsome", []string{"1", "req-0.0", "1", huge, "0", "0"}}},
		"bcast root": {{0, "MPI_Bcast", []string{"comm-world", huge, "4"}},
			{1, "MPI_Bcast", []string{"comm-world", huge, "4"}}},
	}
	for name, recs := range cases {
		tr := trace.New(2)
		bad := trace.Ref{Rank: -1} // the first record holding an out-of-range value
		for _, r := range recs {
			tick := int64(2*len(tr.Ranks[r.rank]) + 1)
			ref := tr.Append(trace.Record{Rank: r.rank, Func: r.fn, Layer: trace.LayerMPI, Args: r.args, Tick: tick, Ret: tick + 1})
			if bad.Rank < 0 && slices.ContainsFunc(r.args, func(a string) bool { return strings.HasPrefix(a, "42949672") }) {
				bad = ref
			}
		}
		probs := problems(mustMatch(t, tr), MalformedRecord)
		if len(probs) != 1 || !slices.Contains(probs[0].Refs, bad) {
			t.Errorf("%s: MalformedRecord problems %v, want one naming record %v", name, probs, bad)
		}
	}
}

// TestUndefinedCompletionIndex: an index or outcount of -1 (MPI_UNDEFINED)
// is what MPI_Waitany and MPI_Waitsome/Testsome return when no listed request
// is active, so it completes nothing and is no problem, down to the
// [0, -1, 0, 0] Waitany over no requests. While a listed request is pending,
// -1 names none of them and stays a MalformedRecord.
func TestUndefinedCompletionIndex(t *testing.T) {
	irecv := trace.Record{Func: "MPI_Irecv", Args: []string{"comm-world", "-1", "-1", "req-0.0"}}
	cases := []struct {
		name      string
		recs      []trace.Record
		malformed bool
	}{
		{"waitany of none", []trace.Record{{Func: "MPI_Waitany", Args: []string{"0", "-1", "0", "0"}}}, false},
		{"waitany of inactive", []trace.Record{{Func: "MPI_Waitany", Args: []string{"1", "req-9.0", "-1", "0", "0"}}}, false},
		{"waitsome of none", []trace.Record{{Func: "MPI_Waitsome", Args: []string{"0", "-1"}}}, false},
		{"testsome of inactive", []trace.Record{{Func: "MPI_Testsome", Args: []string{"2", "req-8.0", "req-9.0", "-1"}}}, false},
		{"waitany of pending", []trace.Record{irecv, {Func: "MPI_Waitany", Args: []string{"2", "req-9.0", "req-0.0", "-1", "0", "0"}}}, true},
		{"waitsome of pending", []trace.Record{irecv, {Func: "MPI_Waitsome", Args: []string{"1", "req-0.0", "-1"}}}, true},
	}
	for _, tc := range cases {
		tr := trace.New(1)
		var last trace.Ref
		for _, r := range tc.recs {
			tick := int64(2*len(tr.Ranks[0]) + 1)
			r.Layer, r.Tick, r.Ret = trace.LayerMPI, tick, tick+1
			last = tr.Append(r)
		}
		res := mustMatch(t, tr)
		probs := problems(res, MalformedRecord)
		switch {
		case !tc.malformed && len(res.Problems) != 0:
			t.Errorf("%s: problems %v, want none", tc.name, res.Problems)
		case tc.malformed && (len(probs) != 1 || !slices.Equal(probs[0].Refs, []trace.Ref{last})):
			t.Errorf("%s: MalformedRecord problems %v, want one naming the completion %v", tc.name, probs, last)
		}
	}
}

// TestNegativePeersAndTagsMalformed: a send's tag, a receive's requested
// source or tag below -1 (MPI_ANY_SOURCE, MPI_ANY_TAG) and a completed
// receive's status source or tag below 0 are MalformedRecords naming their
// record; a receive requesting any source and any tag is not.
func TestNegativePeersAndTagsMalformed(t *testing.T) {
	type rec struct {
		rank int
		fn   string
		args []string
		bad  bool
	}
	send := rec{1, "MPI_Send", []string{"comm-world", "0", "1", "4"}, false}
	cases := map[string][]rec{
		"send tag":           {{0, "MPI_Send", []string{"comm-world", "1", "-7", "4"}, true}},
		"send peer":          {{0, "MPI_Send", []string{"comm-world", "-1", "1", "4"}, true}},
		"isend tag":          {{0, "MPI_Isend", []string{"comm-world", "1", "-1", "4", "req-0.0"}, true}},
		"irecv source":       {{0, "MPI_Irecv", []string{"comm-world", "-7", "1", "req-0.0"}, true}},
		"irecv tag":          {{0, "MPI_Irecv", []string{"comm-world", "1", "-2147483648", "req-0.0"}, true}},
		"recv source":        {send, {0, "MPI_Recv", []string{"comm-world", "-2", "1", "4", "1", "1"}, true}},
		"recv status source": {send, {0, "MPI_Recv", []string{"comm-world", "-1", "-1", "4", "-1", "1"}, true}},
		"wait status tag": {send, {0, "MPI_Irecv", []string{"comm-world", "-1", "-1", "req-0.0"}, false},
			{0, "MPI_Wait", []string{"req-0.0", "1", "-1"}, true}},
		"wildcards": {send, {0, "MPI_Irecv", []string{"comm-world", "-1", "-1", "req-0.0"}, false},
			{0, "MPI_Wait", []string{"req-0.0", "1", "1"}, false}},
	}
	for name, recs := range cases {
		tr := trace.New(2)
		var bad []trace.Ref
		for _, r := range recs {
			tick := int64(2*len(tr.Ranks[r.rank]) + 1)
			ref := tr.Append(trace.Record{Rank: r.rank, Func: r.fn, Layer: trace.LayerMPI, Args: r.args, Tick: tick, Ret: tick + 1})
			if r.bad {
				bad = append(bad, ref)
			}
		}
		var got []trace.Ref
		for _, p := range problems(mustMatch(t, tr), MalformedRecord) {
			got = append(got, p.Refs...)
		}
		if !slices.Equal(got, bad) {
			t.Errorf("%s: MalformedRecord problems name %v, want %v", name, got, bad)
		}
	}
}

// TestCommReRegistration: a creation record naming a communicator its rank
// already registered is still checked, so a malformed member list is a
// MalformedRecord; a well-formed one keeps the first membership.
func TestCommReRegistration(t *testing.T) {
	tr := trace.New(1)
	for _, members := range []string{"0", "0,x"} {
		tick := int64(2*len(tr.Ranks[0]) + 1)
		tr.Append(trace.Record{Func: "MPI_Comm_dup", Layer: trace.LayerMPI, Args: []string{"comm-world", "comm-d", members}, Tick: tick, Ret: tick + 1})
	}
	probs := problems(mustMatch(t, tr), MalformedRecord)
	if len(probs) != 1 || !slices.Equal(probs[0].Refs, []trace.Ref{{Rank: 0, Seq: 1}}) || !strings.Contains(probs[0].Detail, "not a rank") {
		t.Errorf("MalformedRecord problems %v, want one naming the second MPI_Comm_dup's member list", probs)
	}

	// Both ranks register comm-d as {0}, then again as {0, 1}; only rank 0
	// calls a barrier on it, which matches under the first membership.
	tr = trace.New(2)
	for rank := range 2 {
		for _, members := range []string{"0", "0,1"} {
			tick := int64(2*len(tr.Ranks[rank]) + 1)
			tr.Append(trace.Record{Rank: rank, Func: "MPI_Comm_dup", Layer: trace.LayerMPI, Args: []string{"comm-world", "comm-d", members}, Tick: tick, Ret: tick + 1})
		}
	}
	tr.Append(trace.Record{Rank: 0, Func: "MPI_Barrier", Layer: trace.LayerMPI, Args: []string{"comm-d"}, Tick: 5, Ret: 6})
	if res := mustMatch(t, tr); len(res.Problems) != 0 || res.Collectives != 3 {
		t.Errorf("problems %v, %d collective slots; want none and 3", res.Problems, res.Collectives)
	}
}

// matchSource matches a source as the analysis reads one: each rank's
// steps, in order, fed to one Matcher.
func matchSource(t testing.TB, src trace.Source) *Result {
	t.Helper()
	m := NewMatcher(src.NumRanks())
	for rank := range src.NumRanks() {
		if err := src.ReadRank(rank, func(steps []trace.Step) { m.Feed(rank, steps) }); err != nil {
			t.Fatal(err)
		}
	}
	return m.Finish(Options{})
}

// matchDir writes tr as a trace directory and matches the directory, read
// as the analysis reads it: the steps each rank reader lends.
func matchDir(t testing.TB, tr *trace.Trace) *Result {
	t.Helper()
	dir := t.TempDir()
	if err := trace.WriteDir(dir, tr, trace.DefaultEncodeOptions()); err != nil {
		t.Fatal(err)
	}
	d, err := trace.OpenDir(dir, trace.StreamOptions{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	return matchSource(t, d)
}

// TestTestanyCompletesItsRequest: MPI_Testany (nreq request*nreq index flag
// status) retires the request at its index when its flag is 1, so an
// MPI_Irecv it completes matches its message instead of dangling; with flag
// 0 it completes nothing, and its index -1 (MPI_UNDEFINED) over no pending
// request is no problem, as Waitany's is. The trace in memory and its
// written directory read alike.
func TestTestanyCompletesItsRequest(t *testing.T) {
	irecv := []string{"comm-world", "1", "1", "req-0.0"}
	send := []string{"comm-world", "0", "1", "4"}
	type rec struct {
		rank int
		fn   string
		args []string
	}
	cases := []struct {
		name      string
		recs      []rec
		malformed bool
	}{
		{"completes", []rec{{0, "MPI_Irecv", irecv}, {0, "MPI_Testany", []string{"1", "req-0.0", "0", "1", "1", "1"}}, {1, "MPI_Send", send}}, false},
		{"completes nothing", []rec{{0, "MPI_Irecv", irecv}, {0, "MPI_Testany", []string{"1", "req-0.0", "-1", "0", "0", "0"}},
			{0, "MPI_Wait", []string{"req-0.0", "1", "1"}}, {1, "MPI_Send", send}}, false},
		{"none active", []rec{{0, "MPI_Testany", []string{"0", "-1", "1", "0", "0"}}}, false},
		{"undefined while pending", []rec{{0, "MPI_Irecv", irecv}, {0, "MPI_Testany", []string{"1", "req-0.0", "-1", "1", "0", "0"}},
			{0, "MPI_Wait", []string{"req-0.0", "1", "1"}}, {1, "MPI_Send", send}}, true},
	}
	for _, tc := range cases {
		tr := trace.New(2)
		for _, r := range tc.recs {
			tick := int64(2*len(tr.Ranks[r.rank]) + 1)
			tr.Append(trace.Record{Rank: r.rank, Func: r.fn, Layer: trace.LayerMPI, Args: r.args, Tick: tick, Ret: tick + 1})
		}
		testany := trace.Ref{Rank: 0, Seq: 1}
		for from, res := range map[string]*Result{"trace": mustMatch(t, tr), "directory": matchDir(t, tr)} {
			probs := problems(res, MalformedRecord)
			switch {
			case tc.malformed:
				if len(probs) != 1 || !slices.Equal(probs[0].Refs, []trace.Ref{testany}) {
					t.Errorf("%s (%s): MalformedRecord problems %v, want one naming the MPI_Testany", tc.name, from, probs)
				}
			case len(res.Problems) != 0:
				t.Errorf("%s (%s): problems %v, want none", tc.name, from, res.Problems)
			}
			if tc.name == "completes" && (res.P2P != 1 || !hasEdge(res, trace.Ref{Rank: 1, Seq: 0}, testany)) {
				t.Errorf("%s (%s): %d messages matched, want the send to reach the MPI_Testany", tc.name, from, res.P2P)
			}
		}
	}
}
