package hbgraph_test

import (
	"cmp"
	"slices"
	"strconv"
	"testing"

	"verifyio/internal/corpus"
	"verifyio/internal/hbgraph"
	"verifyio/internal/match"
	"verifyio/internal/trace"
)

// syncHeavyTrace is the benchmark's syncheavy shape: every rank writes once
// per epoch, fsyncs, on every second epoch passes a message around the ring
// (even ranks send first), and closes the epoch with a world barrier.
func syncHeavyTrace(nranks, epochs int) *trace.Trace {
	tr := trace.New(nranks)
	for rank := range nranks {
		tick := int64(0)
		emit := func(layer trace.Layer, fn string, args ...string) {
			tick += 2
			tr.Append(trace.Record{Rank: rank, Func: fn, Layer: layer, Args: args, Tick: tick, Ret: tick + 1})
		}
		next, prev := strconv.Itoa((rank+1)%nranks), strconv.Itoa((rank+nranks-1)%nranks)
		send := func() { emit(trace.LayerMPI, "MPI_Send", "comm-world", next, "0", "8") }
		recv := func() { emit(trace.LayerMPI, "MPI_Recv", "comm-world", prev, "0", "8", prev, "0") }
		emit(trace.LayerPOSIX, "open", "sync.dat", "rw|creat", "3")
		for e := range epochs {
			emit(trace.LayerPOSIX, "pwrite", "3", "16", strconv.Itoa(16*(e*nranks+rank)))
			emit(trace.LayerPOSIX, "fsync", "3")
			if e%2 == 1 && rank%2 == 0 {
				send()
				recv()
			} else if e%2 == 1 {
				recv()
				send()
			}
			emit(trace.LayerMPI, "MPI_Barrier", "comm-world")
		}
		emit(trace.LayerPOSIX, "close", "3")
	}
	return tr
}

// sortedMembers is the skeleton membership the sort-and-compact way: per
// rank the first and last record and every record endpoint, sorted, without
// duplicates.
func sortedMembers(counts []int, edges []match.Edge) [][]int32 {
	members := make([][]int32, len(counts))
	for r, n := range counts {
		if n > 0 {
			members[r] = append(members[r], 0, int32(n-1))
		}
	}
	for _, e := range edges {
		for _, ref := range []trace.Ref{e.From, e.To} {
			if ref.Rank >= 0 {
				members[ref.Rank] = append(members[ref.Rank], ref.Seq)
			}
		}
	}
	for r := range members {
		slices.Sort(members[r])
		members[r] = slices.Compact(members[r])
	}
	return members
}

// TestSkeletonBitmapMatchesSortedMembership holds the bitmap-built skeleton
// to a sort-and-compact reference on every corpus trace and a syncheavy-
// shaped one: the same members per rank, rank of every member, and prev and
// next for every record. Built from the same edges sorted by (From, To) — the
// order the matcher once returned — the graph has the same members, level
// count and vector clocks, so the generation order changes no answer.
func TestSkeletonBitmapMatchesSortedMembership(t *testing.T) {
	traces := map[string]*trace.Trace{"syncheavy": syncHeavyTrace(16, 300)}
	for _, name := range corpus.Names() {
		tc, err := corpus.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if traces[name], err = corpus.Run(tc); err != nil {
			t.Fatal(err)
		}
	}
	for name, tr := range traces {
		counts := make([]int, tr.NumRanks())
		for r, recs := range tr.Ranks {
			counts[r] = len(recs)
		}
		res, err := match.MatchOpts(tr, match.Options{})
		if err != nil {
			t.Fatal(err)
		}
		g, err := hbgraph.BuildCounts(counts, res.Edges)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := sortedMembers(counts, res.Edges)
		base, seqs, rankOf := hbgraph.SkeletonMembers(g)
		for r, members := range want {
			got := seqs[base[r]:base[r+1]]
			if !slices.Equal(got, members) {
				t.Fatalf("%s: rank %d members %v, want %v", name, r, got, members)
			}
			for _, owner := range rankOf[base[r]:base[r+1]] {
				if owner != int32(r) {
					t.Fatalf("%s: a member of rank %d is filed under rank %d", name, r, owner)
				}
			}
			for seq := range int32(counts[r]) {
				c := g.Resolve(trace.Ref{Rank: int32(r), Seq: seq})
				i, found := slices.BinarySearch(members, seq)
				prev, next := base[r]+int32(i), base[r]+int32(i)
				if !found {
					prev--
				}
				if c.Prev != prev || c.Next != next {
					t.Fatalf("%s: record %d:%d resolves to prev %d next %d, want %d and %d", name, r, seq, c.Prev, c.Next, prev, next)
				}
			}
		}

		sorted := slices.Clone(res.Edges)
		slices.SortFunc(sorted, func(a, b match.Edge) int {
			return cmp.Or(cmp.Compare(a.From.Rank, b.From.Rank), cmp.Compare(a.From.Seq, b.From.Seq),
				cmp.Compare(a.To.Rank, b.To.Rank), cmp.Compare(a.To.Seq, b.To.Seq))
		})
		gs, err := hbgraph.BuildCounts(counts, sorted)
		if err != nil {
			t.Fatalf("%s, sorted edges: %v", name, err)
		}
		if _, sseqs, _ := hbgraph.SkeletonMembers(gs); !slices.Equal(sseqs, seqs) {
			t.Errorf("%s: the sorted edge order gives another skeleton", name)
		}
		if g.SkeletonLevels() != gs.SkeletonLevels() {
			t.Errorf("%s: %d levels, %d from the sorted edge order", name, g.SkeletonLevels(), gs.SkeletonLevels())
		}
		vc, err := g.VectorClocksOpts(hbgraph.VCOptions{Workers: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		vcs, err := gs.VectorClocksOpts(hbgraph.VCOptions{Workers: 1})
		if err != nil {
			t.Fatalf("%s, sorted edges: %v", name, err)
		}
		if !slices.Equal(hbgraph.Clocks(vc), hbgraph.Clocks(vcs)) {
			t.Errorf("%s: the vector clocks depend on the edge order", name)
		}
	}
}
