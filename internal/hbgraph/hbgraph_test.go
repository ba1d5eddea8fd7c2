package hbgraph

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"verifyio/internal/match"
	"verifyio/internal/trace"
)

// mkTrace builds a trace skeleton with the given per-rank record counts.
func mkTrace(counts ...int) *trace.Trace {
	tr := trace.New(len(counts))
	for rank, n := range counts {
		for i := 0; i < n; i++ {
			tr.Append(trace.Record{Rank: rank, Func: "op", Layer: trace.LayerPOSIX,
				Tick: int64(2*i + 1), Ret: int64(2*i + 2)})
		}
	}
	return tr
}

func ref(rank, seq int) trace.Ref { return trace.Ref{Rank: int32(rank), Seq: int32(seq)} }

func edges(pairs ...[4]int) []match.Edge {
	out := make([]match.Edge, len(pairs))
	for i, p := range pairs {
		out[i] = match.Edge{From: ref(p[0], p[1]), To: ref(p[2], p[3])}
	}
	return out
}

// allOracles builds the graph and the four implementations on it: the
// production oracle and the three references.
func allOracles(t *testing.T, tr *trace.Trace, es []match.Edge) (*Graph, []Oracle) {
	t.Helper()
	g, err := BuildCounts(rankCounts(tr), es)
	if err != nil {
		t.Fatal(err)
	}
	vc, err := g.VectorClocksOpts(VCOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	seg, err := g.SegReachability(SegOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return g, []Oracle{vc, g.Reachability(), seg, NewOnTheFly(tr, es)}
}

func TestProgramOrderIsHB(t *testing.T) {
	tr := mkTrace(3)
	g, oracles := allOracles(t, tr, nil)
	for _, o := range oracles {
		if !g.HB(o, ref(0, 0), ref(0, 2)) {
			t.Errorf("%s: po not hb", o.Name())
		}
		if g.HB(o, ref(0, 2), ref(0, 0)) {
			t.Errorf("%s: po reversed", o.Name())
		}
		if g.HB(o, ref(0, 1), ref(0, 1)) {
			t.Errorf("%s: hb must be irreflexive", o.Name())
		}
	}
}

func TestCrossRankNeedsEdges(t *testing.T) {
	tr := mkTrace(2, 2)
	g, oracles := allOracles(t, tr, nil)
	for _, o := range oracles {
		if g.HB(o, ref(0, 0), ref(1, 1)) {
			t.Errorf("%s: cross-rank hb without sync edges", o.Name())
		}
	}
}

func TestEdgeAndTransitivity(t *testing.T) {
	// rank0: a b ; rank1: c d ; rank2: e f
	// b → c, d → e gives a hb f transitively.
	tr := mkTrace(2, 2, 2)
	es := edges([4]int{0, 1, 1, 0}, [4]int{1, 1, 2, 0})
	g, oracles := allOracles(t, tr, es)
	for _, o := range oracles {
		cases := []struct {
			a, b trace.Ref
			want bool
		}{
			{ref(0, 1), ref(1, 0), true},  // direct edge
			{ref(0, 0), ref(1, 1), true},  // po + edge + po
			{ref(0, 0), ref(2, 1), true},  // two hops
			{ref(1, 0), ref(0, 0), false}, // no reverse
			{ref(2, 0), ref(0, 1), false},
			{ref(1, 1), ref(2, 0), true},
		}
		for _, tc := range cases {
			if got := g.HB(o, tc.a, tc.b); got != tc.want {
				t.Errorf("%s: HB(%v,%v) = %v, want %v", o.Name(), tc.a, tc.b, got, tc.want)
			}
		}
	}
}

func TestCycleDetected(t *testing.T) {
	tr := mkTrace(1, 1)
	es := edges([4]int{0, 0, 1, 0}, [4]int{1, 0, 0, 0})
	g, err := BuildCounts(rankCounts(tr), es)
	if err != nil {
		t.Fatal(err)
	}
	// The skeleton's Kahn pass records the cycle; the production clocks and
	// the closure reference surface it.
	if _, err := g.VectorClocksOpts(VCOptions{Workers: 1}); err == nil {
		t.Fatal("vector clocks accepted a cyclic graph")
	}
	if _, err := g.SegReachability(SegOptions{}); err == nil {
		t.Fatal("segment reachability accepted a cyclic graph")
	}
	if lv := g.SkeletonLevels(); lv != 0 {
		t.Fatalf("SkeletonLevels = %d on a cyclic skeleton, want 0", lv)
	}
}

func TestBuildRejectsOutOfRangeEdges(t *testing.T) {
	tr := mkTrace(1)
	if _, err := BuildCounts(rankCounts(tr), edges([4]int{0, 0, 3, 0})); err == nil {
		t.Fatal("edge to missing rank accepted")
	}
	if _, err := BuildCounts(rankCounts(tr), edges([4]int{0, 5, 0, 0})); err == nil {
		t.Fatal("edge from missing seq accepted")
	}
}

// TestSegReachabilityDefaultBudget pins the reference closure's 64 MiB cap
// and what it is a cap on: skeleton nodes, not records.
func TestSegReachabilityDefaultBudget(t *testing.T) {
	// A sync-dense graph whose skeleton matrix exceeds the budget is
	// refused...
	per := 1<<14 + 1
	tr := mkTrace(per, per)
	es := make([]match.Edge, 0, per-1)
	for i := 0; i+1 < per; i++ {
		es = append(es, match.Edge{From: ref(0, i), To: ref(1, i+1)})
	}
	g, err := BuildCounts(rankCounts(tr), es)
	if err != nil {
		t.Fatal(err)
	}
	n := g.SkeletonNodes()
	if size := n * ((n + 63) / 64) * 8; size <= segReachBudget {
		t.Fatalf("test graph matrix %d bytes, need > %d", size, segReachBudget)
	}
	if _, err := g.SegReachability(SegOptions{}); err == nil {
		t.Fatal("segment reachability ignored its byte budget")
	}
	// ...while a sync-sparse trace with as many records qualifies: its
	// skeleton is just the sentinels.
	sparse := mkTrace(2 * per)
	g2, err := BuildCounts(rankCounts(sparse), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g2.SegReachability(SegOptions{}); err != nil {
		t.Fatalf("segment reachability refused a %d-record trace with a %d-node skeleton: %v",
			2*per, g2.SkeletonNodes(), err)
	}
}

// TestSegReachabilityBudget pins the matrix size, S²/8 bytes.
func TestSegReachabilityBudget(t *testing.T) {
	tr := mkTrace(4, 4)
	es := edges([4]int{0, 0, 1, 1}, [4]int{1, 2, 0, 3})
	g, err := BuildCounts(rankCounts(tr), es)
	if err != nil {
		t.Fatal(err)
	}
	n := g.SkeletonNodes()
	size := n * ((n + 63) / 64) * 8
	seg, err := g.SegReachability(SegOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if seg.ArenaBytes() != size {
		t.Errorf("arena = %d bytes, want %d", seg.ArenaBytes(), size)
	}
}

// TestOracleQueriesOutsideTrace covers Graph.HB's bounds check with all four
// implementations: refs with out-of-range ranks or sequences (high and
// negative) are never hb-related in either direction.
func TestOracleQueriesOutsideTrace(t *testing.T) {
	tr := mkTrace(2, 2)
	es := edges([4]int{0, 0, 1, 1})
	in := ref(0, 0)
	out := []trace.Ref{ref(7, 0), ref(-1, 0), ref(1, 5), ref(1, -2)}
	g, oracles := allOracles(t, tr, es)
	for _, o := range oracles {
		for _, x := range out {
			if g.HB(o, in, x) {
				t.Errorf("%s: HB(%v, %v) true for out-of-range ref", o.Name(), in, x)
			}
			if g.HB(o, x, in) {
				t.Errorf("%s: HB(%v, %v) true for out-of-range ref", o.Name(), x, in)
			}
		}
	}
}

// TestSkeletonMapping pins the skeleton construction and the prev/next ref
// resolution (Graph.Resolve) the oracles' query mapping is built on.
func TestSkeletonMapping(t *testing.T) {
	tr := mkTrace(6, 4)
	es := edges([4]int{0, 2, 1, 1}, [4]int{1, 3, 0, 4})
	g, err := BuildCounts(rankCounts(tr), es)
	if err != nil {
		t.Fatal(err)
	}
	// rank 0 members: sentinels {0, 5} + endpoints {2, 4} -> ids 0..3
	// rank 1 members: sentinels {0, 3} + endpoint {1}    -> ids 4..6
	if g.SkeletonNodes() != 7 {
		t.Fatalf("skeleton = %d nodes, want 7", g.SkeletonNodes())
	}
	prevCases := []struct {
		ref  trace.Ref
		want int32
	}{
		{ref(0, 0), 0}, {ref(0, 1), 0}, {ref(0, 2), 1}, {ref(0, 3), 1},
		{ref(0, 4), 2}, {ref(0, 5), 3},
		{ref(1, 0), 4}, {ref(1, 1), 5}, {ref(1, 2), 5}, {ref(1, 3), 6},
	}
	for _, c := range prevCases {
		if got := g.Resolve(c.ref).Prev; got != c.want {
			t.Errorf("Resolve(%v).Prev = %d, want %d", c.ref, got, c.want)
		}
	}
	nextCases := []struct {
		ref  trace.Ref
		want int32
	}{
		{ref(0, 0), 0}, {ref(0, 1), 1}, {ref(0, 2), 1}, {ref(0, 3), 2},
		{ref(0, 5), 3},
		{ref(1, 2), 6}, {ref(1, 3), 6},
	}
	for _, c := range nextCases {
		if got := g.Resolve(c.ref).Next; got != c.want {
			t.Errorf("Resolve(%v).Next = %d, want %d", c.ref, got, c.want)
		}
	}
	if lv := g.SkeletonLevels(); lv <= 0 {
		t.Errorf("SkeletonLevels = %d, want > 0", lv)
	}
}

// TestVectorClockColumnBlocksDeterministic asserts the column-block clock
// pass produces bit-identical clocks at every worker count. At 40 ranks the
// blocks are ragged (16, 16, 8 columns), at 100 ranks there are seven; at
// workers 2, 3 and 7 the tasks split them unevenly.
func TestVectorClockColumnBlocksDeterministic(t *testing.T) {
	for _, nranks := range []int{40, 100} {
		tr, es := synthGraph(nranks, 60, 0.2, 5)
		g, err := BuildCounts(rankCounts(tr), es)
		if err != nil {
			t.Fatal(err)
		}
		if blocks := (nranks + vcBlock - 1) / vcBlock; blocks < 3 {
			t.Fatalf("%d ranks give %d column blocks; the test needs several", nranks, blocks)
		}
		base, err := g.VectorClocksOpts(VCOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{1, 2, 3, 7, runtime.GOMAXPROCS(0)} {
			vc, err := g.VectorClocksOpts(VCOptions{Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(vc.clocks, base.clocks) {
				t.Errorf("ranks=%d workers=%d: column-block clocks differ from serial clocks", nranks, w)
			}
		}
	}
}

// bruteOracle is the obviously-correct reference: DFS over po + so.
type bruteOracle struct {
	counts []int
	adj    map[trace.Ref][]trace.Ref
}

func newBrute(tr *trace.Trace, es []match.Edge) *bruteOracle {
	b := &bruteOracle{counts: make([]int, tr.NumRanks()), adj: map[trace.Ref][]trace.Ref{}}
	for rank, recs := range tr.Ranks {
		b.counts[rank] = len(recs)
		for i := 0; i+1 < len(recs); i++ {
			b.adj[ref(rank, i)] = append(b.adj[ref(rank, i)], ref(rank, i+1))
		}
	}
	for _, e := range es {
		b.adj[e.From] = append(b.adj[e.From], e.To)
	}
	return b
}

func (b *bruteOracle) HB(x, y trace.Ref) bool {
	seen := map[trace.Ref]bool{}
	var dfs func(trace.Ref) bool
	dfs = func(v trace.Ref) bool {
		for _, w := range b.adj[v] {
			if w == y {
				return true
			}
			if !seen[w] {
				seen[w] = true
				if dfs(w) {
					return true
				}
			}
		}
		return false
	}
	return dfs(x)
}

// TestPropertyAllAlgorithmsAgree is the §IV-D cross-validation: on random
// acyclic executions, all four oracles and the brute-force reference answer
// every query identically.
func TestPropertyAllAlgorithmsAgree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nranks := 2 + rng.Intn(3)
		counts := make([]int, nranks)
		type node struct {
			ref  trace.Ref
			time int
		}
		var nodes []node
		for r := range counts {
			counts[r] = 1 + rng.Intn(8)
			for s := 0; s < counts[r]; s++ {
				// Times increase along each rank so po edges always go
				// forward; random gaps leave room for cross edges.
				base := s * 10
				nodes = append(nodes, node{ref(r, s), base + rng.Intn(10)})
			}
		}
		tr := mkTrace(counts...)
		// Random forward-in-time cross-rank edges keep the graph acyclic.
		var es []match.Edge
		for i := 0; i < len(nodes); i++ {
			for j := 0; j < len(nodes); j++ {
				a, b := nodes[i], nodes[j]
				if a.ref.Rank == b.ref.Rank || a.time >= b.time {
					continue
				}
				if rng.Intn(6) == 0 {
					es = append(es, match.Edge{From: a.ref, To: b.ref})
				}
			}
		}
		sort.Slice(es, func(i, j int) bool {
			if es[i].From != es[j].From {
				return es[i].From.Less(es[j].From)
			}
			return es[i].To.Less(es[j].To)
		})
		g, err := BuildCounts(rankCounts(tr), es)
		if err != nil {
			return false
		}
		vc, err := g.VectorClocksOpts(VCOptions{Workers: 1})
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		seg, err := g.SegReachability(SegOptions{})
		if err != nil {
			return false
		}
		oracles := []Oracle{vc, g.Reachability(), seg, NewOnTheFly(tr, es)}
		brute := newBrute(tr, es)
		for i := 0; i < len(nodes); i++ {
			for j := 0; j < len(nodes); j++ {
				a, b := nodes[i].ref, nodes[j].ref
				want := a != b && brute.HB(a, b)
				for _, o := range oracles {
					if got := g.HB(o, a, b); got != want {
						t.Logf("seed %d: %s HB(%v,%v) = %v, brute = %v", seed, o.Name(), a, b, got, want)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestGraphStats(t *testing.T) {
	tr := mkTrace(3, 2)
	es := edges([4]int{0, 0, 1, 0})
	g, err := BuildCounts(rankCounts(tr), es)
	if err != nil {
		t.Fatal(err)
	}
	if g.Nodes() != 5 || g.SyncEdges() != 1 {
		t.Errorf("nodes=%d edges=%d", g.Nodes(), g.SyncEdges())
	}
}

func TestVectorClockMemoryShape(t *testing.T) {
	// A regression guard on the compact clock layout: one int32 per
	// (skeleton node, rank) pair in a single node-major slice — O(S·P)
	// memory, not O(V·P). With no sync edges the skeleton is just the
	// per-rank first/last sentinels.
	tr := mkTrace(5, 3)
	g, err := BuildCounts(rankCounts(tr), nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.SkeletonNodes() != 4 {
		t.Fatalf("skeleton = %d nodes, want 4 (two sentinels per rank)", g.SkeletonNodes())
	}
	vc, err := g.VectorClocksOpts(VCOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if vc.nranks != 2 {
		t.Fatalf("nranks = %d, want 2", vc.nranks)
	}
	if len(vc.clocks) != 4*2 {
		t.Fatalf("clocks = %d entries, want 8 (4 skeleton nodes x 2 ranks)", len(vc.clocks))
	}
	if vc.ArenaBytes() != 4*len(vc.clocks) {
		t.Fatalf("ArenaBytes = %d, want %d", vc.ArenaBytes(), 4*len(vc.clocks))
	}
	// Each skeleton node knows itself: id 0 is (rank 0, seq 0), id 1 is
	// (rank 0, seq 4), id 3 is (rank 1, seq 2)...
	if vc.clocks[0*2+0] != 0 || vc.clocks[1*2+0] != 4 || vc.clocks[3*2+1] != 2 {
		t.Errorf("self entries wrong: %v", vc.clocks)
	}
	// ...and, with no sync, nothing about the other rank.
	if vc.clocks[1*2+1] != -1 || vc.clocks[3*2+0] != -1 {
		t.Errorf("cross-rank entries populated without sync edges: %v", vc.clocks)
	}
}

func TestVectorClockConstructionAllocsFlat(t *testing.T) {
	// The flat layout allocates a constant number of slices, not one
	// clock per node.
	tr := mkTrace(300, 300, 300)
	g, err := BuildCounts(rankCounts(tr), nil)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := g.VectorClocksOpts(VCOptions{Workers: 1}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 16 {
		t.Errorf("VectorClocks allocated %v objects for 900 nodes; want O(1), not O(V)", allocs)
	}
}

// TestOraclesConcurrentQueries hammers every oracle from many goroutines and
// cross-checks against serial answers — the thread-safety contract the
// parallel verifier depends on (run under -race).
func TestOraclesConcurrentQueries(t *testing.T) {
	tr, es := synthGraph(4, 80, 0.15, 42)
	g, err := BuildCounts(rankCounts(tr), es)
	if err != nil {
		t.Fatal(err)
	}
	vc, err := g.VectorClocksOpts(VCOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	seg, err := g.SegReachability(SegOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range []Oracle{vc, g.Reachability(), seg, NewOnTheFly(tr, es)} {
		o := o
		t.Run(o.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(9))
			queries := make([][2]trace.Ref, 256)
			want := make([]bool, len(queries))
			for i := range queries {
				queries[i] = [2]trace.Ref{
					ref(rng.Intn(4), rng.Intn(80)),
					ref(rng.Intn(4), rng.Intn(80)),
				}
				want[i] = g.HB(o, queries[i][0], queries[i][1])
			}
			var wg sync.WaitGroup
			errs := make([]error, 8)
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for rep := 0; rep < 4; rep++ {
						for i, q := range queries {
							if got := g.HB(o, q[0], q[1]); got != want[i] {
								errs[w] = fmt.Errorf("HB(%v,%v) = %v under concurrency, want %v", q[0], q[1], got, want[i])
								return
							}
						}
					}
				}(w)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}
