package corpus

import (
	"math/rand"
	"runtime"
	"testing"

	"verifyio/internal/hbgraph"
	"verifyio/internal/match"
	"verifyio/internal/obs"
	"verifyio/internal/semantics"
	"verifyio/internal/trace"
	"verifyio/internal/verify"
)

// refOracle is an independent full-graph vector-clock reference, built with
// the textbook O(V·P) layout internal/hbgraph used before the sync-skeleton
// rework. The corpus-wide suite below checks the skeleton-backed oracles
// against it: the skeleton is an optimization, not an approximation, so
// every HB answer must be identical. It is fed match.Pairwise(edges) — plain
// record-to-record pairs — so the matcher's join nodes are checked too.
type refOracle struct {
	counts []int
	base   []int
	nranks int
	clocks []int32 // len V*nranks, node-major, -1 = nothing known
}

func buildRef(t *testing.T, tr *trace.Trace, edges []match.Edge) *refOracle {
	t.Helper()
	o := &refOracle{nranks: tr.NumRanks()}
	o.counts = make([]int, o.nranks)
	o.base = make([]int, o.nranks+1)
	for rank, recs := range tr.Ranks {
		o.counts[rank] = len(recs)
		o.base[rank+1] = o.base[rank] + len(recs)
	}
	n := o.base[o.nranks]
	id := func(r trace.Ref) int { return o.base[r.Rank] + r.Seq }

	succ := make(map[int][]int, len(edges))
	pred := make(map[int][]int, len(edges))
	indeg := make([]int, n)
	for _, e := range edges {
		f, to := id(e.From), id(e.To)
		succ[f] = append(succ[f], to)
		pred[to] = append(pred[to], f)
		indeg[to]++
	}
	for rank := range o.counts {
		for s := 1; s < o.counts[rank]; s++ {
			indeg[o.base[rank]+s]++
		}
	}
	order := make([]int, 0, n)
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			order = append(order, v)
		}
	}
	rankOf := make([]int, n)
	for rank := range o.counts {
		for v := o.base[rank]; v < o.base[rank+1]; v++ {
			rankOf[v] = rank
		}
	}
	relax := func(v int) {
		indeg[v]--
		if indeg[v] == 0 {
			order = append(order, v)
		}
	}
	for head := 0; head < len(order); head++ {
		v := order[head]
		if v+1 < o.base[rankOf[v]+1] {
			relax(v + 1)
		}
		for _, s := range succ[v] {
			relax(s)
		}
	}
	if len(order) != n {
		t.Fatalf("reference oracle: cyclic graph (%d of %d ordered)", len(order), n)
	}

	o.clocks = make([]int32, n*o.nranks)
	for i := range o.clocks {
		o.clocks[i] = -1
	}
	for _, v := range order {
		c := o.clocks[v*o.nranks : (v+1)*o.nranks]
		r := rankOf[v]
		c[r] = int32(v - o.base[r])
		merge := func(p int) {
			pc := o.clocks[p*o.nranks : (p+1)*o.nranks]
			for i, pv := range pc {
				if pv > c[i] {
					c[i] = pv
				}
			}
		}
		if v > o.base[r] {
			merge(v - 1)
		}
		for _, p := range pred[v] {
			merge(p)
		}
	}
	return o
}

func (o *refOracle) HB(a, b trace.Ref) bool {
	if a.Rank == b.Rank {
		return a.Seq < b.Seq
	}
	for _, r := range []trace.Ref{a, b} {
		if r.Rank < 0 || r.Rank >= o.nranks || r.Seq < 0 || r.Seq >= o.counts[r.Rank] {
			return false
		}
	}
	return o.clocks[(o.base[b.Rank]+b.Seq)*o.nranks+a.Rank] >= int32(a.Seq)
}

// equivExhaustiveLimit: traces up to this many records get the full V×V
// query matrix; larger ones get sampled queries.
const (
	equivExhaustiveLimit = 150
	equivSampleQueries   = 10_000
)

// TestOracleEquivalenceCorpus is the corpus-wide cross-validation of the
// sync-skeleton rework: on every corpus trace and one large synthetic one,
// skeleton vector clocks (serial and wavefront-parallel), BFS reachability,
// segment reachability (the skeleton's transitive closure), and the
// on-the-fly oracle must answer through Graph.HB exactly like full-graph
// vector clocks — exhaustively on small traces, on 10k sampled queries on
// large ones. It also asserts, via the gauges the analysis pipeline exports,
// that the skeleton clock arena never exceeds the full-graph arena.
func TestOracleEquivalenceCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus-wide equivalence suite skipped in -short mode")
	}
	type input struct {
		name string
		gen  func() (*trace.Trace, error)
	}
	// One synthetic trace beside the corpus: 8 ranks, 33 024 records, a
	// barrier every 64 ops.
	inputs := []input{{"scaling-large", func() (*trace.Trace, error) {
		return ScalingTrace(8, 4000, 1<<18, 7), nil
	}}}
	for _, tc := range Tests() {
		inputs = append(inputs, input{tc.Name, func() (*trace.Trace, error) { return Run(tc) }})
	}
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			tr, err := in.gen()
			if err != nil {
				t.Fatal(err)
			}
			mres, err := match.MatchOpts(tr, match.Options{})
			if err != nil {
				t.Fatal(err)
			}
			counts := make([]int, tr.NumRanks())
			for rank, recs := range tr.Ranks {
				counts[rank] = len(recs)
			}
			g, err := hbgraph.BuildCounts(counts, mres.Edges)
			if err != nil {
				t.Fatal(err)
			}
			// The reference knows nothing of join nodes: it gets the sync
			// order spelled out pair by pair.
			ref := buildRef(t, tr, match.Pairwise(mres.Edges))

			vcSerial, err := g.VectorClocksOpts(hbgraph.VCOptions{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			vcPar, err := g.VectorClocksOpts(hbgraph.VCOptions{Workers: runtime.GOMAXPROCS(0)})
			if err != nil {
				t.Fatal(err)
			}
			seg, err := g.SegReachability(hbgraph.SegOptions{})
			if err != nil {
				t.Fatalf("segment reachability: %v", err)
			}
			oracles := []hbgraph.Oracle{vcSerial, vcPar, seg, g.Reachability(), hbgraph.NewOnTheFly(tr, mres.Edges)}

			check := func(a, b trace.Ref) {
				want := ref.HB(a, b)
				for _, o := range oracles {
					if got := g.HB(o, a, b); got != want {
						t.Fatalf("%s: HB(%v, %v) = %v, full-graph reference = %v", o.Name(), a, b, got, want)
					}
				}
			}
			n := tr.NumRecords()
			if n <= equivExhaustiveLimit {
				for r1 := 0; r1 < ref.nranks; r1++ {
					for s1 := 0; s1 < ref.counts[r1]; s1++ {
						for r2 := 0; r2 < ref.nranks; r2++ {
							for s2 := 0; s2 < ref.counts[r2]; s2++ {
								check(trace.Ref{Rank: r1, Seq: s1}, trace.Ref{Rank: r2, Seq: s2})
							}
						}
					}
				}
			} else {
				rng := rand.New(rand.NewSource(int64(n)))
				for q := 0; q < equivSampleQueries; q++ {
					r1, r2 := rng.Intn(ref.nranks), rng.Intn(ref.nranks)
					if ref.counts[r1] == 0 || ref.counts[r2] == 0 {
						continue
					}
					check(trace.Ref{Rank: r1, Seq: rng.Intn(ref.counts[r1])},
						trace.Ref{Rank: r2, Seq: rng.Intn(ref.counts[r2])})
				}
			}
			// Out-of-range probes round out the shared bounds check.
			check(trace.Ref{Rank: 0, Seq: 0}, trace.Ref{Rank: ref.nranks + 3, Seq: 0})
			check(trace.Ref{Rank: ref.nranks + 3, Seq: 0}, trace.Ref{Rank: 0, Seq: 0})

			// Arena gauges: the skeleton clock arena must never exceed what
			// the full-graph layout would have allocated.
			reg := obs.NewRegistry()
			a, err := verify.AnalyzeOpts(tr, verify.AlgoVectorClock, verify.AnalyzeOptions{Obs: obs.Ctx{R: reg}})
			if err != nil {
				t.Fatal(err)
			}
			snap := reg.Snapshot()
			skel := snap.Stable.Gauges["hbgraph.vc_arena_bytes"]
			full := snap.Stable.Gauges["hbgraph.vc_full_arena_bytes"]
			if skel <= 0 || full <= 0 {
				t.Fatalf("arena gauges missing: skeleton=%d full=%d", skel, full)
			}
			if skel > full {
				t.Errorf("skeleton clock arena %d bytes exceeds full-graph arena %d bytes", skel, full)
			}

			// Stored sync edges are linear in the trace: a barrier-like
			// collective is one join node with at most two edges per member,
			// and Scan/Exscan a chain of one edge per member, so the matcher
			// stores at most two edges per record. Pairwise barriers would
			// break the bound from 4 ranks up.
			edges, nodes := snap.Stable.Counters["match.edges"], snap.Stable.Gauges["hbgraph.nodes"]
			if nodes <= 0 || edges > 2*nodes {
				t.Errorf("match.edges = %d, want at most 2 × hbgraph.nodes = 2 × %d", edges, nodes)
			}

			// A four-model pass over the resolved query plan probes the
			// production oracle: a conflict pair is cross-rank by definition,
			// so with any pair at all the probe count is positive.
			if _, err := a.VerifyAll(semantics.All(), verify.Options{
				Workers: 2, ContinueOnUnmatched: true, Obs: obs.Ctx{R: reg}}); err != nil {
				t.Fatal(err)
			}
			if n := reg.Snapshot().Stable.Counters["verify.hb_queries"]; a.Conflicts.Pairs > 0 && n == 0 {
				t.Errorf("verify.hb_queries = 0 over %d conflict pairs", a.Conflicts.Pairs)
			}
		})
	}
}
