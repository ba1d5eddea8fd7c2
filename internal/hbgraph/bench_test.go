package hbgraph

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"verifyio/internal/match"
	"verifyio/internal/trace"
)

// synthGraph builds a layered random DAG: nranks chains of length n with
// forward cross edges (≈ density per node).
func synthGraph(nranks, n int, density float64, seed int64) (*trace.Trace, []match.Edge) {
	rng := rand.New(rand.NewSource(seed))
	counts := make([]int, nranks)
	for i := range counts {
		counts[i] = n
	}
	tr := mkTrace(counts...)
	var edges []match.Edge
	for r1 := 0; r1 < nranks; r1++ {
		for s1 := 0; s1 < n; s1++ {
			if rng.Float64() > density {
				continue
			}
			r2 := rng.Intn(nranks)
			if r2 == r1 {
				continue
			}
			// Forward in "time": target sequence strictly larger keeps
			// the graph acyclic across same-index chains.
			s2 := s1 + 1 + rng.Intn(n-s1)
			if s2 >= n {
				continue
			}
			edges = append(edges, match.Edge{From: ref(r1, s1), To: ref(r2, s2)})
		}
	}
	return tr, edges
}

// BenchmarkOracleConstruction compares building the production oracle,
// vector clocks, with building the segment closure reference (the fixed
// cost the BFS and on-the-fly references avoid).
func BenchmarkOracleConstruction(b *testing.B) {
	tr, edges := synthGraph(8, 2000, 0.1, 7)
	g, err := BuildCounts(rankCounts(tr), edges)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("vector-clock", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := g.VectorClocksOpts(VCOptions{Workers: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("segment", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := g.SegReachability(SegOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkVectorClocks measures skeleton clock construction on a
// sync-sparse graph (S ≪ V — the common Recorder-trace shape), a sync-dense
// one and a 256-rank one, serial and at GOMAXPROCS. At 8 ranks the clocks
// are one column block, so the GOMAXPROCS cell is the serial pass again
// (its speedup is "n/a", not 1); at 256 ranks there are 16 blocks to split.
func BenchmarkVectorClocks(b *testing.B) {
	shapes := []struct {
		name        string
		nranks, ops int
		density     float64
	}{
		{"sparse", 8, 4000, 0.005},
		{"dense", 8, 4000, 0.5},
		{"wide256", 256, 250, 0.1},
	}
	for _, sh := range shapes {
		tr, edges := synthGraph(sh.nranks, sh.ops, sh.density, 13)
		g, err := BuildCounts(rankCounts(tr), edges)
		if err != nil {
			b.Fatal(err)
		}
		for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
			b.Run(fmt.Sprintf("%s/workers=%d", sh.name, workers), func(b *testing.B) {
				b.ReportAllocs()
				b.ReportMetric(float64(g.SkeletonNodes()), "skelnodes")
				for i := 0; i < b.N; i++ {
					if _, err := g.VectorClocksOpts(VCOptions{Workers: workers}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkOracleQueries compares per-query cost across the four oracles
// on the same graph and cross-rank query set, probed at pre-resolved
// coordinates — the call the verifier makes.
func BenchmarkOracleQueries(b *testing.B) {
	tr, edges := synthGraph(8, 1000, 0.1, 11)
	g, err := BuildCounts(rankCounts(tr), edges)
	if err != nil {
		b.Fatal(err)
	}
	vc, err := g.VectorClocksOpts(VCOptions{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	seg, err := g.SegReachability(SegOptions{})
	if err != nil {
		b.Fatal(err)
	}
	oracles := []Oracle{vc, g.Reachability(), seg, NewOnTheFly(tr, edges)}
	rng := rand.New(rand.NewSource(3))
	queries := make([][2]Coord, 0, 512)
	for len(queries) < cap(queries) {
		r1, r2 := rng.Intn(8), rng.Intn(8)
		if r1 != r2 {
			queries = append(queries, [2]Coord{
				g.Resolve(ref(r1, rng.Intn(1000))), g.Resolve(ref(r2, rng.Intn(1000))),
			})
		}
	}
	var want []bool
	for _, o := range oracles {
		o := o
		b.Run(o.Name(), func(b *testing.B) {
			got := make([]bool, len(queries))
			for i := 0; i < b.N; i++ {
				for q, pair := range queries {
					got[q] = o.Probe(pair[0], pair[1])
				}
			}
			if want == nil {
				want = got
			} else {
				for q := range queries {
					if got[q] != want[q] {
						b.Fatalf("oracle %s disagrees on query %d", o.Name(), q)
					}
				}
			}
			b.ReportMetric(float64(len(queries)), "queries/op")
		})
	}
}
