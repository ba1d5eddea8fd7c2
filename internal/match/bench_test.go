package match

import (
	"fmt"
	"testing"

	"verifyio/internal/trace"
)

// collectiveHeavyTrace builds a trace of iters barriers across nranks.
func collectiveHeavyTrace(nranks, iters int) *trace.Trace {
	tr := trace.New(nranks)
	for rank := 0; rank < nranks; rank++ {
		tick := int64(0)
		for i := 0; i < iters; i++ {
			tick += 2
			tr.Append(trace.Record{Rank: rank, Func: "MPI_Barrier", Layer: trace.LayerMPI,
				Args: []string{"comm-world"}, Tick: tick, Ret: tick + 1})
		}
	}
	return tr
}

// p2pHeavyTrace builds a trace of iters ping messages per non-root rank.
func p2pHeavyTrace(nranks, iters int) *trace.Trace {
	tr := trace.New(nranks)
	ticks := make([]int64, nranks)
	add := func(rank int, fn string, args ...string) {
		ticks[rank] += 2
		tr.Append(trace.Record{Rank: rank, Func: fn, Layer: trace.LayerMPI,
			Args: args, Tick: ticks[rank], Ret: ticks[rank] + 1})
	}
	for i := 0; i < iters; i++ {
		for src := 1; src < nranks; src++ {
			add(src, "MPI_Send", "comm-world", "0", fmt.Sprint(i%8), "8")
			add(0, "MPI_Recv", "comm-world", fmt.Sprint(src), fmt.Sprint(i%8), "8",
				fmt.Sprint(src), fmt.Sprint(i%8))
		}
	}
	return tr
}

// BenchmarkMatchCollectives measures slot matching and barrier-edge
// generation (the cache test's dominant cost). The ranks=64 cell is where a
// per-barrier cost quadratic in the communicator size would show.
func BenchmarkMatchCollectives(b *testing.B) {
	for _, c := range []struct{ ranks, iters int }{{8, 500}, {8, 5000}, {64, 500}} {
		tr, iters := collectiveHeavyTrace(c.ranks, c.iters), c.iters
		name := fmt.Sprintf("barriers=%d", iters)
		if c.ranks != 8 {
			name = fmt.Sprintf("ranks=%d/%s", c.ranks, name)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := MatchOpts(tr, Options{})
				if err != nil {
					b.Fatal(err)
				}
				if res.Collectives != iters {
					b.Fatalf("collectives = %d", res.Collectives)
				}
			}
		})
	}
}

// BenchmarkMatchP2P measures FIFO bucket matching for point-to-point
// traffic.
func BenchmarkMatchP2P(b *testing.B) {
	for _, iters := range []int{500, 5000} {
		tr := p2pHeavyTrace(4, iters)
		b.Run(fmt.Sprintf("msgs=%d", iters*3), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := MatchOpts(tr, Options{})
				if err != nil {
					b.Fatal(err)
				}
				if res.P2P != iters*3 {
					b.Fatalf("p2p = %d", res.P2P)
				}
			}
		})
	}
}
