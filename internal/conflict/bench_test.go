package conflict

import (
	"fmt"
	"math/rand"
	"testing"

	"verifyio/internal/trace"
)

// synthTrace builds a trace with nranks ranks each issuing ops pwrites at
// random offsets within a window (overlap density controlled by window).
func synthTrace(nranks, ops int, window int64, seed int64) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	tr := trace.New(nranks)
	for rank := 0; rank < nranks; rank++ {
		tick := int64(0)
		tick += 2
		tr.Append(trace.Record{Rank: rank, Func: "open", Layer: trace.LayerPOSIX,
			Args: []string{"f", "rw|creat", "3"}, Tick: tick, Ret: tick + 1})
		for i := 0; i < ops; i++ {
			tick += 2
			tr.Append(trace.Record{Rank: rank, Func: "pwrite", Layer: trace.LayerPOSIX,
				Args: []string{"3", "16", fmt.Sprint(rng.Int63n(window))},
				Tick: tick, Ret: tick + 1})
		}
	}
	return tr
}

// BenchmarkDetectScaling measures the sort-and-sweep over increasing
// operation counts at two overlap densities, up to the one-shared-file shape
// of the repo benchmark's sparse workload (8 ranks × 32 000 ops in a 32 MiB
// window), where the replay, the offset partition and the bucket sorts
// dominate.
func BenchmarkDetectScaling(b *testing.B) {
	for _, cfg := range []struct {
		name   string
		ranks  int
		ops    int // per rank
		window int64
	}{
		{"ops=1000/sparse", 4, 1000, 1 << 20},
		{"ops=1000/dense", 4, 1000, 1 << 10},
		{"ops=10000/sparse", 4, 10000, 1 << 20},
		// dense × 10000 is omitted: ~1.8×10⁷ pairs make the benchmark
		// measure pair materialization, not the sweep.
		{"ops=65536/shared-file", 4, 65536, 32 << 20},
		{"8-ranks/shared-file", 8, 32000, 32 << 20},
	} {
		tr := synthTrace(cfg.ranks, cfg.ops, cfg.window, 42)
		b.Run(cfg.name, func(b *testing.B) {
			var pairs int64
			for i := 0; i < b.N; i++ {
				res, err := Detect(tr)
				if err != nil {
					b.Fatal(err)
				}
				pairs = res.Pairs
			}
			b.ReportMetric(float64(pairs), "pairs")
			b.ReportMetric(float64(cfg.ranks*cfg.ops), "ops")
		})
	}
}

// BenchmarkOffsetReplay measures the (FP, EOF) reconstruction path: seeks
// interleaved with offset-less reads/writes.
func BenchmarkOffsetReplay(b *testing.B) {
	tr := trace.New(1)
	tick := int64(0)
	add := func(fn string, args ...string) {
		tick += 2
		tr.Append(trace.Record{Rank: 0, Func: fn, Layer: trace.LayerPOSIX,
			Args: args, Tick: tick, Ret: tick + 1})
	}
	add("open", "f", "rw|creat", "3")
	for i := 0; i < 5000; i++ {
		add("lseek", "3", fmt.Sprint(i*8), "SEEK_SET", fmt.Sprint(i*8))
		add("write", "3", "8")
		add("read", "3", "8")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Detect(tr)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Ops) != 10000 {
			b.Fatalf("ops = %d", len(res.Ops))
		}
	}
}
