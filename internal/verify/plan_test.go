package verify

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"verifyio/internal/trace"
)

// planTrace synthesizes a trace with enough conflict groups, of skewed
// sizes, to exercise the batch planner (same shape as the scaling corpus:
// pseudo-random 16-byte accesses in a shared window).
func planTrace(nranks, ops int) *trace.Trace {
	tr := trace.New(nranks)
	for rank := 0; rank < nranks; rank++ {
		tick := int64(2)
		emit := func(layer trace.Layer, fn string, args ...string) {
			tr.Append(trace.Record{Rank: rank, Func: fn, Layer: layer,
				Args: args, Tick: tick, Ret: tick + 1})
			tick += 2
		}
		emit(trace.LayerMPI, "MPI_Barrier", "comm-world")
		emit(trace.LayerPOSIX, "open", "plan.dat", "rw|creat", "3")
		for i := 0; i < ops; i++ {
			// A hot offset every 8th op concentrates conflicts into a few
			// dense groups; the rest spread across the window.
			off := int64(i*37%4096) * 16
			if i%8 == 0 {
				off = 0
			}
			if i%4 == 0 {
				emit(trace.LayerPOSIX, "pread", "3", "16", fmt.Sprint(off))
			} else {
				emit(trace.LayerPOSIX, "pwrite", "3", "16", fmt.Sprint(off))
			}
		}
		emit(trace.LayerPOSIX, "close", "3")
		emit(trace.LayerMPI, "MPI_Barrier", "comm-world")
	}
	return tr
}

// TestPlanBatchesPartition: the plan must be a contiguous partition of the
// groups, deterministic, and every batch but the last must reach the target
// run length without having reached it before its last group — the
// invariants parallel verification relies on.
func TestPlanBatchesPartition(t *testing.T) {
	a, err := Analyze(planTrace(4, 900), AlgoVectorClock, AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	conf := a.Conflicts
	if len(conf.Groups) < 100 {
		t.Fatalf("trace too tame: only %d conflict groups", len(conf.Groups))
	}
	plan := planBatches(conf)
	if len(plan) < 2 {
		t.Fatalf("plan has %d batches; want several (groups=%d)", len(plan), len(conf.Groups))
	}
	target := int(math.Ceil(math.Sqrt(float64(conf.Pairs) * batchUnit)))
	next := 0
	for b, span := range plan {
		if span.lo != next || span.hi <= span.lo {
			t.Fatalf("batch %d = [%d,%d): not a contiguous partition (expected lo=%d)",
				b, span.lo, span.hi, next)
		}
		next = span.hi
		w := 0
		for gi := span.lo; gi < span.hi; gi++ {
			if w >= target {
				t.Fatalf("batch %d reaches the target %d before its group %d", b, target, gi)
			}
			w += len(conf.Groups[gi].Ys())
		}
		if b < len(plan)-1 && w < target {
			t.Fatalf("batch %d weighs %d, under the target %d", b, w, target)
		}
	}
	if next != len(conf.Groups) {
		t.Fatalf("plan covers %d of %d groups", next, len(conf.Groups))
	}
	if !reflect.DeepEqual(plan, planBatches(conf)) {
		t.Fatal("planBatches is not deterministic")
	}
}
