package verify

import (
	"fmt"
	"reflect"
	"testing"

	"verifyio/internal/trace"
)

// planTrace synthesizes a trace with enough conflict groups, of skewed
// sizes, to exercise the chunk planner (same shape as the scaling corpus:
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

// TestPlanChunksPartition: the plan must be a contiguous partition of the
// groups, weight-bounded, with every over-weight group isolated — the
// invariants parallel verification relies on.
func TestPlanChunksPartition(t *testing.T) {
	a, err := Analyze(planTrace(4, 900), AlgoVectorClock, AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	conf := a.Conflicts
	if len(conf.Groups) < 100 {
		t.Fatalf("trace too tame: only %d conflict groups", len(conf.Groups))
	}
	plan := planChunks(conf)
	if len(plan) < 2 {
		t.Fatalf("plan has %d chunks; want several (groups=%d)", len(plan), len(conf.Groups))
	}
	next := 0
	for ci, span := range plan {
		if span.lo != next || span.hi <= span.lo {
			t.Fatalf("chunk %d = [%d,%d): not a contiguous partition (expected lo=%d)",
				ci, span.lo, span.hi, next)
		}
		next = span.hi
		w := 0
		for gi := span.lo; gi < span.hi; gi++ {
			gw := len(conf.Groups[gi].Ys())
			if gw >= chunkMaxWeight && span.hi-span.lo != 1 {
				t.Fatalf("group %d (weight %d) shares chunk %d with %d neighbors",
					gi, gw, ci, span.hi-span.lo-1)
			}
			w += gw
		}
		if span.hi-span.lo > 1 && w >= 2*chunkMaxWeight {
			t.Fatalf("chunk %d weight %d exceeds the planner bound", ci, w)
		}
	}
	if next != len(conf.Groups) {
		t.Fatalf("plan covers %d of %d groups", next, len(conf.Groups))
	}
	if !reflect.DeepEqual(plan, planChunks(conf)) {
		t.Fatal("planChunks is not deterministic")
	}
}
