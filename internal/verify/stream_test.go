package verify_test

import (
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"verifyio/internal/corpus"
	"verifyio/internal/semantics"
	"verifyio/internal/trace"
	"verifyio/internal/verify"
)

// TestStreamedAnalysisOutlivesItsTrace: AnalyzeStream reads the directory
// once and keeps everything a verdict needs — race functions and full call
// chains included — so the directory can be gone before Verify runs, and the
// reported races still equal the materialized run's.
func TestStreamedAnalysisOutlivesItsTrace(t *testing.T) {
	for _, name := range []string{"flexible", "pmulti_dset"} {
		tc, err := corpus.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := corpus.Run(tc)
		if err != nil {
			t.Fatal(err)
		}
		dir := filepath.Join(t.TempDir(), name)
		if err := trace.WriteDir(dir, tr, trace.DefaultEncodeOptions()); err != nil {
			t.Fatal(err)
		}
		sa, err := verify.AnalyzeStream(dir, verify.AlgoVectorClock, verify.StreamAnalyzeOptions{WindowBytes: 1 << 12})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		got, err := sa.VerifyAll(semantics.All(), verify.Options{})
		if err != nil {
			t.Fatalf("%s: verifying after the trace directory was removed: %v", name, err)
		}
		ma, err := verify.Analyze(tr, verify.AlgoVectorClock, verify.AnalyzeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := ma.VerifyAll(semantics.All(), verify.Options{})
		if err != nil {
			t.Fatal(err)
		}
		chains := 0
		for i := range want {
			if !reflect.DeepEqual(got[i].Races, want[i].Races) {
				t.Errorf("%s/%s: streamed race details differ from the materialized run's", name, want[i].Model)
			}
			for _, r := range got[i].Races {
				if len(r.ChainX) > 1 || len(r.ChainY) > 1 {
					chains++
				}
			}
		}
		if chains == 0 {
			t.Errorf("%s: no race carried a nested call chain; the test compares nothing", name)
		}
	}
}

// TestAnalysisBytesPerOp bounds what AnalyzeStream allocates per data
// operation on a sparse-shaped directory (8 ranks of 4 000 data operations in
// a 32 MiB window, 427 conflict pairs): decode, conflict replay and sweep,
// matching, graph, oracle and op plan together, at one worker and at two. It
// reads 166.6 B/op at one worker and 170–173 at two: each reader lends steps
// over its rank file's string table, whose canonical decimals get no string
// of their own. Slots of records whose Args came from a reused scratch slab
// read 179.5 and 181.6, and 215 was their bound; the bound leaves about 7 %
// over the steps' worst reading. Slots with a fresh slab for every slot's
// Args read 226 and 228, and window-sized batches 240 and 255.
func TestAnalysisBytesPerOp(t *testing.T) {
	const budget = 185 // bytes per data operation
	dir := t.TempDir()
	if err := trace.WriteDir(dir, corpus.ScalingTrace(8, 4000, 32<<20, 1), trace.DefaultEncodeOptions()); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		least, ops := ^uint64(0), 0
		for range 5 { // the least of five, as TestReadDirDecodedBytesPerRecord takes
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			a, err := verify.AnalyzeStream(dir, verify.AlgoVectorClock, verify.StreamAnalyzeOptions{
				AnalyzeOptions: verify.AnalyzeOptions{Workers: workers}})
			if err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			least, ops = min(least, after.TotalAlloc-before.TotalAlloc), len(a.Conflicts.Ops)
		}
		perOp := float64(least) / float64(ops)
		t.Logf("Workers=%d: %d ops, %.1f bytes allocated per op", workers, ops, perOp)
		if perOp > budget {
			t.Errorf("Workers=%d: AnalyzeStream allocated %.1f bytes per op, want <= %d", workers, perOp, budget)
		}
	}
}
