package verify_test

import (
	"os"
	"path/filepath"
	"reflect"
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
		sa, err := verify.AnalyzeStream(dir, verify.AlgoAuto, verify.StreamAnalyzeOptions{WindowBytes: 1 << 12})
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
		ma, err := verify.Analyze(tr, verify.AlgoAuto, verify.AnalyzeOptions{})
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
