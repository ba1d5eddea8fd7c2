package verifyio

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"verifyio/internal/corpus"
	"verifyio/internal/trace"
	"verifyio/internal/verify"
)

// TestSegmentOracleSalvagedEquivalence runs the cross-oracle report
// comparison of TestSegmentOracleReportEquivalenceCorpus on a salvaged
// prefix: a truncated rank stream read leniently must yield identical
// verdicts from the production oracle and from every reference oracle — the
// damaged synchronization state shifts the skeleton, never the answers.
func TestSegmentOracleSalvagedEquivalence(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "trace")
	if err := trace.WriteDir(dir, corpus.ScalingTrace(4, 500, 1<<12, 3), trace.DefaultEncodeOptions()); err != nil {
		t.Fatal(err)
	}
	victim := filepath.Join(dir, "rank-2.viot")
	orig, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(victim, orig[:2*len(orig)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		want, rec, err := VerifyAllStream(dir, ReadOptions{Tolerate: true}, &Options{Workers: workers, ContinueOnUnmatched: true})
		if err != nil {
			t.Fatal(err)
		}
		if rec.Clean() {
			t.Fatal("truncated rank file read clean; the test damaged nothing")
		}
		for _, algo := range referenceAlgos {
			what := fmt.Sprintf("salvaged %v Workers=%d", algo, workers)
			a, err := verify.AnalyzeStream(dir, algo, verify.StreamAnalyzeOptions{
				AnalyzeOptions: verify.AnalyzeOptions{Workers: workers},
				Decode:         trace.DecodeOptions{Tolerate: true},
			})
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			got := verifyEveryModel(t, what, a, verify.Options{Workers: workers, ContinueOnUnmatched: true})
			sameReports(t, what, want, got)
		}
	}
}
