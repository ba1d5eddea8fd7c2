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
	tr, rec, err := ReadTraceDirOpts(dir, ReadOptions{Tolerate: true})
	if err != nil {
		t.Fatal(err)
	}
	if rec == nil || rec.Clean() {
		t.Fatal("truncated rank file loaded clean; the test damaged nothing")
	}
	for _, workers := range []int{1, 4} {
		want, err := VerifyAll(tr, &Options{Workers: workers, ContinueOnUnmatched: true})
		if err != nil {
			t.Fatal(err)
		}
		if want[0].Algorithm != "vector-clock" {
			t.Fatalf("production algorithm %q, want vector-clock", want[0].Algorithm)
		}
		for _, algo := range referenceAlgos {
			got := corpusReports(t, "salvaged", tr, algo, workers,
				verify.Options{Workers: workers, ContinueOnUnmatched: true})
			sameReports(t, fmt.Sprintf("salvaged %v Workers=%d", algo, workers), want, got, true)
		}
	}
}
