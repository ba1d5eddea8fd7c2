package verifyio

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"verifyio/internal/corpus"
	"verifyio/internal/semantics"
	"verifyio/internal/trace"
	"verifyio/internal/verify"
)

// algoFreeFingerprint is reportFingerprint with the algorithm label and the
// graph-shape stats masked: cross-oracle comparisons need every verdict field
// byte-identical, while the oracle name — and, against the graph-free
// on-the-fly oracle, the graph gauges — legitimately differ.
func algoFreeFingerprint(t *testing.T, rep *verify.Report) []byte {
	t.Helper()
	cp := *rep
	cp.Algorithm = ""
	cp.GraphNodes, cp.GraphSyncEdges = 0, 0
	cp.SkeletonNodes, cp.SkeletonLevels = 0, 0
	return reportFingerprint(t, &cp)
}

// TestSegmentOracleReportEquivalenceCorpus is the acceptance gate for the
// segment-reachability oracle and the resolved query plan: on every corpus
// trace, verification through the segment oracle must produce byte-identical
// reports to every other algorithm name, across all models, at every
// worker count, and with the Table I fast paths disabled (which exercises the
// generic DFS over the same resolved plan).
func TestSegmentOracleReportEquivalenceCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus-wide segment equivalence suite skipped in -short mode")
	}
	workerCounts := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		workerCounts = append(workerCounts, n)
	}
	baseline := []verify.Algo{verify.AlgoVectorClock, verify.AlgoReachability, verify.AlgoOnTheFly}
	for _, name := range corpus.Names() {
		tr := corpusTraceT(t, name)
		seg, err := verify.Analyze(tr, verify.AlgoSegment, verify.AnalyzeOptions{})
		if err != nil {
			t.Fatalf("%s: analyze segment: %v", name, err)
		}
		for _, workers := range workerCounts {
			want := verifyAllReports(t, seg, workers)
			for _, algo := range baseline {
				a, err := verify.Analyze(tr, algo, verify.AnalyzeOptions{})
				if err != nil {
					t.Fatalf("%s/%v: %v", name, algo, err)
				}
				got := verifyAllReports(t, a, workers)
				for i := range want {
					w := algoFreeFingerprint(t, want[i])
					g := algoFreeFingerprint(t, got[i])
					if !bytes.Equal(w, g) {
						t.Errorf("%s model=%s workers=%d: %v report differs from segment\nsegment: %s\n%v: %s",
							name, want[i].Model, workers, algo, w, algo, g)
					}
				}
			}
			// The fast-path-free sweep must reach the same verdicts through
			// the generic DFS over the same resolved plan.
			for _, m := range semantics.All() {
				fast, err := seg.Verify(verify.Options{Model: m, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				slow, err := seg.Verify(verify.Options{Model: m, Workers: workers, DisableFastPaths: true})
				if err != nil {
					t.Fatal(err)
				}
				f := reportFingerprint(t, fast)
				s := reportFingerprint(t, slow)
				if !bytes.Equal(f, s) {
					t.Errorf("%s model=%s workers=%d: DisableFastPaths report differs\nfast: %s\nslow: %s",
						name, m.Name, workers, f, s)
				}
			}
		}
	}
}

// TestSegmentOracleSalvagedEquivalence runs the same cross-oracle report
// comparison on a salvaged prefix: a truncated rank stream read leniently
// must yield identical verdicts from the segment oracle and vector clocks —
// the damaged synchronization state shifts the skeleton, never the answers.
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
	seg, err := verify.Analyze(tr.t, verify.AlgoSegment, verify.AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	vc, err := verify.Analyze(tr.t, verify.AlgoVectorClock, verify.AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		want := verifyAllReports(t, seg, workers)
		got := verifyAllReports(t, vc, workers)
		for i := range want {
			w := algoFreeFingerprint(t, want[i])
			g := algoFreeFingerprint(t, got[i])
			if !bytes.Equal(w, g) {
				t.Errorf("salvaged model=%s workers=%d: vector-clock report differs from segment",
					want[i].Model, workers)
			}
		}
	}
}
