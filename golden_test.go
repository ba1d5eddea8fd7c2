package verifyio

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"verifyio/internal/semantics"
	"verifyio/internal/verify"
)

var update = flag.Bool("update", false, "rewrite golden files")

const corpusGolden = "testdata/corpus_reports.golden"

// goldenWindow is small enough that every corpus trace's ranks split into
// many batches on the directory source, wherever the boundaries land.
const goldenWindow = 4 << 10

// reportDigest hashes a rendered report without its run-varying lines (the
// worker count and the stage times).
func reportDigest(rep *Report) string {
	var buf bytes.Buffer
	rep.Render(&buf)
	h := sha256.New()
	for _, line := range strings.SplitAfter(buf.String(), "\n") {
		if !strings.HasPrefix(line, "workers:") && !strings.HasPrefix(line, "timing:") {
			h.Write([]byte(line))
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// corpusReports analyzes a corpus trace in memory with algo at analyze
// workers and verifies it under every model with o.
func corpusReports(t *testing.T, name string, tr *Trace, algo verify.Algo, analyze int, o verify.Options) []*Report {
	t.Helper()
	a, err := verify.Analyze(tr.t, algo, verify.AnalyzeOptions{Workers: analyze})
	if err != nil {
		t.Fatalf("%s/%v: %v", name, algo, err)
	}
	return verifyEveryModel(t, name+"/"+algo.String(), a, o)
}

// verifyEveryModel verifies the analysis under every model with o and wraps
// the reports.
func verifyEveryModel(t *testing.T, what string, a *verify.Analysis, o verify.Options) []*Report {
	t.Helper()
	reps, err := a.VerifyAll(semantics.All(), o)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	wrapped := make([]*Report, len(reps))
	for i, rep := range reps {
		wrapped[i] = wrapReport(rep)
	}
	return wrapped
}

// forEachCorpusTrace runs fn on every corpus trace, in corpus order.
func forEachCorpusTrace(t *testing.T, fn func(name string, tr *Trace)) {
	t.Helper()
	for _, name := range CorpusTests() {
		tr, err := RunCorpusTest(name)
		if err != nil {
			t.Fatal(err)
		}
		fn(name, tr)
	}
}

// sameReports reports every model whose report in got differs from the one
// in want by reportFingerprint: races, counts, problems and ordering.
func sameReports(t *testing.T, what string, want, got []*Report) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d reports, want %d", what, len(got), len(want))
	}
	for i := range want {
		if w, g := reportFingerprint(t, want[i].inner), reportFingerprint(t, got[i].inner); !bytes.Equal(w, g) {
			t.Errorf("%s %s: report differs\nwant: %s\ngot:  %s", what, want[i].Model, w, g)
		}
	}
}

// corpusWorkers are the worker counts of the corpus table: serial, and a
// count that splits no work evenly.
var corpusWorkers = []int{1, 3}

// The corpus table holds every corpus trace's reports, one property per test
// below. TestCorpusReportsGolden pins the rendered report, from memory and
// off the directory, to the recorded digest; the others hold a second source,
// algorithm, verification path or worker count to the in-memory report by
// sameReports. Those verify through unmatched MPI calls
// (ContinueOnUnmatched), so races are compared on the three corpus traces
// that have them too; on every other trace that changes nothing.

// TestCorpusReportsGolden holds every corpus trace's rendered report, under
// each model and at Workers 1 and 3, to the digest recorded in
// testdata/corpus_reports.golden — from the in-memory source, and from the
// directory source read leniently at goldenWindow. The file was generated at
// the last commit that had separate materialized and streaming pipelines, so
// "byte-identical reports" is a tier-1 check; -update regenerates it from
// memory at Workers = 1.
func TestCorpusReportsGolden(t *testing.T) {
	want := map[string]string{}
	if !*update {
		data, err := os.ReadFile(corpusGolden)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			f := strings.Fields(line)
			if len(f) != 3 {
				t.Fatalf("%s: malformed line %q", corpusGolden, line)
			}
			want[f[0]+" "+f[1]] = f[2]
		}
	}
	var out strings.Builder
	forEachCorpusTrace(t, func(name string, tr *Trace) {
		dir := filepath.Join(t.TempDir(), "trace")
		if err := tr.WriteDir(dir); err != nil {
			t.Fatal(err)
		}
		for _, workers := range corpusWorkers {
			fromDir, _, err := VerifyAllStream(dir, ReadOptions{Tolerate: true, WindowBytes: goldenWindow}, &Options{Workers: workers})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			sources := map[string][]*Report{
				"memory":    corpusReports(t, name, tr, verify.AlgoVectorClock, workers, verify.Options{Workers: workers}),
				"directory": fromDir,
			}
			for source, reps := range sources {
				for _, rep := range reps {
					key, got := name+" "+string(rep.Model), reportDigest(rep)
					if *update {
						if source == "memory" && workers == 1 {
							fmt.Fprintf(&out, "%s %s\n", key, got)
						}
					} else if got != want[key] {
						t.Errorf("%s from %s at Workers=%d: report digest %s, golden %s", key, source, workers, got, want[key])
					}
				}
			}
		}
	})
	if *update {
		if err := os.WriteFile(corpusGolden, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStreamEquivalenceCorpus is source equivalence: every corpus trace
// written as a directory and read off it, strictly and leniently, at a window
// small enough that every rank splits into many batches, must verify to the
// in-memory reports at Workers 1 and 3.
func TestStreamEquivalenceCorpus(t *testing.T) {
	forEachCorpusTrace(t, func(name string, tr *Trace) {
		dir := filepath.Join(t.TempDir(), "trace")
		if err := tr.WriteDir(dir); err != nil {
			t.Fatal(err)
		}
		for _, workers := range corpusWorkers {
			want := corpusReports(t, name, tr, verify.AlgoVectorClock, workers,
				verify.Options{Workers: workers, ContinueOnUnmatched: true})
			for _, tolerate := range []bool{false, true} {
				got, _, err := VerifyAllStream(dir, ReadOptions{Tolerate: tolerate, WindowBytes: goldenWindow},
					&Options{Workers: workers, ContinueOnUnmatched: true})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				sameReports(t, fmt.Sprintf("%s directory Workers=%d tolerate=%v", name, workers, tolerate), want, got)
			}
		}
	})
}

// TestSegmentOracleReportEquivalenceCorpus holds the three reference oracles
// — the segment closure, reachability and on-the-fly — to the production
// oracle (vector clocks, what auto is) through the same resolved query plan
// and walk: on every corpus trace at Workers 1 and 3, their reports must
// match the production reports.
func TestSegmentOracleReportEquivalenceCorpus(t *testing.T) {
	forEachCorpusTrace(t, func(name string, tr *Trace) {
		for _, workers := range corpusWorkers {
			o := verify.Options{Workers: workers, ContinueOnUnmatched: true}
			want := corpusReports(t, name, tr, verify.AlgoVectorClock, workers, o)
			for _, algo := range referenceAlgos {
				sameReports(t, fmt.Sprintf("%s %v Workers=%d", name, algo, workers), want,
					corpusReports(t, name, tr, algo, workers, o))
			}
		}
	})
}

// referenceAlgos are the oracles kept only to check the production one.
var referenceAlgos = []verify.Algo{verify.AlgoSegment, verify.AlgoReachability, verify.AlgoOnTheFly}

// TestParallelCorpusDeterminism isolates the verifier's workers: for every
// algorithm on every corpus trace, one serial analysis verified at Workers 3
// must report exactly what it reports at Workers 1. Some corpus trace must
// race, or the comparison is vacuous.
func TestParallelCorpusDeterminism(t *testing.T) {
	sawRace := false
	forEachCorpusTrace(t, func(name string, tr *Trace) {
		for _, algo := range []verify.Algo{
			verify.AlgoSegment, verify.AlgoVectorClock, verify.AlgoReachability, verify.AlgoOnTheFly,
		} {
			a, err := verify.Analyze(tr.t, algo, verify.AnalyzeOptions{Workers: 1})
			if err != nil {
				t.Fatalf("%s/%v: %v", name, algo, err)
			}
			var reps [2][]*Report
			for i, workers := range corpusWorkers {
				reps[i] = verifyEveryModel(t, name+"/"+algo.String(), a, verify.Options{Workers: workers, ContinueOnUnmatched: true})
				for _, rep := range reps[i] {
					sawRace = sawRace || rep.RaceCount > 0
				}
			}
			sameReports(t, fmt.Sprintf("%s %v verified at Workers=3", name, algo), reps[0], reps[1])
		}
	})
	if !sawRace {
		t.Fatal("no corpus trace produced a race; the determinism test is vacuous")
	}
}

// TestAnalyzeParallelDeterminism isolates the front end's workers
// (concurrent detect and match, the sharded sweep, the graph): on every
// corpus trace, the analysis built at Workers 3 and verified serially must
// report exactly what the serial analysis does.
func TestAnalyzeParallelDeterminism(t *testing.T) {
	forEachCorpusTrace(t, func(name string, tr *Trace) {
		o := verify.Options{Workers: 1, ContinueOnUnmatched: true}
		sameReports(t, name+" analyzed at Workers=3", corpusReports(t, name, tr, verify.AlgoVectorClock, 1, o),
			corpusReports(t, name, tr, verify.AlgoVectorClock, 3, o))
	})
}
