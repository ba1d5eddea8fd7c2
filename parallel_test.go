package verifyio

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"

	"verifyio/internal/conflict"
	"verifyio/internal/corpus"
	"verifyio/internal/trace"
	"verifyio/internal/verify"
)

// corpusTraceT runs a corpus test once for a test (the bench harness has
// the *testing.B twin).
func corpusTraceT(t *testing.T, name string) *trace.Trace {
	t.Helper()
	tc, err := corpus.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := corpus.Run(tc)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// reportFingerprint marshals a report with its run-varying fields (the
// ledger and worker count) and the class and probe counts zeroed, leaving
// races, counts and ordering — the quantities every source, oracle and
// worker count must reproduce bit-for-bit.
func reportFingerprint(t *testing.T, rep *verify.Report) []byte {
	t.Helper()
	cp := *rep
	cp.Ledger = verify.Ledger{}
	cp.Workers = 0
	cp.ClassHits, cp.Classes, cp.HBQueries = 0, 0, 0
	b, err := json.Marshal(&cp)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// detectFingerprint serializes everything a conflict.Result exposes —
// operations, file table, sync points, pair count, and every group's CSR
// contents via the accessors — so two Results compare bit-for-bit.
func detectFingerprint(t *testing.T, res *conflict.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "pairs=%d skipped=%d files=%q\n", res.Pairs, res.Skipped, res.Files)
	for _, op := range res.Ops {
		fmt.Fprintf(&buf, "op %d:%d fid=%d w=%v [%d,%d)\n",
			op.Ref.Rank, op.Ref.Seq, op.FID, op.Write, op.Start, op.End)
	}
	for _, sp := range res.Syncs {
		fmt.Fprintf(&buf, "sync %d:%d %s fid=%d\n", sp.Ref.Rank, sp.Ref.Seq, sp.Func, sp.FID)
	}
	for _, g := range res.Groups {
		fmt.Fprintf(&buf, "group x=%d ys=%v runs=", g.X, g.Ys())
		for k := 0; k < g.NumRuns(); k++ {
			fmt.Fprintf(&buf, "%v;", g.RunAt(k))
		}
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// TestDetectWorkerDeterminism is the step-2 determinism gate: for every
// corpus trace, the sharded detector must produce an identical Result at
// every worker count — same ops, same canonical fids, same groups in the
// same CSR order.
func TestDetectWorkerDeterminism(t *testing.T) {
	workerCounts := []int{1, 2, 7, runtime.GOMAXPROCS(0)}
	for _, tc := range corpus.Tests() {
		tr, err := corpus.Run(tc)
		if err != nil {
			t.Fatalf("%s: %v", tc.Name, err)
		}
		var base []byte
		for _, w := range workerCounts {
			res, err := conflict.DetectOpts(tr, conflict.Options{Workers: w})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", tc.Name, w, err)
			}
			fp := detectFingerprint(t, res)
			if base == nil {
				base = fp
			} else if !bytes.Equal(base, fp) {
				t.Errorf("%s: Detect workers=%d differs from workers=1", tc.Name, w)
			}
		}
	}
}

// TestScalingTraceDeterministic pins the synthetic scaling trace: it must be
// reproducible (same arguments, same records), or the tests that assert
// counts and bytes on it describe nothing.
func TestScalingTraceDeterministic(t *testing.T) {
	a := corpus.ScalingTrace(4, 200, 1<<12, 42)
	b := corpus.ScalingTrace(4, 200, 1<<12, 42)
	var ba, bb bytes.Buffer
	if err := trace.WriteText(&ba, a); err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteText(&bb, b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ba.Bytes(), bb.Bytes()) {
		t.Fatal("ScalingTrace is not deterministic")
	}
	if a.NumRanks() != 4 {
		t.Fatalf("ranks = %d, want 4", a.NumRanks())
	}
}

// TestPublicAPIWorkers exercises the Workers option through the public
// surface (what cmd/verifyio plumbs).
func TestPublicAPIWorkers(t *testing.T) {
	tr, err := RunCorpusTest("flexible")
	if err != nil {
		t.Fatal(err)
	}
	serial, err := VerifyAll(tr, &Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := VerifyAll(tr, &Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if serial[i].RaceCount != parallel[i].RaceCount {
			t.Errorf("%s: races %d (serial) vs %d (parallel)",
				serial[i].Model, serial[i].RaceCount, parallel[i].RaceCount)
		}
	}
	if parallel[0].Workers != 8 {
		t.Errorf("public report workers = %d, want 8", parallel[0].Workers)
	}
}

// TestNegativeMaxRaceDetails: a negative detail cap counts every race and
// keeps no detail, through the one chunk merge at every worker count — on
// pmulti_dset, 48 400 races under Commit, Session and MPI-IO.
func TestNegativeMaxRaceDetails(t *testing.T) {
	tr, err := RunCorpusTest("pmulti_dset")
	if err != nil {
		t.Fatal(err)
	}
	var reps [2][]*Report
	for i, workers := range []int{1, 4} {
		if reps[i], err = VerifyAll(tr, &Options{Workers: workers, MaxRaceDetails: -1}); err != nil {
			t.Fatal(err)
		}
		for _, rep := range reps[i] {
			want := int64(48400)
			if rep.Model == POSIX {
				want = 0 // properly synchronized
			}
			if rep.RaceCount != want || len(rep.Races) != 0 {
				t.Errorf("Workers=%d %s: %d races, %d detailed; want %d, none", workers, rep.Model, rep.RaceCount, len(rep.Races), want)
			}
		}
	}
	sameReports(t, "MaxRaceDetails=-1 at Workers=4", reps[0], reps[1], false)
}
