package verify

import (
	"bytes"
	"encoding/json"
	"sort"
	"testing"

	"verifyio/internal/conflict"
	"verifyio/internal/hbgraph"
	"verifyio/internal/par"
	"verifyio/internal/recorder"
	"verifyio/internal/semantics"
	"verifyio/internal/sim/posixfs"
	"verifyio/internal/trace"
)

// racyProgram produces many conflict groups with a mix of raced and
// properly-synchronized pairs, so the parallel merge is exercised on both
// counting and detail collection.
func racyProgram(r *recorder.Rank) error {
	c := r.Proc().CommWorld()
	fd, err := r.Open("par.dat", posixfs.ORdwr|posixfs.OCreate)
	if err != nil {
		return err
	}
	// Unsynchronized overlapping writes: races everywhere.
	for i := int64(0); i < 12; i++ {
		if _, err := r.Pwrite(fd, []byte("xy"), i*2); err != nil {
			return err
		}
	}
	if err := r.Fsync(fd); err != nil {
		return err
	}
	if err := r.Barrier(c); err != nil {
		return err
	}
	// Reads after fsync+barrier: properly synchronized under commit.
	for i := int64(0); i < 12; i++ {
		if _, err := r.Pread(fd, 2, i*2); err != nil {
			return err
		}
	}
	return r.Close(fd)
}

// normalize strips the fields that legitimately vary between runs (the
// ledger's wall times; its counts are TestPipelineStableMetricsDeterministic's)
// and the worker count itself, leaving everything determinism must cover:
// races, counts, ordering, verdicts.
func normalize(rep *Report) *Report {
	cp := *rep
	cp.Ledger = Ledger{}
	cp.Workers = 0
	return &cp
}

func reportJSON(t *testing.T, rep *Report) []byte {
	t.Helper()
	b, err := json.Marshal(normalize(rep))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestParallelVerifyDeterministic asserts that Workers=8 produces a
// byte-identical report to Workers=1 across all four models and all five
// algorithms.
func TestParallelVerifyDeterministic(t *testing.T) {
	tr := runTraced(t, 4, racyProgram)
	for _, algo := range []Algo{AlgoVectorClock, AlgoReachability, AlgoOnTheFly, AlgoSegment} {
		a, err := Analyze(tr, algo, AnalyzeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range semantics.All() {
			serial, err := a.Verify(Options{Model: m, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			parallel, err := a.Verify(Options{Model: m, Workers: 8})
			if err != nil {
				t.Fatal(err)
			}
			if sj, pj := reportJSON(t, serial), reportJSON(t, parallel); !bytes.Equal(sj, pj) {
				t.Errorf("%s/%s: parallel report differs from serial\nserial:   %s\nparallel: %s",
					algo, m.Name, sj, pj)
			}
		}
	}
}

// TestVerifyAllConcurrentMatchesSerial runs the four models concurrently
// over one shared analysis and compares every report to the serial pass.
func TestVerifyAllConcurrentMatchesSerial(t *testing.T) {
	tr := runTraced(t, 4, racyProgram)
	a, err := Analyze(tr, AlgoVectorClock, AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	serial, err := a.VerifyAll(semantics.All(), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	concurrent, err := a.VerifyAll(semantics.All(), Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(concurrent) {
		t.Fatalf("report counts differ: %d vs %d", len(serial), len(concurrent))
	}
	for i := range serial {
		if serial[i].Model != concurrent[i].Model {
			t.Errorf("report %d: model order changed: %s vs %s", i, serial[i].Model, concurrent[i].Model)
		}
		if sj, cj := reportJSON(t, serial[i]), reportJSON(t, concurrent[i]); !bytes.Equal(sj, cj) {
			t.Errorf("%s: concurrent VerifyAll differs from serial", serial[i].Model)
		}
	}
}

// TestWorkersDefaultRecorded asserts the resolved worker count lands in the
// report.
func TestWorkersDefaultRecorded(t *testing.T) {
	tr := runTraced(t, 2, racyProgram)
	a, err := Analyze(tr, AlgoVectorClock, AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := a.Verify(Options{Model: semantics.POSIXModel()})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Workers < 1 {
		t.Errorf("report workers = %d, want >= 1 after default resolution", rep.Workers)
	}
	rep, err = a.Verify(Options{Model: semantics.POSIXModel(), Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Workers != 3 {
		t.Errorf("report workers = %d, want 3", rep.Workers)
	}
}

// TestSyncIndexSortGuard violates the documented "Syncs are (rank, seq)
// ordered" invariant on purpose: buildSyncIndex must detect the unsorted
// per-rank list and restore it, so MSC binary searches stay correct.
func TestSyncIndexSortGuard(t *testing.T) {
	res := &conflict.Result{
		Files: []string{"f"},
		Syncs: []conflict.SyncPoint{
			// Same rank, decreasing seq — out of order.
			{Ref: trace.Ref{Rank: 0, Seq: 9}, Func: "fsync", FID: 0},
			{Ref: trace.Ref{Rank: 0, Seq: 2}, Func: "fsync", FID: 0},
			{Ref: trace.Ref{Rank: 0, Seq: 5}, Func: "fsync", FID: 0},
			{Ref: trace.Ref{Rank: 1, Seq: 4}, Func: "fsync", FID: 0},
		},
	}
	g, err := hbgraph.BuildCounts([]int{10, 5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	idx := buildSyncIndex(res, semantics.CommitModel(), g)
	for c := range idx.perRank {
		for fid, byRank := range idx.perRank[c] {
			for rank, cands := range byRank {
				sorted := sort.SliceIsSorted(cands, func(i, j int) bool {
					return cands[i].Seq < cands[j].Seq
				})
				if !sorted {
					t.Errorf("class %d file %d rank %d: candidates %v not sorted", c, fid, rank, cands)
				}
			}
		}
	}
	got := idx.perRank[0][0][0]
	if len(got) != 3 || got[0].Seq != 2 || got[1].Seq != 5 || got[2].Seq != 9 {
		t.Errorf("rank 0 seqs = %v, want [2 5 9]", got)
	}
}

// panicOracle fails every probe.
type panicOracle struct{ hbgraph.Oracle }

func (panicOracle) Probe(a, b hbgraph.Coord) bool { panic("probe failed") }

// TestVerifyWorkerPanicReachesCaller: a panic inside a verification batch
// on a pool goroutine re-panics on the caller as a *par.TaskPanic that
// carries the failing worker's stack.
func TestVerifyWorkerPanicReachesCaller(t *testing.T) {
	a, err := Analyze(planTrace(4, 900), AlgoVectorClock, AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(a.plan.batches); n < 2 {
		t.Fatalf("%d batches; the pool would run inline", n)
	}
	a.Oracle = panicOracle{a.Oracle}
	defer func() {
		tp, ok := recover().(*par.TaskPanic)
		if !ok {
			t.Fatal("Verify did not re-panic with a *par.TaskPanic")
		}
		if tp.Value != "probe failed" || !bytes.Contains(tp.Stack, []byte("panicOracle.Probe")) {
			t.Errorf("task panic %v lacks the worker's value or stack:\n%s", tp.Value, tp.Stack)
		}
	}()
	a.Verify(Options{Model: semantics.POSIXModel(), Workers: 4})
	t.Fatal("Verify returned after its oracle panicked")
}
