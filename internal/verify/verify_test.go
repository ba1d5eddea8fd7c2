package verify

import (
	"fmt"
	"testing"

	"verifyio/internal/conflict"
	"verifyio/internal/hbgraph"
	"verifyio/internal/match"
	"verifyio/internal/obs"
	"verifyio/internal/recorder"
	"verifyio/internal/semantics"
	"verifyio/internal/sim/mpiio"
	"verifyio/internal/sim/posixfs"
	"verifyio/internal/trace"
)

func runTraced(t *testing.T, nranks int, prog func(r *recorder.Rank) error) *trace.Trace {
	t.Helper()
	env := recorder.NewEnv(nranks, recorder.Options{FSMode: posixfs.ModePOSIX})
	if err := env.Run(prog); err != nil {
		t.Fatalf("traced program: %v", err)
	}
	return env.Trace()
}

// verifyOne runs the whole pipeline (steps 2–4) on a trace for one model.
func verifyOne(t *testing.T, tr *trace.Trace, algo Algo, opts Options) *Report {
	t.Helper()
	a, err := Analyze(tr, algo, AnalyzeOptions{Workers: opts.Workers, Obs: opts.Obs})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := a.Verify(opts)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// verdicts runs all four models over one trace and returns race counts by
// model name.
func verdicts(t *testing.T, tr *trace.Trace, algo Algo) map[string]int64 {
	t.Helper()
	a, err := Analyze(tr, algo, AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	reps, err := a.VerifyAll(semantics.All(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]int64{}
	for _, rep := range reps {
		if !rep.Verified {
			t.Fatalf("%s: verification aborted: %v", rep.Model, rep.Problems)
		}
		out[rep.Model] = rep.RaceCount
	}
	return out
}

// fig2Program is the running example: rank 0 writes [0,4) and commits with
// a plain POSIX fsync (MPI_File_sync is collective, so the writer-only
// commit uses the POSIX interface directly — mixed-interface access as in
// §IV-B), a barrier orders the ranks, rank 1 reads [0,4).
func fig2Program(r *recorder.Rank) error {
	c := r.Proc().CommWorld()
	f, err := mpiio.Open(r, c, "fig2.bin", mpiio.ModeRdwr|mpiio.ModeCreate, mpiio.Config{})
	if err != nil {
		return err
	}
	if r.Rank() == 0 {
		if err := f.WriteAt(0, []byte("abcd")); err != nil {
			return err
		}
		if err := r.Fsync(f.Fd()); err != nil {
			return err
		}
	}
	if err := r.Barrier(c); err != nil {
		return err
	}
	if r.Rank() == 1 {
		if _, err := f.ReadAt(0, 4); err != nil {
			return err
		}
	}
	return f.Close()
}

func TestFig2VerdictsAcrossModels(t *testing.T) {
	tr := runTraced(t, 2, fig2Program)
	got := verdicts(t, tr, AlgoVectorClock)
	want := map[string]int64{"POSIX": 0, "Commit": 0, "Session": 1, "MPI-IO": 1}
	for model, races := range want {
		if got[model] != races {
			t.Errorf("%s races = %d, want %d", model, got[model], races)
		}
	}
}

func TestFig2AllAlgorithmsAgree(t *testing.T) {
	tr := runTraced(t, 2, fig2Program)
	base := verdicts(t, tr, AlgoVectorClock)
	for _, algo := range []Algo{AlgoReachability, AlgoOnTheFly, AlgoSegment} {
		got := verdicts(t, tr, algo)
		if fmt.Sprint(got) != fmt.Sprint(base) {
			t.Errorf("%v verdicts %v differ from vector-clock %v", algo, got, base)
		}
	}
}

func TestProperSyncBarrierSyncPattern(t *testing.T) {
	// The right-hand side of Fig. 6: sync on the writer, barrier, sync on
	// the reader — properly synchronized under every model (commit via
	// the nested fsync, session via close-to-open is still violated
	// though: no close/open pair; so Session expects a race).
	tr := runTraced(t, 2, func(r *recorder.Rank) error {
		c := r.Proc().CommWorld()
		f, err := mpiio.Open(r, c, "f", mpiio.ModeRdwr|mpiio.ModeCreate, mpiio.Config{})
		if err != nil {
			return err
		}
		if r.Rank() == 0 {
			if err := f.WriteAt(0, []byte("zz")); err != nil {
				return err
			}
		}
		if err := f.Sync(); err != nil { // sync on BOTH sides
			return err
		}
		if err := r.Barrier(c); err != nil {
			return err
		}
		if err := f.Sync(); err != nil {
			return err
		}
		if r.Rank() == 1 {
			if _, err := f.ReadAt(0, 2); err != nil {
				return err
			}
		}
		return f.Close()
	})
	got := verdicts(t, tr, AlgoVectorClock)
	want := map[string]int64{"POSIX": 0, "Commit": 0, "Session": 1, "MPI-IO": 0}
	for model, races := range want {
		if got[model] != races {
			t.Errorf("%s races = %d, want %d", model, got[model], races)
		}
	}
}

func TestSessionCloseOpenPattern(t *testing.T) {
	// Writer closes, ranks synchronize, reader opens: session-clean.
	tr := runTraced(t, 2, func(r *recorder.Rank) error {
		c := r.Proc().CommWorld()
		if r.Rank() == 0 {
			fd, err := r.Open("s.dat", posixfs.OWronly|posixfs.OCreate)
			if err != nil {
				return err
			}
			if _, err := r.Pwrite(fd, []byte("data"), 0); err != nil {
				return err
			}
			if err := r.Fsync(fd); err != nil {
				return err
			}
			if err := r.Close(fd); err != nil {
				return err
			}
		}
		if err := r.Barrier(c); err != nil {
			return err
		}
		if r.Rank() == 1 {
			fd, err := r.Open("s.dat", posixfs.ORdonly)
			if err != nil {
				return err
			}
			if _, err := r.Pread(fd, 4, 0); err != nil {
				return err
			}
			return r.Close(fd)
		}
		return nil
	})
	got := verdicts(t, tr, AlgoVectorClock)
	// MPI-IO: no MPI_File_* sync ops at all → race under MPI-IO.
	want := map[string]int64{"POSIX": 0, "Commit": 0, "Session": 0, "MPI-IO": 1}
	for model, races := range want {
		if got[model] != races {
			t.Errorf("%s races = %d, want %d", model, got[model], races)
		}
	}
}

func TestUnorderedWritesRaceEverywhere(t *testing.T) {
	// Two ranks write the same offset with no synchronization at all.
	tr := runTraced(t, 2, func(r *recorder.Rank) error {
		fd, err := r.Open("w.dat", posixfs.OWronly|posixfs.OCreate)
		if err != nil {
			return err
		}
		if _, err := r.Pwrite(fd, []byte("me!!"), 0); err != nil {
			return err
		}
		return r.Close(fd)
	})
	got := verdicts(t, tr, AlgoVectorClock)
	for model, races := range got {
		if races != 1 {
			t.Errorf("%s races = %d, want 1", model, races)
		}
	}
}

func TestReadBeforeWriteOrderedByHB(t *testing.T) {
	// Def. 6 case 1: a read that happens-before the conflicting write is
	// properly synchronized under every model — no MSC required.
	tr := runTraced(t, 2, func(r *recorder.Rank) error {
		c := r.Proc().CommWorld()
		fd, err := r.Open("rw.dat", posixfs.ORdwr|posixfs.OCreate)
		if err != nil {
			return err
		}
		if r.Rank() == 0 {
			if _, err := r.Pread(fd, 4, 0); err != nil {
				return err
			}
		}
		if err := r.Barrier(c); err != nil {
			return err
		}
		if r.Rank() == 1 {
			if _, err := r.Pwrite(fd, []byte("late"), 0); err != nil {
				return err
			}
		}
		return r.Close(fd)
	})
	got := verdicts(t, tr, AlgoVectorClock)
	for model, races := range got {
		if races != 0 {
			t.Errorf("%s races = %d, want 0 (read hb write)", model, races)
		}
	}
}

func TestUnmatchedMPIAbortsVerification(t *testing.T) {
	tr := trace.New(2)
	tr.Append(trace.Record{Rank: 0, Func: "MPI_Barrier", Layer: trace.LayerMPI,
		Args: []string{"comm-world"}, Tick: 1, Ret: 2})
	rep := verifyOne(t, tr, AlgoVectorClock, Options{Model: semantics.POSIXModel()})
	if rep.Verified {
		t.Error("verification should abort on unmatched MPI calls")
	}
	if len(rep.Problems) == 0 {
		t.Error("problems missing from report")
	}
}

func TestRaceReportCarriesCallChains(t *testing.T) {
	tr := runTraced(t, 2, fig2Program)
	rep := verifyOne(t, tr, AlgoVectorClock, Options{Model: semantics.MPIIOModel()})
	if rep.RaceCount != 1 || len(rep.Races) != 1 {
		t.Fatalf("races = %d (%d detailed)", rep.RaceCount, len(rep.Races))
	}
	race := rep.Races[0]
	if race.FuncX != "pwrite" || race.FuncY != "pread" {
		t.Errorf("race funcs = %s / %s", race.FuncX, race.FuncY)
	}
	// Chains end at the POSIX op and start at the MPI-IO call that the
	// application issued.
	if len(race.ChainX) != 2 || len(race.ChainY) != 2 {
		t.Fatalf("chains = %v / %v", race.ChainX, race.ChainY)
	}
	fr, err := trace.ParseFrame(race.ChainX[0])
	if err != nil || fr.Func != "MPI_File_write_at" {
		t.Errorf("chainX root = %v", race.ChainX[0])
	}
	if race.File != "fig2.bin" {
		t.Errorf("race file = %s", race.File)
	}
	if race.Level() != "mpi-io" {
		t.Errorf("race level = %s", race.Level())
	}
}

func TestMaxRaceDetailsCapsDetailNotCount(t *testing.T) {
	tr := runTraced(t, 2, func(r *recorder.Rank) error {
		fd, err := r.Open("f", posixfs.ORdwr|posixfs.OCreate)
		if err != nil {
			return err
		}
		for i := int64(0); i < 10; i++ {
			if _, err := r.Pwrite(fd, []byte("xx"), i*2); err != nil {
				return err
			}
		}
		return nil
	})
	rep := verifyOne(t, tr, AlgoVectorClock, Options{Model: semantics.POSIXModel(), MaxRaceDetails: 3})
	if rep.RaceCount != 10 {
		t.Errorf("race count = %d, want 10", rep.RaceCount)
	}
	if len(rep.Races) != 3 {
		t.Errorf("detailed races = %d, want 3", len(rep.Races))
	}
}

// TestAutoAlgorithmSelection (the name is historical: there is no selection
// any more): the production oracle is skeleton vector clocks on every trace —
// also a huge one with no conflicts; it never switches to a reference
// algorithm.
func TestAutoAlgorithmSelection(t *testing.T) {
	big := trace.New(1)
	for i := 0; i < 200_001; i++ {
		big.Append(trace.Record{Rank: 0, Func: "op", Layer: trace.LayerPOSIX,
			Tick: int64(2*i + 1), Ret: int64(2*i + 2)})
	}
	for _, tr := range []*trace.Trace{runTraced(t, 2, fig2Program), big} {
		a, err := Analyze(tr, AlgoVectorClock, AnalyzeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := a.Oracle.(*hbgraph.VCOracle); !ok {
			t.Errorf("production oracle on a %d-record trace: %T, want vector clocks", tr.NumRecords(), a.Oracle)
		}
	}
}

// TestClosureOverBudgetFallsBackToVectorClocks (the name is historical:
// nothing falls back any more): on a skeleton whose closure matrix exceeds
// the reference's byte budget, the production oracle still builds vector
// clocks (their arena is linear in the skeleton), and the segment reference
// refuses with an error instead of switching oracles.
func TestClosureOverBudgetFallsBackToVectorClocks(t *testing.T) {
	// 2 × 16 385 chained sync endpoints: a 32 770-node skeleton, ~134 MB of
	// closure against the 64 MiB budget.
	const per = 1<<14 + 1
	edges := make([]match.Edge, 0, per-1)
	for i := 0; i+1 < per; i++ {
		edges = append(edges, match.Edge{From: trace.Ref{Rank: 0, Seq: int32(i)}, To: trace.Ref{Rank: 1, Seq: int32(i + 1)}})
	}
	analysis := func() *Analysis {
		return &Analysis{counts: []int{per, per}, Conflicts: &conflict.Result{}, Match: &match.Result{Edges: edges}}
	}
	a := analysis()
	if err := a.buildOracle(AlgoVectorClock, 1, obs.Ctx{}); err != nil {
		t.Fatalf("vector clocks: %v", err)
	}
	if _, ok := a.Oracle.(*hbgraph.VCOracle); !ok {
		t.Errorf("oracle %T, want vector clocks", a.Oracle)
	}
	if err := analysis().buildOracle(AlgoSegment, 1, obs.Ctx{}); err == nil {
		t.Error("segment reference built a closure over its byte budget")
	}
}

func TestVerifyAllSharesAnalysis(t *testing.T) {
	tr := runTraced(t, 2, fig2Program)
	a, err := Analyze(tr, AlgoVectorClock, AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	reps, err := a.VerifyAll(semantics.All(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 4 {
		t.Fatalf("reports = %d", len(reps))
	}
	for _, rep := range reps {
		if rep.ConflictPairs != 1 {
			t.Errorf("%s conflicts = %d, want 1 (shared analysis)", rep.Model, rep.ConflictPairs)
		}
	}
}
