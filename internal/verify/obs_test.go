package verify

import (
	"reflect"
	"testing"

	"verifyio/internal/hbgraph"
	"verifyio/internal/obs"
	"verifyio/internal/semantics"
	"verifyio/internal/trace"
)

// pipelineTelemetry runs the full analyze+verify pipeline on the Fig. 2
// trace with a tracer attached and returns the exported events.
func pipelineTelemetry(t *testing.T, workers int) []obs.ChromeEvent {
	t.Helper()
	tracer := obs.NewTracer()
	pipeline(t, runTraced(t, 2, fig2Program), workers, obs.Ctx{T: tracer})
	return tracer.Events()
}

// pipeline analyzes tr and verifies it under the four models.
func pipeline(t *testing.T, tr *trace.Trace, workers int, oc obs.Ctx) []*Report {
	t.Helper()
	a, err := AnalyzeOpts(tr, AlgoVectorClock, AnalyzeOptions{Workers: workers, Obs: oc})
	if err != nil {
		t.Fatal(err)
	}
	reps, err := a.VerifyAll(semantics.All(), Options{Workers: workers, Obs: oc})
	if err != nil {
		t.Fatal(err)
	}
	return reps
}

// TestPipelineSpansCoverAllStages asserts a telemetry-enabled run emits the
// documented span taxonomy: all five stages, with shard spans at Workers>1.
func TestPipelineSpansCoverAllStages(t *testing.T) {
	events := pipelineTelemetry(t, 2)

	counts := map[string]int{}
	for _, e := range events {
		if e.Ph == "X" {
			counts[e.Name]++
		}
	}
	for _, stage := range []string{"analyze", "detect", "match", "build-graph", "vector-clocks", "verify"} {
		if counts[stage] == 0 {
			t.Errorf("no %q span emitted; spans: %v", stage, counts)
		}
	}
	// Shard spans: one per rank task (2 ranks), per-model verify lanes (4
	// models).
	if counts["rank"] != 2 {
		t.Errorf("rank-task spans = %d, want 2", counts["rank"])
	}
	if counts["verify"] != 4 {
		t.Errorf("verify model spans = %d, want 4", counts["verify"])
	}
	if err := obs.ValidateEvents(events); err != nil {
		t.Errorf("pipeline trace fails validation: %v", err)
	}

}

// TestPipelineStableMetricsDeterministic holds the ledger's counts to the
// trace: every row's In and Out, and each report's ClassHits, Classes and
// HBQueries, read the same at Workers 1, 2 and 7. The batches along which
// the verifier carries its class scratch, and so how many checks it
// evaluates and how many happens-before probes those cost, are the plan's,
// not the pool's. The trace has position classes spanning many groups, so
// batches cut by worker count would show.
func TestPipelineStableMetricsDeterministic(t *testing.T) {
	tr := planTrace(4, 900)
	type counts struct {
		rows                          [len(Stages)][2]int64
		classHits, classes, hbQueries int64
	}
	var serial []counts
	for _, workers := range []int{1, 2, 7} {
		var got []counts
		for _, rep := range pipeline(t, tr, workers, obs.Ctx{}) {
			c := counts{classHits: rep.ClassHits, classes: rep.Classes, hbQueries: rep.HBQueries}
			for i, row := range rep.Ledger.Rows() {
				c.rows[i] = [2]int64{row.In, row.Out}
			}
			got = append(got, c)
		}
		if workers == 1 {
			serial = got
			if c := got[0]; c.classHits == 0 || c.classes == 0 || c.hbQueries == 0 {
				t.Fatalf("trace too tame: %+v", c)
			}
		} else if !reflect.DeepEqual(got, serial) {
			t.Errorf("ledger counts at workers=%d: %+v, at workers=1: %+v", workers, got, serial)
		}
	}
}

// TestVerifyAllocationsIndependentOfOps is TestDisabledPathAllocatesNothing
// (internal/obs) one level up: with telemetry off, a pass allocates per pass
// and per worker, never per batch or per group — no lane names and
// attributes built for spans nobody records, no per-batch scratch.
// Quadrupling the ops of a race-free trace at a fixed number of sync points
// must not add allocations.
func TestVerifyAllocationsIndependentOfOps(t *testing.T) {
	allocs := func(ops int, model semantics.Model) (float64, int) {
		a, err := AnalyzeOpts(orderedTrace(4, ops), AlgoVectorClock, AnalyzeOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{Model: model, Workers: 2}
		rep, err := a.Verify(opts)
		if err != nil || rep.RaceCount != 0 || rep.ConflictPairs == 0 {
			t.Fatalf("ops=%d %s: err=%v, %d races over %d pairs; want a race-free trace with conflicts",
				ops, model.Name, err, rep.RaceCount, rep.ConflictPairs)
		}
		return testing.AllocsPerRun(10, func() { a.Verify(opts) }), len(a.plan.batches)
	}
	for _, model := range []semantics.Model{semantics.POSIXModel(), semantics.CommitModel()} {
		small, smallBatches := allocs(512, model)
		large, largeBatches := allocs(2048, model)
		// Batches grow with the square root of the pairs.
		if smallBatches < 4 || 2*largeBatches < 3*smallBatches {
			t.Fatalf("batch counts %d and %d: want several, and about twice as many", smallBatches, largeBatches)
		}
		// Which worker grows its witness sets is up to the scheduler, so a
		// handful either way is noise; one allocation per batch is not.
		if large-small > float64(largeBatches-smallBatches)/4 {
			t.Errorf("%s: %.0f allocations per pass over %d batches, %.0f over %d",
				model.Name, large, largeBatches, small, smallBatches)
		}
	}
}

// orderedTrace is a race-free trace under POSIX and Commit: in each of two
// phases one rank writes ops slots of a shared file and commits them with an
// fsync, a world barrier follows, and every other rank reads them back.
func orderedTrace(nranks, ops int) *trace.Trace {
	p := newIOProgram(nranks, "ordered.dat")
	for writer := 0; writer < 2; writer++ {
		for rank := writer; rank < writer+nranks; rank++ {
			for i := 0; i < ops; i++ {
				p.access(rank%nranks, 0, writer*ops+i, rank == writer)
			}
			if rank == writer {
				p.fsync(writer, 0)
				p.barrier("comm-world")
			}
		}
	}
	return p.tr
}

// TestPipelineSpanContentWorkerIndependent asserts the exported span
// content (names, lanes/tids, ids, parents) is identical across runs at the
// same worker count, even though goroutine scheduling varies.
func TestPipelineSpanContentWorkerIndependent(t *testing.T) {
	shape := func() []obs.ChromeEvent {
		return pipelineTelemetry(t, 4)
	}
	want := shape()
	for trial := 0; trial < 3; trial++ {
		got := shape()
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d events, want %d", trial, len(got), len(want))
		}
		for i := range got {
			g, w := got[i], want[i]
			if g.Name != w.Name || g.TID != w.TID || g.Ph != w.Ph ||
				g.Args["id"] != w.Args["id"] || g.Args["parent"] != w.Args["parent"] {
				t.Fatalf("trial %d event %d: got %+v want %+v", trial, i, g, w)
			}
		}
	}
}

// TestReportEmbedsMetrics checks the stage metrics every report embeds, its
// ledger: what each row counts, against the report fields and analysis
// results that count the same things, on a clean run and on one that stopped
// at unmatched MPI calls.
func TestReportEmbedsMetrics(t *testing.T) {
	a, err := Analyze(runTraced(t, 2, fig2Program), AlgoVectorClock, AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := a.Verify(Options{Model: semantics.POSIXModel()})
	if err != nil {
		t.Fatal(err)
	}
	l := rep.Ledger
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"read out", l.Read.Out, int64(rep.Records)},
		{"detect in", l.Detect.In, int64(len(a.Conflicts.Ops))},
		{"detect out", l.Detect.Out, rep.ConflictPairs},
		{"detect bytes", l.Detect.Bytes, a.Conflicts.ScratchBytes},
		{"match out", l.Match.Out, int64(len(a.Match.Edges))},
		{"graph out", l.Graph.Out, int64(rep.GraphNodes)},
		{"oracle in", l.Oracle.In, int64(rep.SkeletonNodes)},
		{"oracle bytes", l.Oracle.Bytes, int64(a.Oracle.(*hbgraph.VCOracle).ArenaBytes())},
		{"verify in", l.Verify.In, rep.ConflictPairs},
		{"verify out", l.Verify.Out, rep.ChecksPerformed},
	} {
		if c.got != c.want || c.want <= 0 {
			t.Errorf("ledger %s = %d, want %d (> 0)", c.name, c.got, c.want)
		}
	}
	if l.Read.Bytes != 0 {
		t.Errorf("a trace in memory: read bytes = %d, want 0", l.Read.Bytes)
	}
	if a.Ledger.Verify != (Row{}) || l.Verify.Time <= 0 {
		t.Errorf("verify row: analysis %+v, report %+v; want it on the report only", a.Ledger.Verify, l.Verify)
	}

	tr := trace.New(2)
	tr.Append(trace.Record{Rank: 0, Func: "MPI_Barrier", Layer: trace.LayerMPI,
		Args: []string{"comm-world"}, Tick: 1, Ret: 2})
	aborted := verifyOne(t, tr, AlgoVectorClock, Options{Model: semantics.POSIXModel()})
	if aborted.Verified || aborted.Ledger.Verify != (Row{}) {
		t.Errorf("aborted pass: verified=%v, verify row %+v; want no verify row", aborted.Verified, aborted.Ledger.Verify)
	}
}

// TestTelemetryDoesNotChangeReport asserts instrumented and plain runs
// produce identical verification outcomes.
func TestTelemetryDoesNotChangeReport(t *testing.T) {
	tr := runTraced(t, 2, fig2Program)
	plain := verifyOne(t, tr, AlgoVectorClock, Options{Model: semantics.SessionModel()})
	oc := obs.Ctx{T: obs.NewTracer()}
	instr := verifyOne(t, tr, AlgoVectorClock, Options{Model: semantics.SessionModel(), Obs: oc})
	if plain.RaceCount != instr.RaceCount || plain.ChecksPerformed != instr.ChecksPerformed ||
		plain.ConflictPairs != instr.ConflictPairs {
		t.Errorf("telemetry changed the report: plain races=%d checks=%d, instrumented races=%d checks=%d",
			plain.RaceCount, plain.ChecksPerformed, instr.RaceCount, instr.ChecksPerformed)
	}
}
