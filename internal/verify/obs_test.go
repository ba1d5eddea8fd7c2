package verify

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"verifyio/internal/obs"
	"verifyio/internal/semantics"
	"verifyio/internal/trace"
)

// pipelineTelemetry runs the full analyze+verify pipeline on the Fig. 2
// trace with telemetry attached and returns the tracer, registry, and
// exported events.
func pipelineTelemetry(t *testing.T, workers int) (*obs.Tracer, *obs.Registry, []obs.ChromeEvent) {
	t.Helper()
	return pipelineTelemetryOn(t, runTraced(t, 2, fig2Program), workers)
}

func pipelineTelemetryOn(t *testing.T, tr *trace.Trace, workers int) (*obs.Tracer, *obs.Registry, []obs.ChromeEvent) {
	t.Helper()
	tracer := obs.NewTracer()
	reg := obs.NewRegistry()
	oc := obs.Ctx{T: tracer, R: reg}
	a, err := AnalyzeOpts(tr, AlgoVectorClock, AnalyzeOptions{Workers: workers, Obs: oc})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.VerifyAll(semantics.All(), Options{Workers: workers, Obs: oc}); err != nil {
		t.Fatal(err)
	}
	return tracer, reg, tracer.Events()
}

// TestPipelineSpansCoverAllStages asserts a telemetry-enabled run emits the
// documented span taxonomy: all five stages, with shard spans at Workers>1.
func TestPipelineSpansCoverAllStages(t *testing.T) {
	_, reg, events := pipelineTelemetry(t, 2)

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
	// Shard spans: per-rank replay and scan (2 ranks, each one batch from
	// memory), per-model verify lanes (4 models).
	if counts["replay"] != 2 {
		t.Errorf("replay shard spans = %d, want 2", counts["replay"])
	}
	if counts["scan"] != 2 {
		t.Errorf("scan shard spans = %d, want 2", counts["scan"])
	}
	if counts["verify"] != 4 {
		t.Errorf("verify model spans = %d, want 4", counts["verify"])
	}
	if err := obs.ValidateEvents(events); err != nil {
		t.Errorf("pipeline trace fails validation: %v", err)
	}

	// The metric registry must cover the documented name families.
	names := map[string]bool{}
	for _, n := range reg.Names() {
		names[n] = true
	}
	for _, n := range []string{
		"conflict.ops", "conflict.signatures", "conflict.pairs", "conflict.groups", "conflict.group_fanout",
		"match.edges", "match.collectives",
		"hbgraph.nodes", "hbgraph.sync_edges",
		"hbgraph.skeleton_nodes", "hbgraph.skeleton_levels", "hbgraph.skeleton_max_level_width",
		"hbgraph.vc_arena_bytes", "hbgraph.vc_full_arena_bytes",
		"verify.groups", "verify.checks", "verify.races",
		"verify.classes", "verify.class_hits",
		"verify.hb_queries",
		"par.analyze-ranks.tasks_submitted", "par.analyze-ranks.tasks_completed",
	} {
		if !names[n] {
			t.Errorf("metric %q missing from registry; have %v", n, reg.Names())
		}
	}
}

// TestPipelineStableMetricsDeterministic runs the pipeline twice at the same
// worker count and asserts the stable metric section exports byte-identical
// JSON — the -metrics-out acceptance contract — and that its verify.* names
// read the same at every worker count: the batches along which the verifier
// carries its class scratch, and so how many checks it evaluates and how
// many happens-before probes those cost, are the plan's, not the pool's. The
// trace has position classes spanning many chunks, so batches cut by worker
// count would show.
func TestPipelineStableMetricsDeterministic(t *testing.T) {
	tr := planTrace(4, 900)
	verifyCounters := map[int]map[string]int64{}
	for _, workers := range []int{1, 2, 7} {
		var snaps [2]*obs.Snapshot
		for i := range snaps {
			_, reg, _ := pipelineTelemetryOn(t, tr, workers)
			snaps[i] = reg.Snapshot()
			snaps[i].Volatile = obs.Section{} // timing/scheduling-valued; schema-checked elsewhere
		}
		verifyCounters[workers] = map[string]int64{}
		for name, v := range snaps[0].Stable.Counters {
			if strings.HasPrefix(name, "verify.") {
				verifyCounters[workers][name] = v
			}
		}
		var bufs [2][]byte
		for i, s := range snaps {
			b, err := json.Marshal(s) // map keys marshal sorted: equal snapshots are byte-equal
			if err != nil {
				t.Fatal(err)
			}
			bufs[i] = b
		}
		if !bytes.Equal(bufs[0], bufs[1]) {
			t.Errorf("workers=%d: stable metrics differ across runs:\n%s\nvs\n%s",
				workers, bufs[0], bufs[1])
		}
	}
	if c := verifyCounters[1]; c["verify.class_hits"] == 0 || c["verify.classes"] == 0 || c["verify.hb_queries"] == 0 {
		t.Fatalf("trace too tame: %v", c)
	}
	for _, workers := range []int{2, 7} {
		if !reflect.DeepEqual(verifyCounters[workers], verifyCounters[1]) {
			t.Errorf("verify.* counters at workers=%d: %v, at workers=1: %v",
				workers, verifyCounters[workers], verifyCounters[1])
		}
	}
}

// TestVerifyAllocationsIndependentOfOps is TestDisabledPathAllocatesNothing
// (internal/obs) one level up: with telemetry off, a pass allocates per pass
// and per worker, never per chunk or per group — no lane names and attributes
// built for spans nobody records, no per-chunk scratch. Quadrupling the ops
// of a race-free trace at a fixed number of sync points must not add
// allocations.
func TestVerifyAllocationsIndependentOfOps(t *testing.T) {
	allocs := func(ops int, model semantics.Model) (float64, int) {
		a, err := AnalyzeOpts(orderedTrace(4, ops), AlgoAuto, AnalyzeOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{Model: model, Workers: 2}
		rep, err := a.Verify(opts)
		if err != nil || rep.RaceCount != 0 || rep.ConflictPairs == 0 {
			t.Fatalf("ops=%d %s: err=%v, %d races over %d pairs; want a race-free trace with conflicts",
				ops, model.Name, err, rep.RaceCount, rep.ConflictPairs)
		}
		return testing.AllocsPerRun(10, func() { a.Verify(opts) }), len(a.queryPlan().chunks)
	}
	for _, model := range []semantics.Model{semantics.POSIXModel(), semantics.CommitModel()} {
		small, smallChunks := allocs(512, model)
		large, largeChunks := allocs(2048, model)
		if smallChunks < 4 || largeChunks < 3*smallChunks {
			t.Fatalf("chunk counts %d and %d: want several, and about four times as many", smallChunks, largeChunks)
		}
		// Which worker grows its witness sets is up to the scheduler, so a
		// handful either way is noise; one allocation per chunk is not.
		if large-small > float64(largeChunks-smallChunks)/4 {
			t.Errorf("%s: %.0f allocations per pass over %d chunks, %.0f over %d",
				model.Name, large, largeChunks, small, smallChunks)
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
		_, _, events := pipelineTelemetry(t, 4)
		return events
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

// TestReportEmbedsMetrics checks Report.Metrics carries the snapshot when a
// registry is attached and stays nil when telemetry is off.
func TestReportEmbedsMetrics(t *testing.T) {
	tr := runTraced(t, 2, fig2Program)
	a, err := Analyze(tr, AlgoVectorClock, AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := a.Verify(Options{Model: semantics.POSIXModel()})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Metrics != nil {
		t.Error("Report.Metrics set without a registry")
	}

	reg := obs.NewRegistry()
	a2, err := AnalyzeOpts(tr, AlgoVectorClock, AnalyzeOptions{Obs: obs.Ctx{R: reg}})
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := a2.Verify(Options{Model: semantics.POSIXModel(), Obs: obs.Ctx{R: reg}})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Metrics == nil {
		t.Fatal("Report.Metrics nil with a registry attached")
	}
	if rep2.Metrics.Stable.Counters["verify.checks"] == 0 {
		t.Error("embedded metrics missing verify.checks")
	}
}

// TestTelemetryDoesNotChangeReport asserts instrumented and plain runs
// produce identical verification outcomes.
func TestTelemetryDoesNotChangeReport(t *testing.T) {
	tr := runTraced(t, 2, fig2Program)
	plain := verifyOne(t, tr, AlgoAuto, Options{Model: semantics.SessionModel()})
	oc := obs.Ctx{T: obs.NewTracer(), R: obs.NewRegistry()}
	instr := verifyOne(t, tr, AlgoAuto, Options{Model: semantics.SessionModel(), Obs: oc})
	if plain.RaceCount != instr.RaceCount || plain.ChecksPerformed != instr.ChecksPerformed ||
		plain.ConflictPairs != instr.ConflictPairs {
		t.Errorf("telemetry changed the report: plain races=%d checks=%d, instrumented races=%d checks=%d",
			plain.RaceCount, plain.ChecksPerformed, instr.RaceCount, instr.ChecksPerformed)
	}
}
