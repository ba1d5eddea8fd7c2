// Command bench measures the analysis front-end (steps 2–4): it runs
// Analyze + a four-model verification pass over every scaling-corpus trace
// at workers ∈ {1, GOMAXPROCS} and writes the results — ns/op, allocs/op,
// bytes/op, and the per-stage timing breakdown — as JSON. The committed
// BENCH_analyze.json at the repository root is this command's output; CI
// regenerates and validates it with -benchtime 1x on every push.
//
// Usage:
//
//	bench [-out BENCH_analyze.json] [-benchtime 5x|2s] [-check FILE]
//	bench -compare NEW -baseline OLD [-max-overhead PCT]
//	bench -stream-smoke [-stream-records N] [-window BYTES] [-metrics-out FILE]
//
// -stream-smoke is the bounded-memory ingestion cell: it stages a synthetic
// trace directory of -stream-records records (default 10M) one rank at a
// time, stream-decodes it with the given -window, and reports decode
// throughput plus the decode.peak_resident_bytes high-water mark in the
// -metrics-out snapshot. Each decoded batch is also fed to a dfg.Builder
// before it is released, so the snapshot carries the dfg.* gauges and the
// peak-resident gate covers directly-follows-graph construction too. CI
// gates that gauge with obscheck -assert-le: peak resident decoded bytes
// must stay bounded by the window no matter how large the trace grows.
//
// -benchtime accepts either a fixed iteration count ("5x") or a minimum
// duration per (trace, workers) cell ("2s"), mirroring go test. -check
// validates an existing output file instead of benchmarking. -compare reads
// two output files and reports the mean ns/op delta of NEW relative to OLD
// across matching (trace, workers) cells, failing when it exceeds
// -max-overhead percent — the CI guard that telemetry-disabled runs stay
// within noise of the committed baseline.
//
// Every run cell also records the stable telemetry metrics of the workload
// (conflict pairs, checks performed, par pool task counts, ...) captured
// from one extra instrumented iteration that is excluded from the timing.
//
// Each trace additionally carries build-graph/vector-clock micro-cells
// (graph_runs) measuring hbgraph.Build and skeleton clock construction in
// isolation, plus the skeleton shape and clock-arena sizes; -check enforces
// that the skeleton arena never exceeds the full-graph O(records·ranks) one.
// dfg_runs cells measure directly-follows-graph construction (dfg.FromTrace)
// at the same worker counts; while measuring, bench cross-checks that the
// fleet JSON is byte-identical across worker counts, and -check enforces
// that the fleet shape (nodes, edges, anomalous ranks) agrees.
package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"verifyio/internal/conflict"
	"verifyio/internal/corpus"
	"verifyio/internal/dfg"
	"verifyio/internal/hbgraph"
	"verifyio/internal/match"
	"verifyio/internal/obs"
	"verifyio/internal/semantics"
	"verifyio/internal/trace"
	"verifyio/internal/vcache"
	"verifyio/internal/verify"
)

// Output schema. Field names are part of the artifact contract checked by
// -check and the CI smoke job.
type output struct {
	Generated  string       `json:"generated"`
	GoVersion  string       `json:"go"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	BenchTime  string       `json:"benchtime"`
	Traces     []traceBench `json:"traces"`
	// Cache holds the incremental re-verification cells (verdict cache).
	Cache *cacheBench `json:"cache,omitempty"`
	// Sweep holds the intra-file conflict-sweep cells (dense single file).
	Sweep *sweepBench `json:"sweep,omitempty"`
}

// sweepBench is the intra-file sweep workload: conflict detection in
// isolation on a dense single-shared-file trace — every rank hammering one
// file, the canonical N-to-1 HPC pattern the per-file sharding could never
// parallelize. Cells measure conflict.DetectOpts at workers 1 and
// GOMAXPROCS; bench cross-checks while measuring that the Result is
// byte-identical across worker counts, and -check enforces the fan-out,
// allocation, scratch, and speedup contracts.
type sweepBench struct {
	Ranks  int         `json:"ranks"`
	Ops    int         `json:"ops"`
	Pairs  int64       `json:"pairs"`
	Groups int         `json:"groups"`
	Cells  []sweepCell `json:"sweep_runs"`
	// DetectSpeedup is ns/op at workers=1 over ns/op at the highest worker
	// count (1.0 when GOMAXPROCS is 1).
	DetectSpeedup float64 `json:"detect_speedup"`
}

// sweepCell is one (workers) cell of the sweep workload. The telemetry
// fields come from one instrumented iteration excluded from the timing:
// Tasks is par.detect-sweep.tasks_submitted (> 1 proves the intra-file
// fan-out), Slices/CarryOps/ScratchBytes are the conflict.sweep_* gauges.
type sweepCell struct {
	Workers      int   `json:"workers"`
	Iters        int   `json:"iters"`
	NsPerOp      int64 `json:"ns_per_op"`
	AllocsPerOp  int64 `json:"allocs_per_op"`
	BytesPerOp   int64 `json:"bytes_per_op"`
	Tasks        int64 `json:"sweep_tasks"`
	Slices       int64 `json:"sweep_slices"`
	CarryOps     int64 `json:"sweep_carry_ops"`
	ScratchBytes int64 `json:"sweep_scratch_bytes"`
}

// cacheBench measures the verdict cache on an append workload: verify a
// base trace cold, re-verify it fully warm, then re-verify the same trace
// with ~1% of operations appended — the incremental case the cache exists
// for. Cells time the verification stage only (all four models, serial);
// analysis is shared and excluded. -check enforces the contract on chunk
// counts: a warm run never misses, and the append run re-verifies at most 5%
// of the plan (wall time is only a coarse bound here; the end-to-end cost
// of an append is vcache.append_ms against vcache.nocache_ms on the reverify
// workload of BENCHMARK.json).
type cacheBench struct {
	Ranks         int         `json:"ranks"`
	BaseRecords   int         `json:"base_records"`
	AppendRecords int         `json:"append_records"`
	Cells         []cacheCell `json:"cells"`
	// AppendColdRatio is verify_append1pct ns/op over verify_cold ns/op.
	AppendColdRatio float64 `json:"append_cold_ratio"`
}

// cacheCell is one verdict-cache cell: verify_cold (empty store),
// verify_warm (unchanged trace, sealed store), verify_append1pct (grown
// trace against the base run's store). Hit/miss/dirty counters are summed
// over the four model passes of one measured iteration.
type cacheCell struct {
	Name        string `json:"name"`
	Iters       int    `json:"iters"`
	NsPerOp     int64  `json:"ns_per_op"`
	Hits        int64  `json:"hits"`
	Misses      int64  `json:"misses"`
	DirtyChunks int64  `json:"dirty_chunks"`
	RaceCount   int64  `json:"race_count"`
}

type traceBench struct {
	Name    string `json:"name"`
	Ranks   int    `json:"ranks"`
	Records int    `json:"records"`
	Ops     int    `json:"ops"`
	Pairs   int64  `json:"pairs"`
	Groups  int    `json:"groups"`
	Runs    []run  `json:"runs"`
	// Speedup is ns/op at workers=1 divided by ns/op at the highest
	// worker count (1.0 when GOMAXPROCS is 1).
	Speedup float64 `json:"speedup"`

	// Sync-skeleton shape and the happens-before micro-cells. The clock
	// arena is O(SkeletonNodes·ranks); VCFullArenaBytes records what the
	// pre-skeleton O(records·ranks) layout would have allocated, so the
	// artifact carries the memory win explicitly (and -check enforces
	// arena ≤ full-arena).
	SkeletonNodes    int        `json:"skeleton_nodes"`
	SkeletonLevels   int        `json:"skeleton_levels"`
	VCArenaBytes     int64      `json:"vc_arena_bytes"`
	VCFullArenaBytes int64      `json:"vc_full_arena_bytes"`
	GraphRuns        []graphRun `json:"graph_runs"`

	// SegReachBytes is the segment-reachability matrix size (S²/8 bytes),
	// the hbgraph.segreach_bytes gauge; -check enforces it stays within the
	// default budget. QueryRuns is the cross-oracle queries/sec comparison:
	// each oracle answers the same fixed query mix on this trace's graph.
	SegReachBytes int64      `json:"segreach_bytes"`
	QueryRuns     []queryRun `json:"query_runs"`

	// DfgRuns are the directly-follows-graph construction cells
	// (dfg.FromTrace at workers 1 and GOMAXPROCS). bench cross-checks while
	// measuring that the fleet JSON is byte-identical across worker counts.
	DfgRuns []dfgRun `json:"dfg_runs"`
}

// dfgRun is one DFG construction micro-cell plus the fleet shape it
// produced; -check enforces the shape agrees across worker counts. Bytes
// are total allocations per op — the streaming peak-resident bound is gated
// separately by the -stream-smoke cell, which builds the same graphs from
// bounded decode windows.
type dfgRun struct {
	Workers        int   `json:"workers"`
	Iters          int   `json:"iters"`
	NsPerOp        int64 `json:"ns_per_op"`
	BytesPerOp     int64 `json:"bytes_per_op"`
	Nodes          int   `json:"nodes"`
	Edges          int   `json:"edges"`
	AnomalousRanks int   `json:"anomalous_ranks"`
}

// queryRun is one oracle's query micro-cell: ns per happens-before query
// over a fixed mixed (same-rank and cross-rank) query set.
type queryRun struct {
	Oracle        string  `json:"oracle"`
	Queries       int     `json:"queries"`
	Iters         int     `json:"iters"`
	NsPerQuery    float64 `json:"ns_per_query"`
	QueriesPerSec float64 `json:"queries_per_sec"`
}

// graphRun is one build-graph/vector-clock micro-cell: hbgraph.Build and
// skeleton clock construction in isolation (the end-to-end runs above
// include them inside analyze).
type graphRun struct {
	Workers       int   `json:"workers"`
	Iters         int   `json:"iters"`
	BuildNsPerOp  int64 `json:"build_ns_per_op"`
	VCNsPerOp     int64 `json:"vc_ns_per_op"`
	VCAllocsPerOp int64 `json:"vc_allocs_per_op"`
	VCBytesPerOp  int64 `json:"vc_bytes_per_op"`
}

type run struct {
	Workers     int      `json:"workers"`
	Iters       int      `json:"iters"`
	NsPerOp     int64    `json:"ns_per_op"`
	AllocsPerOp int64    `json:"allocs_per_op"`
	BytesPerOp  int64    `json:"bytes_per_op"`
	Stages      stagesNs `json:"stages_ns"`
	RaceCount   int64    `json:"race_count"`
	// Metrics is the stable telemetry section of one instrumented iteration
	// of this cell (deterministic at a fixed worker count; the timed
	// iterations above run with telemetry disabled).
	Metrics *obs.Section `json:"metrics,omitempty"`
}

// stagesNs is the Timing breakdown of the last iteration, in nanoseconds.
type stagesNs struct {
	Detect          int64 `json:"detect"`
	Match           int64 `json:"match"`
	DetectMatchWall int64 `json:"detect_match_wall"`
	BuildGraph      int64 `json:"build_graph"`
	VectorClock     int64 `json:"vector_clock"`
	Verification    int64 `json:"verification"`
	Total           int64 `json:"total"`
}

func main() {
	var (
		out         = flag.String("out", "BENCH_analyze.json", "output file")
		benchtime   = flag.String("benchtime", "3x", "iterations per cell: \"Nx\" or a duration (\"2s\")")
		check       = flag.String("check", "", "validate an existing output file and exit")
		compare     = flag.String("compare", "", "output file to compare against -baseline and exit")
		baseline    = flag.String("baseline", "", "baseline output file for -compare")
		maxOverhead = flag.Float64("max-overhead", 2.0, "fail -compare when the mean ns/op overhead exceeds this percentage")

		sweepMetricsOut = flag.String("sweep-metrics-out", "", "write the sweep cell's instrumented metrics snapshot as JSON to this file (obscheck input)")

		streamSmoke   = flag.Bool("stream-smoke", false, "run the streaming-decode smoke cell instead of the full benchmark")
		streamRecords = flag.Int("stream-records", 10_000_000, "total record count for -stream-smoke")
		streamWindow  = flag.Int64("window", 0, "decode window in bytes for -stream-smoke (0 = default 4 MiB, negative = unbounded)")
		metricsOut    = flag.String("metrics-out", "", "write the -stream-smoke metrics snapshot as JSON to this file (obscheck input)")
		prof          obs.Profiling
	)
	prof.RegisterFlags(flag.CommandLine)
	flag.Parse()

	if *streamSmoke {
		if err := runStreamSmoke(*streamRecords, *streamWindow, *metricsOut); err != nil {
			fmt.Fprintf(os.Stderr, "bench: stream-smoke: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *check != "" {
		if err := checkFile(*check); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", *check, err)
			os.Exit(1)
		}
		fmt.Printf("%s: well-formed\n", *check)
		return
	}
	if *compare != "" || *baseline != "" {
		if *compare == "" || *baseline == "" {
			fmt.Fprintln(os.Stderr, "bench: -compare and -baseline must be used together")
			os.Exit(2)
		}
		if err := compareFiles(*compare, *baseline, *maxOverhead); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	stopProf, err := prof.Start(os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(2)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		}
	}()

	iters, minTime, err := parseBenchTime(*benchtime)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(2)
	}

	res := output{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		BenchTime:  *benchtime,
	}
	workerCounts := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		workerCounts = append(workerCounts, n)
	}

	for _, sc := range corpus.ScalingCorpus() {
		tr, err := sc.Gen()
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", sc.Name, err)
			os.Exit(1)
		}
		tb := traceBench{Name: sc.Name, Ranks: tr.NumRanks(), Records: tr.NumRecords()}
		var baseRaces int64 = -1
		for _, workers := range workerCounts {
			r, a, races := benchOne(tr, workers, iters, minTime)
			tb.Ops = len(a.Conflicts.Ops)
			tb.Pairs = a.Conflicts.Pairs
			tb.Groups = len(a.Conflicts.Groups)
			// The determinism contract, enforced while measuring: every
			// worker count must report the same races.
			if baseRaces == -1 {
				baseRaces = races
			} else if races != baseRaces {
				fmt.Fprintf(os.Stderr, "bench: %s: workers=%d found %d races, workers=1 found %d\n",
					sc.Name, workers, races, baseRaces)
				os.Exit(1)
			}
			tb.Runs = append(tb.Runs, r)
			fmt.Printf("%-16s workers=%-3d %12d ns/op %12d allocs/op\n",
				sc.Name, workers, r.NsPerOp, r.AllocsPerOp)
		}
		tb.Speedup = float64(tb.Runs[0].NsPerOp) / float64(tb.Runs[len(tb.Runs)-1].NsPerOp)

		// Happens-before micro-cells: Build and VectorClocks in isolation,
		// over the same matcher edges the end-to-end runs used.
		mres, err := match.MatchOpts(tr, match.Options{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: match: %v\n", sc.Name, err)
			os.Exit(1)
		}
		g, err := hbgraph.Build(tr, mres.Edges)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: build: %v\n", sc.Name, err)
			os.Exit(1)
		}
		vc, err := g.VectorClocks()
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: vector clocks: %v\n", sc.Name, err)
			os.Exit(1)
		}
		tb.SkeletonNodes = g.SkeletonNodes()
		tb.SkeletonLevels = g.SkeletonLevels()
		tb.VCArenaBytes = int64(vc.ArenaBytes())
		tb.VCFullArenaBytes = int64(4 * tr.NumRecords() * tr.NumRanks())
		for _, workers := range workerCounts {
			gr := benchGraph(tr, mres.Edges, workers, iters, minTime)
			tb.GraphRuns = append(tb.GraphRuns, gr)
			fmt.Printf("%-16s workers=%-3d %12d build-ns/op %10d vc-ns/op %8d vc-B/op (skeleton %d/%d nodes)\n",
				sc.Name, workers, gr.BuildNsPerOp, gr.VCNsPerOp, gr.VCBytesPerOp,
				tb.SkeletonNodes, tb.Records)
		}
		qrs, segBytes, err := benchQueries(tr, g, mres.Edges, iters, minTime)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: queries: %v\n", sc.Name, err)
			os.Exit(1)
		}
		tb.QueryRuns = qrs
		tb.SegReachBytes = segBytes
		for _, qr := range qrs {
			fmt.Printf("%-16s oracle=%-18s %8.1f ns/query %14.0f queries/s\n",
				sc.Name, qr.Oracle, qr.NsPerQuery, qr.QueriesPerSec)
		}

		// DFG cells, with the worker-count determinism contract enforced
		// while measuring: the fleet JSON must be byte-identical.
		var dfgJSON []byte
		for _, workers := range workerCounts {
			dr, js := benchDFG(tr, workers, iters, minTime)
			if dfgJSON == nil {
				dfgJSON = js
			} else if !bytes.Equal(js, dfgJSON) {
				fmt.Fprintf(os.Stderr, "bench: %s: dfg JSON at workers=%d differs from workers=1\n",
					sc.Name, workers)
				os.Exit(1)
			}
			tb.DfgRuns = append(tb.DfgRuns, dr)
			fmt.Printf("%-16s workers=%-3d %12d dfg-ns/op %12d dfg-B/op (%d nodes, %d edges, %d anomalous)\n",
				sc.Name, workers, dr.NsPerOp, dr.BytesPerOp, dr.Nodes, dr.Edges, dr.AnomalousRanks)
		}
		res.Traces = append(res.Traces, tb)
	}

	cb, err := benchCache(iters, minTime)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: cache: %v\n", err)
		os.Exit(1)
	}
	res.Cache = cb

	swb, err := benchSweep(iters, minTime, *sweepMetricsOut)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: sweep: %v\n", err)
		os.Exit(1)
	}
	res.Sweep = swb

	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", *out)
}

// benchOne measures Analyze + a four-model verify pass at one worker count.
func benchOne(tr *trace.Trace, workers, iters int, minTime time.Duration) (run, *verify.Analysis, int64) {
	var (
		lastA     *verify.Analysis
		races     int64
		elapsed   time.Duration
		done      int
		allocs    uint64
		bytes     uint64
		memBefore runtime.MemStats
		memAfter  runtime.MemStats
	)
	runtime.GC()
	runtime.ReadMemStats(&memBefore)
	for done = 0; done < iters || elapsed < minTime; done++ {
		start := time.Now()
		a, err := verify.AnalyzeOpts(tr, verify.AlgoVectorClock, verify.AnalyzeOptions{Workers: workers})
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: analyze: %v\n", err)
			os.Exit(1)
		}
		races = 0
		for _, m := range semantics.All() {
			rep, err := a.Verify(verify.Options{Model: m, Workers: workers, ContinueOnUnmatched: true})
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: verify: %v\n", err)
				os.Exit(1)
			}
			races += rep.RaceCount
			a.Timing.Verification += rep.Timing.Verification
		}
		elapsed += time.Since(start)
		lastA = a
	}
	runtime.ReadMemStats(&memAfter)
	allocs = memAfter.Mallocs - memBefore.Mallocs
	bytes = memAfter.TotalAlloc - memBefore.TotalAlloc

	// One extra instrumented iteration, outside the timed window, captures
	// the cell's stable telemetry metrics (the timed loop above runs with
	// telemetry disabled so the artifact measures the uninstrumented path).
	reg := obs.NewRegistry()
	oc := obs.Ctx{R: reg}
	if a, err := verify.AnalyzeOpts(tr, verify.AlgoVectorClock, verify.AnalyzeOptions{Workers: workers, Obs: oc}); err == nil {
		for _, m := range semantics.All() {
			if _, err := a.Verify(verify.Options{Model: m, Workers: workers, ContinueOnUnmatched: true, Obs: oc}); err != nil {
				fmt.Fprintf(os.Stderr, "bench: instrumented verify: %v\n", err)
				os.Exit(1)
			}
		}
	} else {
		fmt.Fprintf(os.Stderr, "bench: instrumented analyze: %v\n", err)
		os.Exit(1)
	}
	metrics := reg.Snapshot().Stable

	t := lastA.Timing
	return run{
		Workers:     workers,
		Iters:       done,
		NsPerOp:     elapsed.Nanoseconds() / int64(done),
		AllocsPerOp: int64(allocs) / int64(done),
		BytesPerOp:  int64(bytes) / int64(done),
		RaceCount:   races,
		Metrics:     &metrics,
		Stages: stagesNs{
			Detect:          t.DetectConflicts.Nanoseconds(),
			Match:           t.Match.Nanoseconds(),
			DetectMatchWall: t.DetectMatchWall.Nanoseconds(),
			BuildGraph:      t.BuildGraph.Nanoseconds(),
			VectorClock:     t.VectorClock.Nanoseconds(),
			Verification:    t.Verification.Nanoseconds(),
			Total:           t.Total().Nanoseconds(),
		},
	}, lastA, races
}

// benchGraph measures hbgraph.Build and skeleton vector-clock construction
// in isolation at one worker count. Allocation stats cover the clock pass
// only — the cell whose O(V·P) → O(S·P) reduction the artifact tracks.
func benchGraph(tr *trace.Trace, edges []match.Edge, workers, iters int, minTime time.Duration) graphRun {
	var (
		g        *hbgraph.Graph
		err      error
		elapsed  time.Duration
		done     int
		memStart runtime.MemStats
		memEnd   runtime.MemStats
	)
	for done = 0; done < iters || elapsed < minTime; done++ {
		start := time.Now()
		g, err = hbgraph.Build(tr, edges)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: build: %v\n", err)
			os.Exit(1)
		}
		elapsed += time.Since(start)
	}
	buildNs := elapsed.Nanoseconds() / int64(done)

	runtime.GC()
	runtime.ReadMemStats(&memStart)
	elapsed = 0
	for done = 0; done < iters || elapsed < minTime; done++ {
		start := time.Now()
		if _, err := g.VectorClocksOpts(hbgraph.VCOptions{Workers: workers}); err != nil {
			fmt.Fprintf(os.Stderr, "bench: vector clocks: %v\n", err)
			os.Exit(1)
		}
		elapsed += time.Since(start)
	}
	runtime.ReadMemStats(&memEnd)
	return graphRun{
		Workers:       workers,
		Iters:         done,
		BuildNsPerOp:  buildNs,
		VCNsPerOp:     elapsed.Nanoseconds() / int64(done),
		VCAllocsPerOp: int64(memEnd.Mallocs-memStart.Mallocs) / int64(done),
		VCBytesPerOp:  int64(memEnd.TotalAlloc-memStart.TotalAlloc) / int64(done),
	}
}

// benchQueryCount is the fixed query-set size of the cross-oracle cells: a
// deterministic mix of same-rank and cross-rank happens-before queries.
const benchQueryCount = 4096

// benchQueries measures per-query cost for every oracle over one shared
// query set on the trace's graph, cross-checking while measuring that all
// oracles answer identically. It returns the cells plus the size of the
// segment-reachability matrix (the hbgraph.segreach_bytes gauge).
func benchQueries(tr *trace.Trace, g *hbgraph.Graph, edges []match.Edge, iters int, minTime time.Duration) ([]queryRun, int64, error) {
	vc, err := g.VectorClocks()
	if err != nil {
		return nil, 0, err
	}
	seg, err := g.SegReachability(hbgraph.SegOptions{})
	if err != nil {
		return nil, 0, err
	}
	oracles := []hbgraph.Oracle{vc, g.Reachability(), seg, hbgraph.NewOnTheFly(tr, edges)}

	rng := rand.New(rand.NewSource(17))
	nranks := tr.NumRanks()
	queries := make([][2]trace.Ref, benchQueryCount)
	for i := range queries {
		r1, r2 := rng.Intn(nranks), rng.Intn(nranks)
		queries[i] = [2]trace.Ref{
			{Rank: r1, Seq: rng.Intn(len(tr.Ranks[r1]))},
			{Rank: r2, Seq: rng.Intn(len(tr.Ranks[r2]))},
		}
	}

	var cells []queryRun
	var want []bool
	for _, o := range oracles {
		got := make([]bool, len(queries))
		var elapsed time.Duration
		var done int
		for done = 0; done < iters || elapsed < minTime; done++ {
			start := time.Now()
			for q, pair := range queries {
				got[q] = o.HB(pair[0], pair[1])
			}
			elapsed += time.Since(start)
		}
		if want == nil {
			want = append(want, got...)
		} else {
			for q := range queries {
				if got[q] != want[q] {
					return nil, 0, fmt.Errorf("oracle %s disagrees on query %d", o.Name(), q)
				}
			}
		}
		total := done * len(queries)
		nsq := float64(elapsed.Nanoseconds()) / float64(total)
		cell := queryRun{
			Oracle:     o.Name(),
			Queries:    len(queries),
			Iters:      done,
			NsPerQuery: nsq,
		}
		if elapsed > 0 {
			cell.QueriesPerSec = float64(total) / elapsed.Seconds()
		}
		cells = append(cells, cell)
	}
	return cells, int64(seg.ArenaBytes()), nil
}

// benchDFG measures directly-follows-graph construction (dfg.FromTrace) in
// isolation at one worker count and returns the cell plus the fleet's JSON
// encoding, which the caller compares across worker counts.
func benchDFG(tr *trace.Trace, workers, iters int, minTime time.Duration) (dfgRun, []byte) {
	var (
		fleet    *dfg.Fleet
		elapsed  time.Duration
		done     int
		memStart runtime.MemStats
		memEnd   runtime.MemStats
	)
	runtime.GC()
	runtime.ReadMemStats(&memStart)
	for done = 0; done < iters || elapsed < minTime; done++ {
		start := time.Now()
		fleet = dfg.FromTrace(tr, dfg.Options{Workers: workers})
		elapsed += time.Since(start)
	}
	runtime.ReadMemStats(&memEnd)

	var buf bytes.Buffer
	if err := fleet.WriteJSON(&buf); err != nil {
		fmt.Fprintf(os.Stderr, "bench: dfg encode: %v\n", err)
		os.Exit(1)
	}
	return dfgRun{
		Workers:        workers,
		Iters:          done,
		NsPerOp:        elapsed.Nanoseconds() / int64(done),
		BytesPerOp:     int64(memEnd.TotalAlloc-memStart.TotalAlloc) / int64(done),
		Nodes:          fleet.Nodes,
		Edges:          fleet.Edges,
		AnomalousRanks: len(fleet.AnomalousRanks),
	}, buf.Bytes()
}

// Cache-cell workload geometry. ops is chosen so the per-rank record count
// shared by the base and appended traces (2 + ops + 2·⌊ops/64⌋ = 8192) is an
// exact multiple of the digest block (trace.DigestBlock = 64): the manifest's
// block-granular cuts then land precisely at the append point and the whole
// base prefix is certifiable as stable. extra = 80 ≈ 1% of ops.
const (
	cacheRanks  = 8
	cacheOps    = 7942
	cacheExtra  = 80
	cacheWindow = int64(1 << 18)
	cacheSeed   = int64(7)
	cacheID     = "bench/scaling-append"
)

// verdictsMatch compares what a verification pass concluded — the contract
// the cache must preserve bit for bit.
func verdictsMatch(a, b []*verify.Report) error {
	if len(a) != len(b) {
		return fmt.Errorf("report count %d vs %d", len(a), len(b))
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Model != y.Model || x.RaceCount != y.RaceCount || x.ChecksPerformed != y.ChecksPerformed {
			return fmt.Errorf("%s: races %d/%d, checks %d/%d",
				x.Model, x.RaceCount, y.RaceCount, x.ChecksPerformed, y.ChecksPerformed)
		}
		if len(x.Races) != len(y.Races) {
			return fmt.Errorf("%s: %d vs %d race details", x.Model, len(x.Races), len(y.Races))
		}
		for j := range x.Races {
			if x.Races[j].X.Ref != y.Races[j].X.Ref || x.Races[j].Y.Ref != y.Races[j].Y.Ref {
				return fmt.Errorf("%s: race %d (%v,%v) vs (%v,%v)", x.Model, j,
					x.Races[j].X.Ref, x.Races[j].Y.Ref, y.Races[j].X.Ref, y.Races[j].Y.Ref)
			}
		}
	}
	return nil
}

// cachePass verifies all four models serially against one store, returning
// the verification wall time and the pass's reports.
func cachePass(a *verify.Analysis, store *vcache.Store) (time.Duration, []*verify.Report, error) {
	var reps []*verify.Report
	start := time.Now()
	for _, m := range semantics.All() {
		rep, err := a.Verify(verify.Options{
			Model: m, Workers: 1, ContinueOnUnmatched: true,
			Cache: store, CacheID: cacheID,
		})
		if err != nil {
			return 0, nil, err
		}
		reps = append(reps, rep)
	}
	return time.Since(start), reps, nil
}

// cellStats folds one pass's per-model cache counters into the cell.
func cellStats(c *cacheCell, reps []*verify.Report) {
	c.Hits, c.Misses, c.DirtyChunks, c.RaceCount = 0, 0, 0, 0
	for _, rep := range reps {
		c.Hits += rep.Cache.Hits
		c.Misses += rep.Cache.Misses
		c.DirtyChunks += rep.Cache.DirtyChunks
		c.RaceCount += rep.RaceCount
	}
}

// benchCache measures the three verdict-cache cells and cross-checks, while
// measuring, that cached verdicts are identical to cacheless ones.
func benchCache(iters int, minTime time.Duration) (*cacheBench, error) {
	base := corpus.ScalingTrace(cacheRanks, cacheOps, cacheWindow, cacheSeed)
	app := corpus.ScalingTraceAppend(cacheRanks, cacheOps, cacheExtra, cacheWindow, cacheSeed)
	analyze := func(tr *trace.Trace) (*verify.Analysis, error) {
		return verify.AnalyzeOpts(tr, verify.AlgoVectorClock, verify.AnalyzeOptions{Workers: 1})
	}
	baseA, err := analyze(base)
	if err != nil {
		return nil, err
	}
	appA, err := analyze(app)
	if err != nil {
		return nil, err
	}
	// Cacheless baselines: the verdicts every cached cell must reproduce.
	_, baseWant, err := cachePass(baseA, vcache.NewMemory())
	if err != nil {
		return nil, err
	}
	_, appWant, err := cachePass(appA, vcache.NewMemory())
	if err != nil {
		return nil, err
	}

	cb := &cacheBench{
		Ranks:         cacheRanks,
		BaseRecords:   base.NumRecords(),
		AppendRecords: app.NumRecords(),
	}

	// verify_cold: empty store every iteration.
	cold := cacheCell{Name: "verify_cold"}
	var elapsed time.Duration
	for cold.Iters = 0; cold.Iters < iters || elapsed < minTime; cold.Iters++ {
		d, reps, err := cachePass(baseA, vcache.NewMemory())
		if err != nil {
			return nil, err
		}
		if err := verdictsMatch(reps, baseWant); err != nil {
			return nil, fmt.Errorf("cold pass verdicts differ from cacheless: %w", err)
		}
		cellStats(&cold, reps)
		elapsed += d
	}
	cold.NsPerOp = elapsed.Nanoseconds() / int64(cold.Iters)
	cb.Cells = append(cb.Cells, cold)

	// verify_warm: one store sealed by an unmeasured cold pass, then
	// re-verified; every chunk must hit.
	warmStore := vcache.NewMemory()
	if _, _, err := cachePass(baseA, warmStore); err != nil {
		return nil, err
	}
	warm := cacheCell{Name: "verify_warm"}
	elapsed = 0
	for warm.Iters = 0; warm.Iters < iters || elapsed < minTime; warm.Iters++ {
		d, reps, err := cachePass(baseA, warmStore)
		if err != nil {
			return nil, err
		}
		if err := verdictsMatch(reps, baseWant); err != nil {
			return nil, fmt.Errorf("warm pass verdicts differ from cacheless: %w", err)
		}
		cellStats(&warm, reps)
		elapsed += d
	}
	warm.NsPerOp = elapsed.Nanoseconds() / int64(warm.Iters)
	if warm.Misses != 0 {
		return nil, fmt.Errorf("warm pass missed %d chunks on an unchanged trace", warm.Misses)
	}
	cb.Cells = append(cb.Cells, warm)

	// verify_append1pct: each iteration seeds a fresh store with the base
	// trace (unmeasured), then measures re-verifying the appended trace —
	// the dirtiness pass promotes the stable prefix and recomputes only the
	// chunks the append touched.
	appc := cacheCell{Name: "verify_append1pct"}
	elapsed = 0
	for appc.Iters = 0; appc.Iters < iters || elapsed < minTime; appc.Iters++ {
		store := vcache.NewMemory()
		if _, _, err := cachePass(baseA, store); err != nil {
			return nil, err
		}
		d, reps, err := cachePass(appA, store)
		if err != nil {
			return nil, err
		}
		if err := verdictsMatch(reps, appWant); err != nil {
			return nil, fmt.Errorf("incremental append verdicts differ from cacheless: %w", err)
		}
		cellStats(&appc, reps)
		elapsed += d
	}
	appc.NsPerOp = elapsed.Nanoseconds() / int64(appc.Iters)
	if appc.Hits == 0 {
		return nil, fmt.Errorf("append pass promoted no chunks — the stable prefix was not certified")
	}
	cb.Cells = append(cb.Cells, appc)

	// Guard the denominator: on a machine (or clock) fast enough that the
	// cold pass measures as zero, a plain division would poison the artifact
	// with +Inf — which json.Marshal rejects, failing the whole run. Record
	// the ratio as 0 ("not measurable") instead; -check treats that pairing
	// as n/a rather than a contract violation.
	if cold.NsPerOp > 0 {
		cb.AppendColdRatio = float64(appc.NsPerOp) / float64(cold.NsPerOp)
	}
	for _, c := range cb.Cells {
		fmt.Printf("%-18s workers=1   %12d ns/op  %6d hits %6d misses %5d dirty\n",
			c.Name, c.NsPerOp, c.Hits, c.Misses, c.DirtyChunks)
	}
	if cold.NsPerOp > 0 {
		fmt.Printf("append/cold ratio: %.4f\n", cb.AppendColdRatio)
	} else {
		fmt.Printf("append/cold ratio: n/a (cold pass too fast to time)\n")
	}
	return cb, nil
}

// Sweep-cell workload and gate constants. The trace is every rank hammering
// one shared file — the N-to-1 pattern the per-file sharding could never
// split — dense enough (window 8 KiB, 16 K ops) that the interval sweep
// dominates the detect stage.
const (
	sweepRanks  = 8
	sweepOps    = 2048
	sweepWindow = int64(1 << 13)
	sweepSeed   = int64(99)
	// sweepAllocCeiling gates detect-stage allocs/op on the sweep cell:
	// measured ~290 at workers=1 with the pair-free counting build (down
	// from ~356 with the pairRec sort path). The ceiling leaves room for
	// pool goroutines at higher worker counts without readmitting a
	// per-pair or per-group allocation pattern.
	sweepAllocCeiling = 700
	// sweepScratchPerPair bounds transient sweep bytes per conflicting
	// pair: the pair-free build stages ~4 bytes per directed adjacency
	// entry (8 per pair) plus O(ops) index tables, well under the ~16
	// bytes/directed pair the old materialized pair list cost.
	sweepScratchPerPair = 12
	// sweepMinSpeedup is the detect-stage workers-1-vs-N floor, enforced by
	// -check only when the artifact was generated with at least
	// sweepSpeedupCPUs CPUs (a 1-CPU artifact cannot exhibit parallelism).
	sweepMinSpeedup  = 2.0
	sweepSpeedupCPUs = 4
)

// conflictFingerprint serializes everything a conflict.Result exposes —
// ops, files, syncs, the pair count, and the full CSR group content — so
// equal fingerprints mean byte-identical detection output.
func conflictFingerprint(res *conflict.Result) ([]byte, error) {
	var buf bytes.Buffer
	w := func(vs ...int64) error {
		for _, v := range vs {
			if err := binary.Write(&buf, binary.LittleEndian, v); err != nil {
				return err
			}
		}
		return nil
	}
	if err := w(int64(len(res.Ops)), int64(len(res.Files)), int64(len(res.Syncs)),
		res.Pairs, int64(len(res.Groups)), int64(res.Skipped)); err != nil {
		return nil, err
	}
	for i := range res.Ops {
		op := &res.Ops[i]
		wr := int64(0)
		if op.Write {
			wr = 1
		}
		if err := w(int64(op.Ref.Rank), int64(op.Ref.Seq), int64(op.FID), wr, op.Start, op.End); err != nil {
			return nil, err
		}
	}
	for _, f := range res.Files {
		buf.WriteString(f)
		buf.WriteByte(0)
	}
	for i := range res.Syncs {
		sp := &res.Syncs[i]
		if err := w(int64(sp.Ref.Rank), int64(sp.Ref.Seq), int64(sp.FID)); err != nil {
			return nil, err
		}
		buf.WriteString(sp.Func)
		buf.WriteByte(0)
	}
	for i := range res.Groups {
		g := &res.Groups[i]
		if err := w(int64(g.X), int64(len(g.Ys())), int64(g.NumRuns())); err != nil {
			return nil, err
		}
		for _, y := range g.Ys() {
			if err := w(int64(y)); err != nil {
				return nil, err
			}
		}
		for k := 0; k < g.NumRuns(); k++ {
			if err := w(int64(len(g.RunAt(k)))); err != nil {
				return nil, err
			}
		}
	}
	return buf.Bytes(), nil
}

// benchSweep measures conflict detection in isolation on the dense
// single-shared-file trace at workers 1 and GOMAXPROCS, cross-checking
// while measuring that the Result is byte-identical across worker counts.
// Each cell's telemetry comes from one instrumented iteration outside the
// timed window; the last (highest worker count) cell's snapshot is written
// to metricsOut for the CI obscheck gate on sweep transient bytes.
func benchSweep(iters int, minTime time.Duration, metricsOut string) (*sweepBench, error) {
	tr := corpus.ScalingTrace(sweepRanks, sweepOps, sweepWindow, sweepSeed)
	sb := &sweepBench{Ranks: sweepRanks}
	workerCounts := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		workerCounts = append(workerCounts, n)
	}
	var wantFP []byte
	var lastReg *obs.Registry
	for _, workers := range workerCounts {
		// Warmup, doubling as the determinism cross-check input.
		res, err := conflict.DetectOpts(tr, conflict.Options{Workers: workers})
		if err != nil {
			return nil, err
		}
		fp, err := conflictFingerprint(res)
		if err != nil {
			return nil, err
		}
		if wantFP == nil {
			wantFP = fp
			sb.Ops = len(res.Ops)
			sb.Pairs = res.Pairs
			sb.Groups = len(res.Groups)
		} else if !bytes.Equal(fp, wantFP) {
			return nil, fmt.Errorf("Result at workers=%d differs from workers=1", workers)
		}

		var memBefore, memAfter runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&memBefore)
		var elapsed time.Duration
		var done int
		for done = 0; done < iters || elapsed < minTime; done++ {
			start := time.Now()
			if _, err := conflict.DetectOpts(tr, conflict.Options{Workers: workers}); err != nil {
				return nil, err
			}
			elapsed += time.Since(start)
		}
		runtime.ReadMemStats(&memAfter)

		// Instrumented iteration, excluded from the timing.
		reg := obs.NewRegistry()
		if _, err := conflict.DetectOpts(tr, conflict.Options{Workers: workers, Obs: obs.Ctx{R: reg}}); err != nil {
			return nil, err
		}
		lastReg = reg
		snap := reg.Snapshot()
		cell := sweepCell{
			Workers:      workers,
			Iters:        done,
			NsPerOp:      elapsed.Nanoseconds() / int64(done),
			AllocsPerOp:  int64(memAfter.Mallocs-memBefore.Mallocs) / int64(done),
			BytesPerOp:   int64(memAfter.TotalAlloc-memBefore.TotalAlloc) / int64(done),
			Tasks:        snap.Stable.Counters["par.detect-sweep.tasks_submitted"],
			Slices:       snap.Stable.Gauges["conflict.sweep_slices"],
			CarryOps:     snap.Stable.Gauges["conflict.sweep_carry_ops"],
			ScratchBytes: snap.Stable.Gauges["conflict.sweep_scratch_bytes"],
		}
		sb.Cells = append(sb.Cells, cell)
		fmt.Printf("%-16s workers=%-3d %12d ns/op %12d allocs/op (%d pairs, %d tasks, %d slices)\n",
			"sweep_dense1file", workers, cell.NsPerOp, cell.AllocsPerOp, sb.Pairs, cell.Tasks, cell.Slices)
	}
	first, last := sb.Cells[0], sb.Cells[len(sb.Cells)-1]
	if last.NsPerOp > 0 {
		sb.DetectSpeedup = float64(first.NsPerOp) / float64(last.NsPerOp)
	}
	if metricsOut != "" {
		if err := obs.WriteFileWith(metricsOut, func(w io.Writer) error { return lastReg.WriteMetrics(w) }); err != nil {
			return nil, fmt.Errorf("write -sweep-metrics-out: %w", err)
		}
	}
	return sb, nil
}

// runStreamSmoke stages a synthetic trace directory of at least records
// records (one rank at a time — the generator itself never holds the whole
// trace) and stream-decodes it with the given window, reporting throughput
// and the peak resident decoded bytes. The metrics snapshot written to
// metricsOut carries the decode.peak_resident_bytes and decode.window_bytes
// gauges CI gates with obscheck.
func runStreamSmoke(records int, window int64, metricsOut string) error {
	const (
		ranks  = 8
		offWin = int64(1 << 18)
		seed   = int64(7)
	)
	perRank := (records + ranks - 1) / ranks
	// Invert ScalingRankRecords(ops) ≈ ops·33/32 + 4, then nudge up to the
	// exact boundary.
	ops := (perRank - 4) * 32 / 33
	for corpus.ScalingRankRecords(ops) < perRank {
		ops++
	}
	total := ranks * corpus.ScalingRankRecords(ops)

	dir, err := os.MkdirTemp("", "bench-stream-smoke-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	stage := time.Now()
	if err := corpus.WriteScalingDir(dir, ranks, ops, offWin, seed, trace.DefaultEncodeOptions()); err != nil {
		return err
	}
	fmt.Printf("staged %d records (%d ranks × %d) in %v\n",
		total, ranks, corpus.ScalingRankRecords(ops), time.Since(stage).Round(time.Millisecond))

	reg := obs.NewRegistry()
	oc := obs.Ctx{R: reg}
	s, err := trace.OpenStream(dir, trace.StreamOptions{
		DecodeOptions: trace.DecodeOptions{Obs: oc},
		WindowBytes:   window,
	})
	if err != nil {
		return err
	}
	defer s.Close()
	// Each batch also feeds the directly-follows-graph builder before being
	// released: DFG state is O(nodes+edges) per rank, so the decoder's
	// peak-resident gauge keeps gating the whole pipeline's window bound.
	db := dfg.NewBuilder(ranks, oc)
	start := time.Now()
	decoded := 0
	for {
		b, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		decoded += len(b.Recs)
		db.Feed(b.Rank, b.Recs)
		b.Release()
	}
	if err := s.Close(); err != nil {
		return err
	}
	elapsed := time.Since(start)
	if decoded != total {
		return fmt.Errorf("decoded %d records, staged %d", decoded, total)
	}
	perSec := float64(decoded) / elapsed.Seconds()
	fmt.Printf("stream-decoded %d records in %v (%.0f records/s), peak resident %d bytes\n",
		decoded, elapsed.Round(time.Millisecond), perSec, s.PeakResidentBytes())
	fmt.Println(db.Finish().Summary())

	if err := obs.WriteFileWith(metricsOut, func(w io.Writer) error { return reg.WriteMetrics(w) }); err != nil {
		return fmt.Errorf("write -metrics-out: %w", err)
	}
	return nil
}

// parseBenchTime accepts "Nx" (fixed iterations) or a Go duration (minimum
// time per cell).
func parseBenchTime(s string) (iters int, minTime time.Duration, err error) {
	if n, ok := strings.CutSuffix(s, "x"); ok {
		v, err := strconv.Atoi(n)
		if err != nil || v < 1 {
			return 0, 0, fmt.Errorf("bad -benchtime %q", s)
		}
		return v, 0, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil || d <= 0 {
		return 0, 0, fmt.Errorf("bad -benchtime %q", s)
	}
	return 1, d, nil
}

// checkFile validates the artifact shape: parses, and requires a non-empty
// trace list where every trace has runs at workers=1 and at GOMAXPROCS
// (equal when GOMAXPROCS is 1) with positive ns/op and stage totals.
func checkFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var res output
	if err := json.Unmarshal(data, &res); err != nil {
		return fmt.Errorf("not valid JSON: %w", err)
	}
	if res.Generated == "" || res.GoVersion == "" || res.GOMAXPROCS < 1 {
		return fmt.Errorf("missing header fields")
	}
	if len(res.Traces) == 0 {
		return fmt.Errorf("no traces")
	}
	for _, tb := range res.Traces {
		if tb.Name == "" || len(tb.Runs) == 0 {
			return fmt.Errorf("trace %q has no runs", tb.Name)
		}
		if tb.Runs[0].Workers != 1 {
			return fmt.Errorf("trace %q: first run must be workers=1, got %d", tb.Name, tb.Runs[0].Workers)
		}
		for _, r := range tb.Runs {
			if r.Iters < 1 || r.NsPerOp <= 0 {
				return fmt.Errorf("trace %q workers=%d: bad iteration stats", tb.Name, r.Workers)
			}
			if r.Stages.Total <= 0 {
				return fmt.Errorf("trace %q workers=%d: missing stage breakdown", tb.Name, r.Workers)
			}
			if r.Metrics == nil {
				return fmt.Errorf("trace %q workers=%d: missing metrics snapshot", tb.Name, r.Workers)
			}
			if r.Metrics.Counters["verify.checks"] < 0 || len(r.Metrics.Counters) == 0 {
				return fmt.Errorf("trace %q workers=%d: empty metrics snapshot", tb.Name, r.Workers)
			}
		}
		if len(tb.GraphRuns) == 0 {
			return fmt.Errorf("trace %q has no graph runs", tb.Name)
		}
		if tb.GraphRuns[0].Workers != 1 {
			return fmt.Errorf("trace %q: first graph run must be workers=1, got %d", tb.Name, tb.GraphRuns[0].Workers)
		}
		for _, r := range tb.GraphRuns {
			if r.Iters < 1 || r.BuildNsPerOp <= 0 || r.VCNsPerOp <= 0 {
				return fmt.Errorf("trace %q graph workers=%d: bad iteration stats", tb.Name, r.Workers)
			}
		}
		if tb.SkeletonNodes < 1 || tb.SkeletonNodes > tb.Records {
			return fmt.Errorf("trace %q: skeleton %d nodes outside [1, %d records]", tb.Name, tb.SkeletonNodes, tb.Records)
		}
		if tb.SkeletonLevels < 1 {
			return fmt.Errorf("trace %q: missing skeleton levels", tb.Name)
		}
		if tb.VCArenaBytes <= 0 || tb.VCArenaBytes > tb.VCFullArenaBytes {
			return fmt.Errorf("trace %q: skeleton clock arena %d bytes exceeds full-graph arena %d",
				tb.Name, tb.VCArenaBytes, tb.VCFullArenaBytes)
		}
		if tb.SegReachBytes <= 0 || tb.SegReachBytes > hbgraph.DefaultSegReachBudget {
			return fmt.Errorf("trace %q: segment reachability matrix %d bytes outside (0, %d budget]",
				tb.Name, tb.SegReachBytes, hbgraph.DefaultSegReachBudget)
		}
		if len(tb.QueryRuns) < 4 {
			return fmt.Errorf("trace %q: %d query runs, want all four oracles", tb.Name, len(tb.QueryRuns))
		}
		seen := map[string]bool{}
		for _, qr := range tb.QueryRuns {
			if qr.Iters < 1 || qr.Queries < 1 || qr.NsPerQuery < 0 {
				return fmt.Errorf("trace %q oracle %q: bad query stats", tb.Name, qr.Oracle)
			}
			seen[qr.Oracle] = true
		}
		for _, name := range []string{"vector-clock", "reachability", "segment", "on-the-fly"} {
			if !seen[name] {
				return fmt.Errorf("trace %q: query cell for oracle %q missing", tb.Name, name)
			}
		}
		if len(tb.DfgRuns) == 0 {
			return fmt.Errorf("trace %q has no dfg runs", tb.Name)
		}
		if tb.DfgRuns[0].Workers != 1 {
			return fmt.Errorf("trace %q: first dfg run must be workers=1, got %d", tb.Name, tb.DfgRuns[0].Workers)
		}
		shape := tb.DfgRuns[0]
		for _, r := range tb.DfgRuns {
			if r.Iters < 1 || r.NsPerOp <= 0 {
				return fmt.Errorf("trace %q dfg workers=%d: bad iteration stats", tb.Name, r.Workers)
			}
			if r.Nodes < 1 || r.Edges < 0 || r.AnomalousRanks < 0 || r.AnomalousRanks > tb.Ranks {
				return fmt.Errorf("trace %q dfg workers=%d: fleet shape %d nodes, %d edges, %d anomalous out of range",
					tb.Name, r.Workers, r.Nodes, r.Edges, r.AnomalousRanks)
			}
			if r.Nodes != shape.Nodes || r.Edges != shape.Edges || r.AnomalousRanks != shape.AnomalousRanks {
				return fmt.Errorf("trace %q dfg workers=%d: fleet shape differs from workers=1", tb.Name, r.Workers)
			}
		}
	}
	if err := checkCache(res.Cache); err != nil {
		return err
	}
	return checkSweep(res.Sweep, res.GOMAXPROCS)
}

// checkSweep enforces the intra-file sweep contracts on the dense
// single-shared-file cell: the sweep must fan out (more than one detect-sweep
// task and more than one slice on a one-file trace), stay within the
// allocation ceiling and the per-pair scratch budget, and — when the
// artifact was generated with enough CPUs — deliver the detect-stage
// parallel speedup the sharding exists for.
func checkSweep(sb *sweepBench, gomaxprocs int) error {
	if sb == nil {
		return fmt.Errorf("missing sweep cells")
	}
	if sb.Ops <= 0 || sb.Pairs <= 0 || sb.Groups <= 0 {
		return fmt.Errorf("sweep: empty workload (ops=%d pairs=%d groups=%d)", sb.Ops, sb.Pairs, sb.Groups)
	}
	if len(sb.Cells) == 0 || sb.Cells[0].Workers != 1 {
		return fmt.Errorf("sweep: first cell must be workers=1")
	}
	for _, c := range sb.Cells {
		if c.Iters < 1 || c.NsPerOp <= 0 {
			return fmt.Errorf("sweep workers=%d: bad iteration stats", c.Workers)
		}
		if c.Tasks <= 1 {
			return fmt.Errorf("sweep workers=%d: %d detect-sweep tasks on a single shared file — intra-file sharding is not fanning out",
				c.Workers, c.Tasks)
		}
		if c.Slices <= 1 {
			return fmt.Errorf("sweep workers=%d: %d slices on a single dense file, want > 1", c.Workers, c.Slices)
		}
		if c.AllocsPerOp <= 0 || c.AllocsPerOp > sweepAllocCeiling {
			return fmt.Errorf("sweep workers=%d: %d allocs/op outside (0, %d] — a per-pair or per-group allocation pattern crept back in",
				c.Workers, c.AllocsPerOp, sweepAllocCeiling)
		}
		if c.ScratchBytes <= 0 || c.ScratchBytes > sweepScratchPerPair*sb.Pairs {
			return fmt.Errorf("sweep workers=%d: %d scratch bytes outside (0, %d·pairs=%d]",
				c.Workers, c.ScratchBytes, int64(sweepScratchPerPair), sweepScratchPerPair*sb.Pairs)
		}
	}
	if gomaxprocs >= sweepSpeedupCPUs && sb.DetectSpeedup < sweepMinSpeedup {
		return fmt.Errorf("sweep: detect-stage speedup %.2f at %d CPUs below the %.1f floor",
			sb.DetectSpeedup, gomaxprocs, sweepMinSpeedup)
	}
	return nil
}

// checkCache enforces the incremental-verification contract on the cache
// cells: all three present, a warm run never misses, a cold run never hits,
// and re-verifying after a ~1% append misses on at most 5% of the chunks
// (the end-to-end cost of an append is measured elsewhere: vcache.append_ms
// against vcache.nocache_ms on the reverify workload of BENCHMARK.json).
func checkCache(cb *cacheBench) error {
	if cb == nil {
		return fmt.Errorf("missing cache cells")
	}
	cells := map[string]cacheCell{}
	for _, c := range cb.Cells {
		// NsPerOp 0 is tolerated: a sub-nanosecond-per-iteration cell on a
		// coarse clock measures as zero, and the ratio gate below knows how
		// to treat an untimeable denominator.
		if c.Iters < 1 || c.NsPerOp < 0 {
			return fmt.Errorf("cache cell %q: bad iteration stats", c.Name)
		}
		cells[c.Name] = c
	}
	for _, name := range []string{"verify_cold", "verify_warm", "verify_append1pct"} {
		if _, ok := cells[name]; !ok {
			return fmt.Errorf("cache cell %q missing", name)
		}
	}
	cold, warm, app := cells["verify_cold"], cells["verify_warm"], cells["verify_append1pct"]
	if cold.Hits != 0 || cold.Misses == 0 {
		return fmt.Errorf("verify_cold: hits=%d misses=%d, want pure misses", cold.Hits, cold.Misses)
	}
	if warm.Misses != 0 || warm.Hits == 0 {
		return fmt.Errorf("verify_warm: hits=%d misses=%d, want pure hits", warm.Hits, warm.Misses)
	}
	if app.Hits == 0 {
		return fmt.Errorf("verify_append1pct: no promoted chunks")
	}
	if cold.RaceCount != warm.RaceCount {
		return fmt.Errorf("warm races %d != cold races %d", warm.RaceCount, cold.RaceCount)
	}
	// The precise reuse contract is on the chunk counts: a ~1% append must
	// re-verify only the dirtied tail, so the append pass's misses stay a
	// few percent of the cold pass's total chunks.
	if missRatio := float64(app.Misses) / float64(cold.Misses); missRatio > 0.05 {
		return fmt.Errorf("append re-verified %d of %d chunks (%.1f%%): a ~1%% append must dirty only ~1%% of the plan",
			app.Misses, cold.Misses, 100*missRatio)
	}
	// Wall time is only a coarse sanity bound: with the resolved query plan
	// the verification stage is no longer the dominant cost of a cold run,
	// so the append cell's fixed per-run work (decode, detect/match, graph,
	// digesting) keeps the ratio well above the ~1% chunk fraction.
	const maxRatio = 0.75
	if cold.NsPerOp == 0 {
		// The cold denominator was untimeable, so the ratio is n/a by
		// construction; the hit/miss contracts above still gated the cells.
		if cb.AppendColdRatio != 0 {
			return fmt.Errorf("append/cold ratio %.4f recorded against an untimeable cold pass; want 0 (n/a)",
				cb.AppendColdRatio)
		}
		return nil
	}
	if cb.AppendColdRatio <= 0 || cb.AppendColdRatio > maxRatio {
		return fmt.Errorf("append/cold ratio %.4f outside (0, %.2f]: an incremental re-verify must stay cheaper than a cold run",
			cb.AppendColdRatio, maxRatio)
	}
	return nil
}

// compareFiles reports the ns/op delta of newPath relative to basePath over
// every (trace, workers) cell present in both, failing when the mean
// overhead exceeds maxPct percent. Single-cell deltas are reported but not
// gated on — they are dominated by scheduling noise at small benchtimes.
func compareFiles(newPath, basePath string, maxPct float64) error {
	load := func(path string) (output, error) {
		var res output
		data, err := os.ReadFile(path)
		if err != nil {
			return res, err
		}
		if err := json.Unmarshal(data, &res); err != nil {
			return res, fmt.Errorf("%s: not valid JSON: %w", path, err)
		}
		return res, nil
	}
	newRes, err := load(newPath)
	if err != nil {
		return err
	}
	baseRes, err := load(basePath)
	if err != nil {
		return err
	}
	type cell struct {
		name    string
		workers int
	}
	base := map[cell]int64{}
	for _, tb := range baseRes.Traces {
		for _, r := range tb.Runs {
			base[cell{tb.Name, r.Workers}] = r.NsPerOp
		}
	}
	var sum float64
	var n int
	fmt.Printf("%-16s %-8s %14s %14s %8s\n", "trace", "workers", "baseline ns/op", "new ns/op", "delta")
	for _, tb := range newRes.Traces {
		for _, r := range tb.Runs {
			old, ok := base[cell{tb.Name, r.Workers}]
			if !ok || old <= 0 {
				continue
			}
			delta := 100 * (float64(r.NsPerOp) - float64(old)) / float64(old)
			fmt.Printf("%-16s %-8d %14d %14d %+7.2f%%\n", tb.Name, r.Workers, old, r.NsPerOp, delta)
			sum += delta
			n++
		}
	}
	if n == 0 {
		return fmt.Errorf("no common (trace, workers) cells between %s and %s", newPath, basePath)
	}
	mean := sum / float64(n)
	fmt.Printf("mean overhead over %d cells: %+.2f%% (limit %.2f%%)\n", n, mean, maxPct)
	if mean > maxPct {
		return fmt.Errorf("mean overhead %+.2f%% exceeds limit %.2f%%", mean, maxPct)
	}
	return nil
}
