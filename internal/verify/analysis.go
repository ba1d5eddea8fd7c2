// Package verify implements step 4 of the VerifyIO workflow: deciding
// whether every detected conflict is properly synchronized (Def. 6) under a
// chosen consistency model, and reporting data races (Def. 7) with full call
// chains.
//
// The expensive, model-independent work — conflict detection, MPI matching,
// happens-before construction — is factored into Analyze, so one Analysis
// can be verified against all four models (how the evaluation produces one
// Fig. 4 row across four columns from a single trace).
package verify

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"verifyio/internal/conflict"
	"verifyio/internal/hbgraph"
	"verifyio/internal/match"
	"verifyio/internal/obs"
	"verifyio/internal/par"
	"verifyio/internal/trace"
)

// Algo selects the happens-before algorithm (§IV-D).
type Algo int

// Algorithms.
const (
	// AlgoVectorClock builds skeleton vector clocks (§IV-D1): the one
	// production oracle.
	AlgoVectorClock Algo = iota
	// AlgoReachability and AlgoOnTheFly are plain per-query references
	// (§IV-D2, §IV-D4), kept for the ablation and the equivalence tests.
	AlgoReachability
	AlgoOnTheFly
	// AlgoSegment precomputes the dense segment×segment reachability matrix
	// of the sync skeleton (§IV-D3's transitive closure), the third
	// reference; a skeleton whose matrix would be too large fails the
	// analysis.
	AlgoSegment
)

// AlgoAuto is an old name of AlgoVectorClock, kept only while benchmark/
// still passes it; use AlgoVectorClock.
const AlgoAuto = AlgoVectorClock

var algoNames = map[Algo]string{
	AlgoVectorClock:  "vector-clock",
	AlgoReachability: "reachability",
	AlgoOnTheFly:     "on-the-fly",
	AlgoSegment:      "segment",
}

func (a Algo) String() string {
	if s, ok := algoNames[a]; ok {
		return s
	}
	return fmt.Sprintf("algo(%d)", int(a))
}

// Timing is the per-stage breakdown Table IV reports. The first three stages
// are interleaved batch by batch inside Analyze's per-rank tasks, each of
// which reads the clock three times a batch; a stage's field sums its share
// over all ranks, so at Workers = 1 the stage fields add up to AnalyzeWall.
type Timing struct {
	// ReadTrace is the time the source took to produce the record batches
	// (and, with AnalyzeOptions.Digest, to digest them): decoding, for a
	// trace directory; next to nothing for a trace in memory, whose loader
	// may add what the load took.
	ReadTrace time.Duration
	// DetectConflicts covers step 2: the per-rank replay plus the
	// cross-rank merge and sweep.
	DetectConflicts time.Duration
	// Match covers step 3 (MPI matching): the per-rank scan plus the
	// cross-rank matching.
	Match time.Duration
	// BuildGraph covers happens-before graph construction.
	BuildGraph time.Duration
	// VectorClock covers the happens-before oracle build, whichever oracle
	// it is (rendered as "oracle="; the name is Table IV's row).
	VectorClock time.Duration
	// Verification covers the per-model conflict checking.
	Verification time.Duration

	// Wall-clock overlap fields. Every field whose name ends in "Wall"
	// measures elapsed wall time across stages that (can) run concurrently,
	// so it overlaps the per-stage durations above and MUST be excluded
	// from Total — adding one to the sum would double-report. The naming
	// convention is enforced by the reflection pin test in timing_test.go:
	// a new overlap field is excluded automatically by its suffix, and a
	// new per-stage field fails the test until Total is updated.

	// DetectMatchWall is the wall-clock time of the read/detect/match phase:
	// the per-rank tasks, then the two cross-rank finish phases. With
	// Workers != 1 the ranks run concurrently and so do the finish phases,
	// so this is less than ReadTrace + DetectConflicts + Match; serially it
	// is their sum.
	DetectMatchWall time.Duration
	// AnalyzeWall is the wall-clock time of the whole Analyze call
	// (detect + match + graph build + oracle build), the elapsed time
	// a caller observes for steps 2–3.
	AnalyzeWall time.Duration
}

// Total sums the per-stage durations. Wall-clock overlap fields
// ("Wall"-suffixed) are intentionally excluded: they re-measure spans of
// the same stages and would double-report.
func (t Timing) Total() time.Duration {
	return t.ReadTrace + t.DetectConflicts + t.Match + t.BuildGraph + t.VectorClock + t.Verification
}

// Analysis is the model-independent part of a verification run. It keeps
// what was derived from the records, never the records: a source can be gone
// before Verify runs.
type Analysis struct {
	Conflicts *conflict.Result
	Match     *match.Result
	Oracle    hbgraph.Oracle
	// Graph is the happens-before graph Oracle is probed on.
	Graph *hbgraph.Graph
	// Algorithm is the algorithm the oracle was built with.
	Algorithm Algo
	// Timing holds the stage durations accumulated so far.
	Timing Timing

	// counts are the per-rank record counts — the positional facts reports
	// and cache manifests need.
	counts []int
	// salvage is the decode salvage state of the ingested trace (nil or
	// clean for an intact trace). A salvaged analysis runs on partial
	// evidence: the verdict cache salts its epoch with the salvage extents
	// and publishes no incremental manifest (see cache.go).
	salvage *trace.DecodeStats
	// digests are the per-rank content digests the verdict cache keys on;
	// nil unless AnalyzeOptions.Digest asked for them.
	digests []rankDigest

	// cacheArt memoizes the verdict-cache digests (chunk plan, content
	// digests, sync epoch, block chains): they are model independent, so
	// the four passes of VerifyAll share one computation.
	cacheMu  sync.Mutex
	cacheArt *cacheArtifacts

	// plan memoizes the resolved query plan (per-op skeleton coordinates
	// and the chunk plan); model independent, shared by every pass.
	planMu sync.Mutex
	plan   *opPlan
}

// NumRanks returns the number of ranks analyzed.
func (a *Analysis) NumRanks() int { return len(a.counts) }

// NumRecords returns the total number of records analyzed.
func (a *Analysis) NumRecords() int {
	n := 0
	for _, c := range a.counts {
		n += c
	}
	return n
}

// Salvage returns the decode salvage state attached to this analysis; nil
// when none was recorded.
func (a *Analysis) Salvage() *trace.DecodeStats { return a.salvage }

// SetSalvage attaches the decode salvage state of the trace this analysis
// was built from. Callers that loaded a trace into memory leniently
// (tolerate mode) should pass the decode stats through so the verdict cache
// can tell a salvaged trace from its repaired original; AnalyzeStream does
// this itself.
func (a *Analysis) SetSalvage(stats *trace.DecodeStats) { a.salvage = stats }

// salvaged reports whether the analyzed trace lost records to decoding
// damage — the analysis ran on partial evidence.
func (a *Analysis) salvaged() bool {
	return a.salvage != nil && !a.salvage.Clean()
}

// AnalyzeOptions tunes Analyze.
type AnalyzeOptions struct {
	// Workers bounds the ranks read, replayed and scanned at once, and the
	// goroutines inside the cross-rank phases (the per-file sweep, the
	// oracle build); with Workers != 1 conflict detection's and matching's
	// cross-rank phases additionally run concurrently with each other. 0
	// means GOMAXPROCS; 1 forces the fully serial path. The analysis is
	// identical at every worker count.
	Workers int
	// Digest makes the pass also digest every rank's records (SHA-256 block
	// chains, unlink positions) — what a verdict cache attached at Verify
	// time (Options.Cache) identifies the trace by.
	Digest bool
	// Obs carries telemetry sinks through the whole analysis; the zero Ctx
	// disables instrumentation.
	Obs obs.Ctx
}

// Analyze runs steps 2 and 3 on the source and prepares the happens-before
// oracle. The rank is the unit of flow: one task per rank pulls that rank's
// record batches from the source and, on the same goroutine, steps the
// rank's conflict replay and matcher scan (and the cache digest, when asked
// for) — records never cross a goroutine or outlive their batch, so memory
// is the source's. Then come the two cross-rank finish phases and the oracle
// build.
func Analyze(src trace.Source, algo Algo, opts AnalyzeOptions) (*Analysis, error) {
	workers := par.Resolve(opts.Workers)
	oc, span := opts.Obs.Start("analyze", obs.Int("workers", workers))
	span.SetCat("analyze")
	defer span.End()
	a := &Analysis{}
	analyzeWall := time.Now()
	defer func() { a.Timing.AnalyzeWall = time.Since(analyzeWall) }()

	nranks := src.NumRanks()
	a.counts = make([]int, nranks)
	if opts.Digest {
		a.digests = make([]rankDigest, nranks)
	}
	det, mat := conflict.NewDetector(nranks), match.NewMatcher(nranks)
	type rankTimes struct{ read, replay, scan time.Duration }
	times := make([]rankTimes, nranks)
	errs := make([]error, nranks)
	par.DoObs(oc, "analyze-ranks", workers, nranks, func(rank int) {
		lane, attr := "rank-"+strconv.Itoa(rank), obs.Int("rank", rank)
		t := &times[rank]
		last := time.Now()
		errs[rank] = src.ReadRank(rank, func(recs []trace.Record) {
			a.counts[rank] += len(recs)
			if a.digests != nil {
				a.digests[rank].add(recs)
			}
			produced := time.Now()
			_, sp := oc.StartLane(lane, "replay", attr)
			det.Feed(rank, recs)
			sp.End()
			replayed := time.Now()
			_, sp = oc.StartLane(lane, "scan", attr)
			mat.Feed(rank, recs)
			sp.End()
			scanned := time.Now()
			t.read += produced.Sub(last)
			t.replay += replayed.Sub(produced)
			t.scan += scanned.Sub(replayed)
			last = scanned
		})
		t.read += time.Since(last)
	})
	for rank, err := range errs {
		// The lowest failing rank's error: what a serial reader meets first,
		// whichever task failed first.
		if err != nil {
			return nil, fmt.Errorf("verify: read trace: %w", err)
		}
		a.Timing.ReadTrace += times[rank].read
		a.Timing.DetectConflicts += times[rank].replay
		a.Timing.Match += times[rank].scan
	}

	// The finish phases share nothing, so they can overlap.
	var confErr, matErr error
	par.Do(workers, 2, func(i int) {
		start := time.Now()
		if i == 0 {
			a.Conflicts, confErr = det.Finish(conflict.Options{Workers: opts.Workers, Obs: oc})
			a.Timing.DetectConflicts += time.Since(start)
		} else {
			a.Match, matErr = mat.Finish(match.Options{Workers: opts.Workers, Obs: oc})
			a.Timing.Match += time.Since(start)
		}
	})
	a.Timing.DetectMatchWall = time.Since(analyzeWall)
	if confErr != nil {
		return nil, fmt.Errorf("verify: conflict detection: %w", confErr)
	}
	if matErr != nil {
		return nil, fmt.Errorf("verify: MPI matching: %w", matErr)
	}
	if err := a.buildOracle(algo, opts.Workers, oc); err != nil {
		return nil, err
	}
	return a, nil
}

// AnalyzeOpts is Analyze on a trace in memory.
func AnalyzeOpts(tr *trace.Trace, algo Algo, opts AnalyzeOptions) (*Analysis, error) {
	return Analyze(tr, algo, opts)
}

// StreamAnalyzeOptions tunes AnalyzeStream.
type StreamAnalyzeOptions struct {
	AnalyzeOptions
	// Decode passes trace decoding options through (tolerate mode, limits).
	// Its Obs field is overridden with AnalyzeOptions.Obs so the decode
	// spans join the analysis trace.
	Decode trace.DecodeOptions
	// WindowBytes bounds the decoded records resident at once — divided
	// among the ranks read concurrently — exactly as
	// trace.StreamOptions.WindowBytes: 0 means the default window, negative
	// means unbounded.
	WindowBytes int64
}

// AnalyzeStream is Analyze on a trace directory, decoded while it is
// analyzed: peak memory is bounded by the decode window instead of the trace
// size, and the Analysis carries the directory's salvage state.
func AnalyzeStream(dir string, algo Algo, opts StreamAnalyzeOptions) (*Analysis, error) {
	dopts := opts.Decode
	dopts.Obs = opts.Obs
	d, err := trace.OpenDir(dir, trace.StreamOptions{DecodeOptions: dopts, WindowBytes: opts.WindowBytes},
		par.Resolve(opts.Workers))
	if err != nil {
		return nil, fmt.Errorf("verify: read trace: %w", err)
	}
	defer d.Close()
	a, err := Analyze(d, algo, opts.AnalyzeOptions)
	if err != nil {
		return nil, err
	}
	a.salvage = d.Stats()
	return a, nil
}

// buildOracle builds the happens-before graph and then the oracle, for an
// analysis whose Conflicts, Match and counts are already set. Only positional
// facts (the per-rank counts) are consumed, never the records.
func (a *Analysis) buildOracle(algo Algo, workers int, oc obs.Ctx) error {
	start := time.Now()
	a.Algorithm = algo

	_, buildSpan := oc.Start("build-graph", obs.String("algorithm", algo.String()))
	g, err := hbgraph.BuildCounts(a.counts, a.Match.Edges)
	if err != nil {
		buildSpan.End()
		return fmt.Errorf("verify: happens-before graph: %w", err)
	}
	a.Graph = g
	a.Timing.BuildGraph = time.Since(start)
	buildSpan.AddAttr(obs.Int("nodes", g.Nodes()), obs.Int("sync_edges", g.SyncEdges()),
		obs.Int("skeleton_nodes", g.SkeletonNodes()))
	buildSpan.End()
	if r := oc.R; r != nil {
		r.Gauge("hbgraph.nodes").Set(int64(g.Nodes()))
		r.Gauge("hbgraph.sync_edges").Set(int64(g.SyncEdges()))
		r.Gauge("hbgraph.skeleton_nodes").Set(int64(g.SkeletonNodes()))
		r.Gauge("hbgraph.skeleton_levels").Set(int64(g.SkeletonLevels()))
		r.Gauge("hbgraph.skeleton_max_level_width").Set(int64(g.SkeletonMaxLevelWidth()))
	}

	start = time.Now()
	defer func() { a.Timing.VectorClock = time.Since(start) }()
	switch algo {
	case AlgoVectorClock:
		_, vcSpan := oc.Start("vector-clocks",
			obs.Int("skeleton_nodes", g.SkeletonNodes()),
			obs.Int("levels", g.SkeletonLevels()),
			obs.Int("max_level_width", g.SkeletonMaxLevelWidth()))
		vc, err := g.VectorClocksOpts(hbgraph.VCOptions{Workers: workers, Obs: oc})
		vcSpan.End()
		if err != nil {
			return fmt.Errorf("verify: vector clocks: %w", err)
		}
		a.Oracle = vc
	case AlgoReachability:
		a.Oracle = g.Reachability()
	case AlgoOnTheFly:
		a.Oracle = hbgraph.NewOnTheFlyCounts(a.counts, a.Match.Edges)
	case AlgoSegment:
		seg, err := g.SegReachability(hbgraph.SegOptions{})
		if err != nil {
			return fmt.Errorf("verify: segment reachability: %w", err)
		}
		a.Oracle = seg
	default:
		return fmt.Errorf("verify: unsupported algorithm %v", algo)
	}
	return nil
}
