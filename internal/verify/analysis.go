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

// Analysis is the model-independent part of a verification run. It keeps
// what was derived from the records, never the records: a source can be gone
// before Verify runs.
type Analysis struct {
	Conflicts *conflict.Result
	Match     *match.Result
	Oracle    hbgraph.Oracle
	// Graph is the happens-before graph Oracle is probed on.
	Graph *hbgraph.Graph
	// Ledger holds the read, detect, match, graph and oracle rows; the
	// verify row is each Report's.
	Ledger Ledger

	// counts are the per-rank record counts — the positional facts reports
	// need.
	counts []int
	// salvage is the decode salvage state of a directory analyzed with
	// AnalyzeStream (nil or clean for an intact trace).
	salvage *trace.DecodeStats
	// plan is the resolved query plan (per-op skeleton coordinates and the
	// batch plan); model independent, shared by every pass.
	plan *opPlan
	// chains holds the race detail of every signature a race has used so
	// far (see raceChain); the model passes share it.
	chainsMu sync.Mutex
	chains   map[int32]sigChain
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

// Salvage returns the decode salvage state of the directory AnalyzeStream
// read; nil for an analysis of a trace in memory.
func (a *Analysis) Salvage() *trace.DecodeStats { return a.salvage }

// AnalyzeOptions tunes Analyze.
type AnalyzeOptions struct {
	// Workers bounds the ranks read, replayed and scanned at once, and the
	// goroutines inside the cross-rank phases (the per-file sweep, the
	// clock column blocks); with Workers != 1 conflict detection's
	// cross-rank phase additionally runs concurrently with matching's and
	// the oracle build behind it. 0 means GOMAXPROCS; 1 forces the fully
	// serial path. The analysis is identical at every worker count.
	Workers int
	// Obs carries the tracer through the whole analysis; the zero Ctx
	// disables tracing.
	Obs obs.Ctx
}

// Analyze runs steps 2 and 3 on the source and prepares the happens-before
// oracle. The rank is the unit of flow: one task per rank pulls that rank's
// record batches from the source and, on the same goroutine, steps the
// rank's conflict replay and matcher scan — records never cross a goroutine
// or outlive their batch, so memory is the source's. Then come the two
// cross-rank finish phases, the oracle build chained behind matching's, and
// the op plan, which needs both. The first five rows of the Analysis' Ledger
// time and count them; the oracle row includes the op plan.
func Analyze(src trace.Source, algo Algo, opts AnalyzeOptions) (*Analysis, error) {
	workers := par.Resolve(opts.Workers)
	oc, span := opts.Obs.Start("analyze", obs.Int("workers", workers))
	span.SetCat("analyze")
	defer span.End()
	a := &Analysis{}

	nranks := src.NumRanks()
	a.counts = make([]int, nranks)
	det, mat := conflict.NewDetector(nranks), match.NewMatcher(nranks)
	type rankTimes struct{ read, replay, scan time.Duration }
	times := make([]rankTimes, nranks)
	errs := make([]error, nranks)
	par.Do(workers, nranks, func(rank int) {
		lane, attr := "rank-"+strconv.Itoa(rank), obs.Int("rank", rank)
		t := &times[rank]
		last := time.Now()
		errs[rank] = src.ReadRank(rank, func(recs []trace.Record) {
			a.counts[rank] += len(recs)
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
		a.Ledger.Read.Time += times[rank].read
		a.Ledger.Detect.Time += times[rank].replay
		a.Ledger.Match.Time += times[rank].scan
	}

	// The finish phases share nothing, so they can overlap; the graph and
	// oracle need only the rank counts and the match edges, so they follow
	// the match finish in its task. The errors keep the serial order.
	var confErr, oracleErr error
	par.Do(workers, 2, func(i int) {
		start := time.Now()
		if i == 0 {
			a.Conflicts, confErr = det.Finish(conflict.Options{Workers: opts.Workers, Obs: oc})
			a.Ledger.Detect.Time += time.Since(start)
			return
		}
		a.Match = mat.Finish(match.Options{Workers: opts.Workers, Obs: oc})
		a.Ledger.Match.Time += time.Since(start)
		oracleErr = a.buildOracle(algo, opts.Workers, oc)
	})
	if confErr != nil {
		return nil, fmt.Errorf("verify: conflict detection: %w", confErr)
	}
	if oracleErr != nil {
		return nil, oracleErr
	}
	start := time.Now()
	a.plan = newOpPlan(a)
	a.Ledger.Oracle.Time += time.Since(start)
	a.Ledger.Read.Out = int64(a.NumRecords())
	a.Ledger.Detect.In = int64(len(a.Conflicts.Ops))
	a.Ledger.Detect.Out = a.Conflicts.Pairs
	a.Ledger.Detect.Bytes = a.Conflicts.ScratchBytes
	a.Ledger.Match.Out = int64(len(a.Match.Edges))
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
// size, and the Analysis carries the directory's salvage state and, in its
// read row's Bytes, the most decoded record bytes resident at once.
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
	a.Ledger.Read.Bytes = d.PeakResidentBytes()
	return a, nil
}

// buildOracle builds the happens-before graph and then the oracle, for an
// analysis whose Match and counts are already set; Conflicts may still be in
// the making. Only positional facts (the per-rank counts) are consumed, never
// the records.
func (a *Analysis) buildOracle(algo Algo, workers int, oc obs.Ctx) error {
	start := time.Now()
	_, buildSpan := oc.Start("build-graph")
	g, err := hbgraph.BuildCounts(a.counts, a.Match.Edges)
	if err != nil {
		buildSpan.End()
		return fmt.Errorf("verify: happens-before graph: %w", err)
	}
	a.Graph = g
	a.Ledger.Graph = Row{Time: time.Since(start), Out: int64(g.Nodes())}
	buildSpan.AddAttr(obs.Int("nodes", g.Nodes()), obs.Int("sync_edges", g.SyncEdges()),
		obs.Int("skeleton_nodes", g.SkeletonNodes()))
	buildSpan.End()

	start = time.Now()
	a.Ledger.Oracle.In = int64(g.SkeletonNodes())
	defer func() { a.Ledger.Oracle.Time = time.Since(start) }()
	switch algo {
	case AlgoVectorClock:
		_, vcSpan := oc.Start("vector-clocks",
			obs.Int("skeleton_nodes", g.SkeletonNodes()),
			obs.Int("levels", g.SkeletonLevels()))
		vc, err := g.VectorClocksOpts(hbgraph.VCOptions{Workers: workers})
		vcSpan.End()
		if err != nil {
			return fmt.Errorf("verify: vector clocks: %w", err)
		}
		a.Oracle = vc
		a.Ledger.Oracle.Bytes = int64(vc.ArenaBytes())
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
		a.Ledger.Oracle.Bytes = int64(seg.ArenaBytes())
	default:
		return fmt.Errorf("verify: unsupported algorithm %v", algo)
	}
	return nil
}
