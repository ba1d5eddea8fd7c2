// Package verifyio is the public API of VerifyIO-Go, a from-scratch Go
// reproduction of "VerifyIO: Verifying Adherence to Parallel I/O Consistency
// Semantics" (Wang, Zhu, Mohror, Neuwirth, Snir — IPDPS 2025).
//
// VerifyIO answers the question: does this parallel program's I/O follow the
// rules of a given storage consistency model? The workflow has four steps:
//
//  1. Trace — run the program under the Recorder⁺ tracer, capturing every
//     I/O and MPI call across all library layers with full call chains.
//  2. Detect conflicts — find pairs of operations that touch overlapping
//     bytes of the same file where at least one writes.
//  3. Match MPI calls — replay the recorded MPI operations to establish the
//     happens-before order, flagging unmatched or mismatched calls.
//  4. Verify — check that every conflict is properly synchronized under the
//     chosen model (POSIX, Commit, Session, or MPI-IO), reporting data
//     races with call chains when it is not.
//
// The simulated substrates (MPI runtime, POSIX file system with pluggable
// consistency, MPI-IO with collective buffering, and HDF5 / NetCDF /
// PnetCDF subsets) live under internal/; programs written against them are
// traced exactly like real applications. The paper's 91-test evaluation
// corpus ships in internal/corpus and is runnable through this package.
//
// Quick start:
//
//	tr, _ := verifyio.RunCorpusTest("flexible")
//	reports, _ := verifyio.VerifyAll(tr, nil)
//	for _, rep := range reports {
//	    fmt.Println(rep.Summary())
//	}
package verifyio

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"verifyio/internal/corpus"
	"verifyio/internal/obs"
	"verifyio/internal/recorder"
	"verifyio/internal/semantics"
	"verifyio/internal/sim/posixfs"
	"verifyio/internal/trace"
	"verifyio/internal/verify"
)

// Telemetry collects tracing spans from a verification run. Attach one
// instance to Options across the calls of a run, then export with
// WriteChromeTrace: a Chrome trace_event JSON flamegraph (chrome://tracing,
// Perfetto). A nil *Telemetry disables tracing at near-zero cost. What each
// stage took and counted needs no Telemetry: every Report carries it in its
// Ledger.
//
// Span content is deterministic: at a fixed worker count the exported spans
// (names, attributes, track assignment, ids, nesting) are identical across
// runs; only timestamps and durations vary.
type Telemetry struct {
	tracer *obs.Tracer
}

// NewTelemetry returns an empty telemetry sink.
func NewTelemetry() *Telemetry {
	return &Telemetry{tracer: obs.NewTracer()}
}

// ctx returns the internal carrier (zero Ctx when t is nil).
func (t *Telemetry) ctx() obs.Ctx {
	if t == nil {
		return obs.Ctx{}
	}
	return obs.Ctx{T: t.tracer}
}

// WriteChromeTrace writes the collected spans as Chrome trace_event JSON.
// Call after the instrumented run has finished.
func (t *Telemetry) WriteChromeTrace(w io.Writer) error {
	if t == nil {
		return (*obs.Tracer)(nil).WriteChromeTrace(w)
	}
	return t.tracer.WriteChromeTrace(w)
}

// Cache is an old verdict-cache handle.
//
// Deprecated: it changes nothing (every run recomputes) and is kept only
// while benchmark/ passes it.
type Cache struct{}

// OpenCache creates dir (a benchmark reads its size) and returns a Cache. It
// writes nothing into dir.
//
// Deprecated: it changes nothing and is kept only while benchmark/ calls it.
func OpenCache(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Cache{}, nil
}

// Close returns nil, also on a nil *Cache.
//
// Deprecated: it changes nothing and is kept only while benchmark/ calls it.
func (c *Cache) Close() error { return nil }

// CacheStats is an old per-pass verdict-cache count; Report.Cache is always
// nil.
//
// Deprecated: it changes nothing and is kept only while benchmark/ reads it.
type CacheStats struct {
	Hits, Misses, DirtyChunks int64
}

// Rank is the traced per-process handle programs receive under the tracer:
// it exposes the instrumented MPI and POSIX interfaces, and the simulated
// I/O libraries (internal/sim/...) build on it. See examples/ for complete
// programs.
type Rank = recorder.Rank

// Model names a consistency model.
type Model string

// The four built-in consistency models (Table I of the paper).
const (
	POSIX   Model = "posix"
	Commit  Model = "commit"
	Session Model = "session"
	MPIIO   Model = "mpi-io"
)

// Models returns the built-in models in the paper's order.
func Models() []Model { return []Model{POSIX, Commit, Session, MPIIO} }

func (m Model) resolve() (semantics.Model, error) {
	return semantics.ByName(string(m))
}

// Trace is a collected execution trace.
type Trace struct {
	t *trace.Trace
}

// NumRanks returns the number of MPI ranks in the trace.
func (t *Trace) NumRanks() int { return t.t.NumRanks() }

// NumRecords returns the total number of records.
func (t *Trace) NumRecords() int { return t.t.NumRecords() }

// Meta returns the execution metadata value for key.
func (t *Trace) Meta(key string) string { return t.t.Meta[key] }

// WriteDir stores the trace as a directory (one compressed stream per
// rank), the layout cmd/verifyio consumes.
func (t *Trace) WriteDir(dir string) error {
	return trace.WriteDir(dir, t.t, trace.DefaultEncodeOptions())
}

// ReadTraceDir loads a trace directory produced by WriteDir or
// cmd/verifyio-trace.
func ReadTraceDir(dir string) (*Trace, error) {
	tr, err := trace.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	return &Trace{t: tr}, nil
}

// ReadOptions tunes trace loading.
type ReadOptions struct {
	// Tolerate enables lenient loading: damaged or missing rank streams are
	// salvaged to their longest well-formed prefix instead of failing the
	// whole load, and the returned Recovery reports exactly what was kept and
	// lost per rank. Verifying a salvaged trace is equivalent to verifying an
	// execution that stopped where the trace breaks off — partial evidence,
	// reported honestly.
	Tolerate bool
	// WindowBytes bounds the decoded records resident at once when a
	// directory is verified as it is read (VerifyStream, VerifyAllStream): 0
	// means the default window (trace.DefaultWindowBytes), negative means
	// unbounded. Loads into memory ignore it — they hold the whole trace by
	// design, and decode its rank files on every core.
	WindowBytes int64
}

// ReadTraceDirOpts loads a trace directory with explicit options; with zero
// options it is ReadTraceDir. The Recovery is non-nil only in tolerate mode.
func ReadTraceDirOpts(dir string, opts ReadOptions) (*Trace, *Recovery, error) {
	tr, stats, err := trace.ReadDirWithOptions(dir, trace.DecodeOptions{Tolerate: opts.Tolerate})
	if err != nil {
		return nil, nil, err
	}
	if !opts.Tolerate {
		return &Trace{t: tr}, nil, nil
	}
	return &Trace{t: tr}, recoveryFromStats(stats), nil
}

// recoveryFromStats converts internal decode salvage stats to the public
// Recovery form (non-nil, possibly with an empty Ranks slice).
func recoveryFromStats(stats *trace.DecodeStats) *Recovery {
	rec := &Recovery{}
	if stats == nil {
		return rec
	}
	for _, rr := range stats.Ranks {
		reason := "unknown damage"
		if rr.Err != nil {
			reason = rr.Err.Error()
		}
		rec.Ranks = append(rec.Ranks, RankRecovery{
			Rank: rr.Rank, Salvaged: rr.Salvaged, Dropped: rr.Dropped, Reason: reason,
		})
	}
	return rec
}

// RankRecovery describes what lenient loading did to one damaged rank.
type RankRecovery struct {
	// Rank is the world rank of the damaged stream.
	Rank int
	// Salvaged is the number of records recovered from the rank's
	// well-formed prefix.
	Salvaged int
	// Dropped is the number of records lost, or -1 when the stream was too
	// damaged to know how many it held.
	Dropped int
	// Reason describes the damage (the classified decode error).
	Reason string
}

// Recovery summarizes a lenient trace load: which ranks were damaged and
// what was salvaged. An empty Ranks slice means the trace was intact.
type Recovery struct {
	Ranks []RankRecovery
}

// Clean reports whether the load salvaged nothing — the trace was intact.
func (r *Recovery) Clean() bool { return r == nil || len(r.Ranks) == 0 }

// TraceProgram runs prog once per rank under the Recorder⁺ tracer, against
// a simulated file system providing the given consistency model, and
// returns the execution trace (step 1 of the workflow). Note the file
// system's runtime model is independent of the models the trace is later
// verified against: the usual setup traces on POSIX (as the paper does on
// GPFS) and verifies against all four.
func TraceProgram(ranks int, fsModel Model, prog func(r *Rank) error) (*Trace, error) {
	var mode posixfs.Mode
	switch fsModel {
	case POSIX:
		mode = posixfs.ModePOSIX
	case Commit:
		mode = posixfs.ModeCommit
	case Session:
		mode = posixfs.ModeSession
	case MPIIO:
		mode = posixfs.ModeMPIIO
	default:
		return nil, fmt.Errorf("verifyio: unknown file-system model %q", fsModel)
	}
	env := recorder.NewEnv(ranks, recorder.Options{FSMode: mode})
	if err := env.Run(prog); err != nil {
		return nil, err
	}
	return &Trace{t: env.Trace()}, nil
}

// CorpusTests lists the names of the 91 evaluation test cases (15 HDF5,
// 17 NetCDF, 59 PnetCDF).
func CorpusTests() []string { return corpus.Names() }

// RunCorpusTest executes the named corpus test under the tracer and returns
// its trace.
func RunCorpusTest(name string) (*Trace, error) {
	t, err := corpus.ByName(name)
	if err != nil {
		return nil, err
	}
	tr, err := corpus.Run(t)
	if err != nil {
		return nil, err
	}
	return &Trace{t: tr}, nil
}

// Options tunes verification.
type Options struct {
	// DisablePruning turns off the conflict-group pruning (Fig. 3).
	DisablePruning bool
	// MaxRaceDetails caps detailed race records (0 means 256; a negative
	// value keeps none); the race count itself is always exact.
	MaxRaceDetails int
	// ContinueOnUnmatched verifies even when MPI matching found problems.
	ContinueOnUnmatched bool
	// Workers is the number of goroutines used across steps 2–4: that many
	// ranks are read, replayed for conflicts and scanned for MPI calls at
	// once, the per-file conflict sweep is sharded (and runs concurrently
	// with the cross-rank matching), and verification shards the conflict
	// groups (plus running models concurrently in VerifyAll). 0 means
	// GOMAXPROCS; 1 forces the fully serial path. Results are independent
	// of the worker count.
	Workers int
	// Telemetry traces the run's stages as spans (see Telemetry). Nil
	// disables tracing; the disabled path costs near zero.
	Telemetry *Telemetry
	// Cache is ignored.
	//
	// Deprecated: it changes nothing and is kept only while benchmark/
	// sets it.
	Cache *Cache
	// CacheID is ignored.
	//
	// Deprecated: it changes nothing and is kept only while benchmark/
	// sets it.
	CacheID string
}

func (o *Options) analyzeOptions() verify.AnalyzeOptions {
	if o == nil {
		return verify.AnalyzeOptions{}
	}
	return verify.AnalyzeOptions{Workers: o.Workers, Obs: o.Telemetry.ctx()}
}

func (o *Options) verifyOptions() verify.Options {
	var vo verify.Options
	if o != nil {
		vo.DisablePruning = o.DisablePruning
		vo.MaxRaceDetails = o.MaxRaceDetails
		vo.ContinueOnUnmatched = o.ContinueOnUnmatched
		vo.Workers = o.Workers
		vo.Obs = o.Telemetry.ctx()
	}
	return vo
}

// Race is one detected data race: a conflicting operation pair that is not
// properly synchronized under the model. Call chains run from the outermost
// (application-issued) call down to the POSIX operation, which is how the
// root cause is attributed to the application or a library layer.
type Race struct {
	File           string
	FuncX, FuncY   string
	RankX, RankY   int
	StartX, EndX   int64
	StartY, EndY   int64
	ChainX, ChainY []string
	// Level classifies the originating layer ("application", "hdf5",
	// "pnetcdf", ...).
	Level string
}

// Problem is an unmatched or mismatched MPI call found during matching.
type Problem struct {
	Kind   string
	Detail string
}

// Ledger is the stage record of a verification run (Table IV): one row per
// stage — read, detect, match, graph, oracle, verify — each with the time
// summed over the stage's tasks, item counts in and out, and the most bytes
// the stage held. Each Report carries the shared analysis' five rows and its
// own model's verify row; at Workers = 1 the rows add up to the run's wall
// time. A trace already in memory was loaded before the run, so its load
// (ReadTraceDir and its variants) is in no row.
type Ledger = verify.Ledger

// Report is the outcome of verifying a trace against one model.
type Report struct {
	Model Model
	// Algorithm is the happens-before oracle that ran: "vector-clock"
	// (§IV-D1's clocks over the sync skeleton).
	Algorithm string

	ConflictPairs int64
	RaceCount     int64
	Races         []Race
	Problems      []Problem

	// Verified is false when unmatched MPI calls aborted verification.
	Verified bool
	// ProperlySynchronized reports a race-free verified execution.
	ProperlySynchronized bool

	// Ranks / Records describe the analyzed trace (streaming runs carry them
	// even though no Trace value exists).
	Ranks   int
	Records int

	// Workers is the worker count the verification stage ran with.
	Workers        int
	GraphNodes     int
	GraphSyncEdges int
	// SkeletonNodes / SkeletonLevels describe the sync skeleton the
	// happens-before oracle computed on (S ≤ GraphNodes nodes in the given
	// number of topological levels).
	SkeletonNodes  int
	SkeletonLevels int
	Ledger         Ledger

	// Cache is always nil.
	//
	// Deprecated: it is kept only while benchmark/ reads it.
	Cache *CacheStats `json:",omitempty"`

	inner *verify.Report
}

// Render writes the full human-readable report, including call chains.
func (r *Report) Render(w io.Writer) { r.inner.Render(w) }

// Summary returns a one-line summary.
func (r *Report) Summary() string { return r.inner.Summary() }

// MarshalJSON renders the report for tooling (used by `verifyio -json`).
func (r *Report) MarshalJSON() ([]byte, error) {
	type alias Report // drop methods to avoid recursion; inner is unexported
	return json.Marshal((*alias)(r))
}

func wrapReport(rep *verify.Report) *Report {
	out := &Report{
		Model:                Model(normalizeModel(rep.Model)),
		Algorithm:            rep.Algorithm,
		ConflictPairs:        rep.ConflictPairs,
		RaceCount:            rep.RaceCount,
		Verified:             rep.Verified,
		ProperlySynchronized: rep.ProperlySynchronized,
		Ranks:                rep.Ranks,
		Records:              rep.Records,
		Workers:              rep.Workers,
		GraphNodes:           rep.GraphNodes,
		GraphSyncEdges:       rep.GraphSyncEdges,
		SkeletonNodes:        rep.SkeletonNodes,
		SkeletonLevels:       rep.SkeletonLevels,
		Ledger:               rep.Ledger,
		inner:                rep,
	}
	if len(rep.Races) > 0 {
		out.Races = make([]Race, 0, len(rep.Races))
	}
	for i := range rep.Races {
		race := &rep.Races[i]
		out.Races = append(out.Races, Race{
			File:  race.File,
			FuncX: race.FuncX, FuncY: race.FuncY,
			RankX: race.X.Ref.Rank, RankY: race.Y.Ref.Rank,
			StartX: race.X.Start, EndX: race.X.End,
			StartY: race.Y.Start, EndY: race.Y.End,
			ChainX: race.ChainX, ChainY: race.ChainY,
			Level: race.Level(),
		})
	}
	for _, p := range rep.Problems {
		out.Problems = append(out.Problems, Problem{Kind: p.Kind.String(), Detail: p.Detail})
	}
	return out
}

func normalizeModel(name string) string {
	switch name {
	case "POSIX":
		return string(POSIX)
	case "Commit":
		return string(Commit)
	case "Session":
		return string(Session)
	case "MPI-IO":
		return string(MPIIO)
	}
	return name
}

// Diagnosis is the automated root-cause analysis of one race (§V): who is
// responsible and what fix the model asks for.
type Diagnosis struct {
	Race Race
	// Category is "unordered-conflict", "missing-sync-construct", or
	// "library-internal-conflict".
	Category string
	// Responsible is "application" or a library name.
	Responsible string
	// Suggestion is the model-specific remediation.
	Suggestion string
}

// Diagnose classifies every detailed race of the report: whether the
// accesses lack any ordering (application must add MPI synchronization),
// lack only the model's synchronization construct (application adds fsync /
// close-open / sync-barrier-sync), or stem from library-internal I/O the
// application cannot see (library-level fix). It is a function of the report
// alone: nothing is analyzed or verified again.
func (r *Report) Diagnose() []Diagnosis {
	m, _ := r.Model.resolve() // an unknown model gets the generic advice
	var out []Diagnosis
	for i, d := range r.inner.Diagnose(m) {
		out = append(out, Diagnosis{
			Race:        r.Races[i],
			Category:    d.Category.String(),
			Responsible: d.Responsible,
			Suggestion:  d.Suggestion,
		})
	}
	return out
}

// analyze analyzes the trace from memory.
func (t *Trace) analyze(ao verify.AnalyzeOptions) (*verify.Analysis, error) {
	return verify.Analyze(t.t, verify.AlgoVectorClock, ao)
}

// verifyModels is the body of every entry point: analyze the source once
// (conflict detection, MPI matching, happens-before construction), verify
// the models over the shared analysis, wrap the reports. It also returns the
// analysis' salvage state.
func verifyModels(analyze func(verify.AnalyzeOptions) (*verify.Analysis, error),
	models []semantics.Model, opts *Options) ([]*Report, *trace.DecodeStats, error) {
	a, err := analyze(opts.analyzeOptions())
	if err != nil {
		return nil, nil, err
	}
	reps, err := a.VerifyAll(models, opts.verifyOptions())
	if err != nil {
		return nil, nil, fmt.Errorf("verifyio: %w", err)
	}
	out := make([]*Report, len(reps))
	for i, rep := range reps {
		out[i] = wrapReport(rep)
	}
	return out, a.Salvage(), nil
}

// verifyDir verifies the models off the trace directory. The Recovery is
// non-nil only in tolerate mode.
func verifyDir(dir string, models []semantics.Model, read ReadOptions, opts *Options) ([]*Report, *Recovery, error) {
	reps, stats, err := verifyModels(func(ao verify.AnalyzeOptions) (*verify.Analysis, error) {
		return verify.AnalyzeStream(dir, verify.AlgoVectorClock, verify.StreamAnalyzeOptions{
			AnalyzeOptions: ao,
			Decode:         trace.DecodeOptions{Tolerate: read.Tolerate},
			WindowBytes:    read.WindowBytes,
		})
	}, models, opts)
	if err != nil || !read.Tolerate {
		return reps, nil, err
	}
	return reps, recoveryFromStats(stats), nil
}

// Verify runs steps 2–4 of the workflow on a trace for one model.
func Verify(t *Trace, model Model, opts *Options) (*Report, error) {
	m, err := model.resolve()
	if err != nil {
		return nil, err
	}
	reps, _, err := verifyModels(t.analyze, []semantics.Model{m}, opts)
	if err != nil {
		return nil, err
	}
	return reps[0], nil
}

// VerifyAll verifies a trace against all four models, sharing the conflict
// detection, MPI matching and happens-before construction across them. With
// Options.Workers != 1 the four model passes run concurrently over the
// shared analysis.
func VerifyAll(t *Trace, opts *Options) ([]*Report, error) {
	reps, _, err := verifyModels(t.analyze, semantics.All(), opts)
	return reps, err
}

// VerifyStream verifies the trace directory against one model while
// decoding it, holding at most ReadOptions.WindowBytes of decoded records at
// a time instead of the whole trace (conflict detection and MPI matching
// consume each record batch as it decodes). The report is
// the one ReadTraceDirOpts + Verify give on the same directory — it is the
// same pipeline reading a different source — with the decode time and the
// most decoded record bytes resident at once in its Ledger's read row. The Recovery is non-nil only in tolerate mode.
func VerifyStream(dir string, model Model, read ReadOptions, opts *Options) (*Report, *Recovery, error) {
	m, err := model.resolve()
	if err != nil {
		return nil, nil, err
	}
	reps, rec, err := verifyDir(dir, []semantics.Model{m}, read, opts)
	if err != nil {
		return nil, nil, err
	}
	return reps[0], rec, nil
}

// VerifyAllStream is VerifyStream across all four models, sharing the
// analysis between them exactly as VerifyAll does.
func VerifyAllStream(dir string, read ReadOptions, opts *Options) ([]*Report, *Recovery, error) {
	return verifyDir(dir, semantics.All(), read, opts)
}
