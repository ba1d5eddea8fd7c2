// Package recorder implements Recorder⁺, the tracing component of VerifyIO
// (step 1 of the workflow).
//
// The real Recorder⁺ intercepts calls via LD_PRELOAD wrappers generated from
// function-signature files; in this simulation every library layer routes
// its calls through a Rank, which plays the wrapper role: it records the
// prologue (entry timestamp, call chain), invokes the real operation, then
// records the epilogue (all runtime arguments, including post-invocation
// values such as the MPI_Status of a wildcard receive or the descriptor
// returned by open). Nesting is captured exactly the way the paper needs it:
// when PnetCDF calls MPI-IO which calls POSIX, all three records appear,
// each carrying its enclosing call chain, which the verifier reports for
// data races so users can tell application-level misuse from library-level
// bugs.
//
// Coverage is signature-driven. A Registry lists the functions the tracer
// supports, loaded from the signature files under sigs/ (the same files
// cmd/wrappergen consumes). CoverageLegacy reproduces the original
// Recorder's partial coverage — only a small, fixed HDF5 subset plus the
// POSIX/MPI core — so the evaluation can show what full coverage buys
// (Table II) and what partial coverage silently misses.
package recorder

import (
	"encoding/binary"
	"slices"
	"strconv"

	"verifyio/internal/sim/mpi"
	"verifyio/internal/sim/posixfs"
	"verifyio/internal/trace"
)

// Coverage selects which tracer generation to simulate.
type Coverage int

const (
	// CoveragePlus is Recorder⁺: every function in the signature registry
	// is recorded (full coverage of HDF5, NetCDF, and PnetCDF).
	CoveragePlus Coverage = iota
	// CoverageLegacy is the original Recorder: POSIX, MPI, MPI-IO, and a
	// fixed subset of HDF5 functions only. Calls outside the subset still
	// execute but leave no trace records.
	CoverageLegacy
)

func (c Coverage) String() string {
	if c == CoverageLegacy {
		return "recorder"
	}
	return "recorder+"
}

// Env is one traced execution: a simulated MPI world, a simulated file
// system, and the trace being collected.
type Env struct {
	world    *mpi.World
	fs       *posixfs.FS
	tr       *trace.Trace
	reg      *Registry
	coverage Coverage
}

// Options configures a traced execution.
type Options struct {
	// FSMode is the simulated file system's consistency mode.
	FSMode posixfs.Mode
	// Coverage selects Recorder⁺ (default) or legacy Recorder.
	Coverage Coverage
	// Registry overrides the default signature registry (tests).
	Registry *Registry
	// MPIOptions are passed through to the simulated MPI world.
	MPIOptions []mpi.Option
}

// NewEnv creates a traced execution with nranks ranks.
func NewEnv(nranks int, opts Options) *Env {
	reg := opts.Registry
	if reg == nil {
		reg = DefaultRegistry()
	}
	e := &Env{
		world:    mpi.NewWorld(nranks, opts.MPIOptions...),
		fs:       posixfs.New(opts.FSMode),
		tr:       trace.New(nranks),
		reg:      reg,
		coverage: opts.Coverage,
	}
	e.tr.Meta["fs.mode"] = opts.FSMode.String()
	e.tr.Meta["tracer"] = opts.Coverage.String()
	return e
}

// FS exposes the simulated file system (examples inspect committed data).
func (e *Env) FS() *posixfs.FS { return e.fs }

// Trace returns the collected trace. Call it after Run has returned.
func (e *Env) Trace() *trace.Trace { return e.tr }

// Run executes prog once per rank under tracing and waits for completion.
func (e *Env) Run(prog func(r *Rank) error) error {
	return e.world.Run(func(p *mpi.Proc) error {
		return prog(&Rank{
			env:  e,
			proc: p,
			fs:   e.fs.Proc(p.Rank()),
		})
	})
}

// Rank is one traced process: the wrapper layer in front of the simulated
// MPI and POSIX substrates. It must be used only from its rank's goroutine.
type Rank struct {
	env  *Env
	proc *mpi.Proc
	fs   *posixfs.Proc

	tick  int64
	chain []string
	site  string
	// ctxs holds the rank's call contexts, one per distinct (chain, site)
	// recorded so far, keyed as context builds ctxKey.
	ctxs   map[string]*trace.Context
	ctxKey []byte
}

// Rank returns the MPI world rank.
func (r *Rank) Rank() int { return r.proc.Rank() }

// Size returns the MPI world size.
func (r *Rank) Size() int { return r.proc.Size() }

// Proc exposes the raw (untraced) MPI handle. Library layers use Record
// around it; application code should use the traced wrappers instead.
func (r *Rank) Proc() *mpi.Proc { return r.proc }

// FSProc exposes the raw (untraced) file-system view.
func (r *Rank) FSProc() *posixfs.Proc { return r.fs }

// SetSite labels subsequent records with a call-site string — the paper's
// future-work backtrace feature, which disambiguates repeated calls to the
// same function from different source locations.
func (r *Rank) SetSite(site string) { r.site = site }

// Record is the wrapper skeleton from the paper (§IV-A):
//
//	wrapper(func, ...) { prologue(); ret = func(args); epilogue(args); }
//
// It runs body inside a recorded frame of the given layer. args is evaluated
// after body so post-invocation values (statuses, returned descriptors) are
// captured. If the registry (under the configured coverage) does not support
// fn, body still runs but no record is written — exactly how an uninstru-
// mented function behaves under LD_PRELOAD tracing.
func (r *Rank) Record(layer trace.Layer, fn string, args func() []string, body func() error) error {
	if !r.env.reg.Supported(r.env.coverage, fn) {
		return body()
	}
	entry := r.nextTick()
	frame := trace.FormatFrame(layer, fn, r.site)
	r.chain = append(r.chain, frame)
	err := body()
	r.chain = r.chain[:len(r.chain)-1]
	ret := r.nextTick()

	var argv []string
	if args != nil {
		argv = args()
	}
	r.env.tr.Append(trace.Record{
		Rank:  r.Rank(),
		Func:  fn,
		Layer: layer,
		Args:  argv,
		Tick:  entry,
		Ret:   ret,
		Ctx:   r.context(),
	})
	return err
}

// record is Record for a call with one result, which its args may read.
func record[T any](r *Rank, layer trace.Layer, fn string, call func() (T, error), args func(T) []string) (T, error) {
	var out T
	err := r.Record(layer, fn, func() []string { return args(out) }, func() (err error) {
		out, err = call()
		return err
	})
	return out, err
}

// record2 is record for a call with two results.
func record2[T, U any](r *Rank, layer trace.Layer, fn string, call func() (T, U, error), args func(T, U) []string) (T, U, error) {
	var a T
	var b U
	err := r.Record(layer, fn, func() []string { return args(a, b) }, func() (err error) {
		a, b, err = call()
		return err
	})
	return a, b, err
}

// context returns the rank's Context for the current frame stack and site,
// adding it on first use: records share it instead of each copying the
// chain. The key is every string length-prefixed, site first.
func (r *Rank) context() *trace.Context {
	if len(r.chain) == 0 && r.site == "" {
		return nil
	}
	k := binary.AppendUvarint(r.ctxKey[:0], uint64(len(r.site)))
	k = append(k, r.site...)
	for _, f := range r.chain {
		k = binary.AppendUvarint(k, uint64(len(f)))
		k = append(k, f...)
	}
	r.ctxKey = k
	c := r.ctxs[string(k)]
	if c == nil {
		c = trace.NewContext(slices.Clone(r.chain), r.site)
		if r.ctxs == nil {
			r.ctxs = make(map[string]*trace.Context)
		}
		r.ctxs[string(k)] = c
	}
	return c
}

func (r *Rank) nextTick() int64 {
	r.tick++
	return r.tick
}

func itoa(v int64) string { return strconv.FormatInt(v, 10) }
