// Package trace defines the execution-trace model used by every step of the
// VerifyIO workflow.
//
// A trace is the output of step 1 (Recorder⁺): for each MPI rank, an ordered
// stream of records, one per intercepted function call. Records carry the
// function name, all runtime arguments (stringified, exactly as the original
// Recorder does), logical entry/exit timestamps, the nesting depth within the
// I/O stack (application → NetCDF → HDF5 → MPI-IO → POSIX) and the full call
// chain, which the verifier reports for data races so the root cause can be
// attributed to the application or to a specific library layer.
package trace

import (
	"fmt"
	"math"
	"strings"
)

// Layer identifies which level of the I/O software stack issued a call.
type Layer uint8

// Layers, from the application down to the storage interface.
const (
	LayerApp Layer = iota
	LayerNetCDF
	LayerPnetCDF
	LayerHDF5
	LayerMPIIO
	LayerMPI
	LayerPOSIX
	numLayers
)

var layerNames = [numLayers]string{
	"app", "netcdf", "pnetcdf", "hdf5", "mpi-io", "mpi", "posix",
}

func (l Layer) String() string {
	if int(l) < len(layerNames) {
		return layerNames[l]
	}
	return fmt.Sprintf("layer(%d)", uint8(l))
}

// ParseLayer converts a layer name produced by Layer.String back to a Layer.
func ParseLayer(s string) (Layer, error) {
	for i, n := range layerNames {
		if n == s {
			return Layer(i), nil
		}
	}
	return 0, fmt.Errorf("trace: unknown layer %q", s)
}

// Record is one intercepted function call.
type Record struct {
	// Rank is the MPI rank that issued the call.
	Rank int
	// Seq is the per-rank program-order index (Def. 1): record k is the
	// k-th call recorded on this rank, counting every nesting level.
	Seq int
	// Func is the name of the intercepted function, using the original C
	// API spelling ("pwrite", "MPI_File_write_at", "H5Dwrite", ...).
	Func string
	// Layer is the stack level Func belongs to.
	Layer Layer
	// Args holds every runtime argument, stringified, in the order the
	// function's row of the call table gives (see Calls), mirroring how
	// VerifyIO post-processes Recorder traces. The analysis reads them by
	// field name through a Step, integers parsed once; the records a
	// directory lends as steps (Dir.ReadRank) have no Args.
	Args []string
	// Tick and Ret are the logical entry and return timestamps (a per-rank
	// monotonic counter advanced on every record boundary). They order
	// records within a rank and delimit nesting.
	Tick int64
	Ret  int64
	// Ctx is the call context: the enclosing calls and the call site. It
	// is shared by every record of a rank with the same context, and nil
	// for a call issued directly by the application with no site label.
	Ctx *Context
}

// Context is the call context of a record. A rank repeats a handful of
// contexts, so — as Recorder keeps each call signature once — the decoder
// and the recorder keep one Context per distinct (chain, site) of a rank and
// its records point at it. A Context is shared: never modify one.
type Context struct {
	// Chain is the call chain, outermost frame first, not including the
	// record's own call. Frames are "layer:func@site" strings; see
	// FormatFrame.
	Chain []string
	// Site labels the call site of the record inside its caller; the
	// paper's future-work "backtrace" feature. Optional.
	Site string
}

// NewContext returns the context of a record with the given call chain and
// call site: nil when both are empty, the form a decoded record takes.
func NewContext(chain []string, site string) *Context {
	if len(chain) == 0 && site == "" {
		return nil
	}
	if len(chain) == 0 {
		chain = nil
	}
	return &Context{Chain: chain, Site: site}
}

// Depth is the call-nesting depth: 0 for calls issued directly by the
// application, 1 for calls those made internally, and so on — the length of
// the call chain.
func (r *Record) Depth() int { return len(r.Chain()) }

// Chain returns the call chain (see Context.Chain); nil at depth 0.
func (r *Record) Chain() []string {
	if r.Ctx == nil {
		return nil
	}
	return r.Ctx.Chain
}

// Site returns the call-site label (see Context.Site).
func (r *Record) Site() string {
	if r.Ctx == nil {
		return ""
	}
	return r.Ctx.Site
}

// FormatFrame renders one call-chain frame.
func FormatFrame(layer Layer, fn, site string) string {
	if site == "" {
		return layer.String() + ":" + fn
	}
	return layer.String() + ":" + fn + "@" + site
}

// Frame is a parsed call-chain entry.
type Frame struct {
	Layer Layer
	Func  string
	Site  string
}

// ParseFrame parses a frame produced by FormatFrame.
func ParseFrame(s string) (Frame, error) {
	layerStr, rest, ok := strings.Cut(s, ":")
	if !ok {
		return Frame{}, fmt.Errorf("trace: malformed frame %q", s)
	}
	l, err := ParseLayer(layerStr)
	if err != nil {
		return Frame{}, err
	}
	fn, site, _ := strings.Cut(rest, "@")
	return Frame{Layer: l, Func: fn, Site: site}, nil
}

// String renders a record in the one-line textual form used by the CLI tools.
func (r *Record) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%d:%d] %s %s(%s)", r.Rank, r.Seq, r.Layer, r.Func,
		strings.Join(r.Args, ", "))
	if d := r.Depth(); d > 0 {
		fmt.Fprintf(&b, " depth=%d", d)
	}
	return b.String()
}

// Ref returns the record's Ref.
func (r *Record) Ref() Ref { return Ref{Rank: int32(r.Rank), Seq: int32(r.Seq)} }

// Arg returns argument i, or "" when absent.
func (r *Record) Arg(i int) string {
	if i < 0 || i >= len(r.Args) {
		return ""
	}
	return r.Args[i]
}

// IntArg returns argument i parsed as int64, exactly as
// strconv.ParseInt(arg, 10, 64) parses it. Missing or malformed arguments
// return ok=false; analysis code treats those records as unusable rather
// than failing the whole run, matching VerifyIO's tolerance of partial
// traces from the legacy Recorder.
func (r *Record) IntArg(i int) (int64, bool) {
	return parseInt(r.Arg(i))
}

// Int32Arg is IntArg for a rank, tag, root or index: a value outside int32
// is unusable, so that 32- and 64-bit builds read a record alike.
func (r *Record) Int32Arg(i int) (int, bool) {
	v, ok := r.IntArg(i)
	if !ok || v != int64(int32(v)) {
		return 0, false
	}
	return int(v), true
}

// Ref identifies a record inside a trace by rank and per-rank sequence. The
// analyses hold one or two per data operation, sync point and edge, so it is
// two 32-bit halves: Limits and Trace.Validate keep rank counts and per-rank
// record counts within int32.
type Ref struct {
	Rank int32
	Seq  int32
}

func (ref Ref) String() string { return fmt.Sprintf("%d:%d", ref.Rank, ref.Seq) }

// Less orders refs by rank, then by program order.
func (ref Ref) Less(o Ref) bool {
	if ref.Rank != o.Rank {
		return ref.Rank < o.Rank
	}
	return ref.Seq < o.Seq
}

// Trace is a complete execution trace: one record stream per rank plus
// execution-wide metadata.
type Trace struct {
	// Ranks holds the per-rank record streams; Ranks[i][k].Seq == k.
	Ranks [][]Record
	// Meta carries free-form execution metadata (program name, simulated
	// file-system consistency mode, library versions, ...).
	Meta map[string]string
}

// New returns an empty trace for nranks ranks.
func New(nranks int) *Trace {
	return &Trace{Ranks: make([][]Record, nranks), Meta: make(map[string]string)}
}

// NumRanks returns the number of rank streams.
func (t *Trace) NumRanks() int { return len(t.Ranks) }

// NumRecords returns the total number of records across all ranks.
func (t *Trace) NumRecords() int {
	n := 0
	for _, rs := range t.Ranks {
		n += len(rs)
	}
	return n
}

// Record resolves a Ref. It returns nil when the ref is out of range.
func (t *Trace) Record(ref Ref) *Record {
	if ref.Rank < 0 || int(ref.Rank) >= len(t.Ranks) {
		return nil
	}
	rs := t.Ranks[ref.Rank]
	if ref.Seq < 0 || int(ref.Seq) >= len(rs) {
		return nil
	}
	return &rs[ref.Seq]
}

// Append adds a record to its rank's stream, assigning Seq. It returns the
// record's Ref.
func (t *Trace) Append(rec Record) Ref {
	rec.Seq = len(t.Ranks[rec.Rank])
	t.Ranks[rec.Rank] = append(t.Ranks[rec.Rank], rec)
	return rec.Ref()
}

// Validate performs structural checks: sequence numbers must be dense,
// per-rank ticks strictly increasing, and every record addressable by a Ref.
// It reports the first problem found.
func (t *Trace) Validate() error {
	if len(t.Ranks) > math.MaxInt32 {
		return fmt.Errorf("trace: %d ranks, more than a 32-bit ref addresses", len(t.Ranks))
	}
	for rank, rs := range t.Ranks {
		if err := validateRank(rank, rs, true); err != nil {
			return err
		}
	}
	return nil
}

// validateRank checks a rank's stream; Rank and Seq only when refs is set.
// Records are appended when a call returns (post-order for nested calls), so
// the return tick strictly increases; an enclosing call's entry tick
// precedes its nested records' ticks.
func validateRank(rank int, rs []Record, refs bool) error {
	if err := checkRankLen(rank, len(rs)); err != nil {
		return err
	}
	lastRet := int64(-1)
	for i := range rs {
		r := &rs[i]
		if refs && r.Rank != rank {
			return fmt.Errorf("trace: rank %d stream holds record for rank %d at seq %d", rank, r.Rank, i)
		}
		if refs && r.Seq != i {
			return fmt.Errorf("trace: rank %d record %d has seq %d", rank, i, r.Seq)
		}
		if r.Ret <= lastRet {
			return fmt.Errorf("trace: rank %d record %d return tick %d not increasing (prev %d)", rank, i, r.Ret, lastRet)
		}
		if r.Ret < r.Tick {
			return fmt.Errorf("trace: rank %d record %d returns (%d) before entry (%d)", rank, i, r.Ret, r.Tick)
		}
		if r.Tick < 0 {
			return fmt.Errorf("trace: rank %d record %d negative entry tick %d", rank, i, r.Tick)
		}
		lastRet = r.Ret
	}
	return nil
}

// checkRankLen reports a rank a Ref cannot address: one of more than
// MaxInt32 records.
func checkRankLen(rank, n int) error {
	if n > math.MaxInt32 {
		return fmt.Errorf("trace: rank %d holds %d records, more than a 32-bit ref addresses", rank, n)
	}
	return nil
}
