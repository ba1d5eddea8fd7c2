package trace

import (
	"errors"
	"fmt"
	"io"
	"math"

	"verifyio/internal/obs"
)

// Structured decode errors and resource limits for the trace-ingestion
// pipeline.
//
// The whole VerifyIO workflow is trace-driven, and real Recorder traces come
// from preloaded tracers on jobs that crash, get killed, or truncate
// mid-write (the paper verifies legacy traces with missing information in
// §V-D). The decoder therefore never trusts its input: every length and count
// read from the stream is bounded before allocation, every failure is
// classified into a DecodeError, and a lenient mode (DecodeOptions.Tolerate)
// salvages the well-formed prefix of each rank stream instead of rejecting
// the whole trace.

// ErrKind classifies a decode failure.
type ErrKind uint8

// Decode failure kinds.
const (
	// Truncated: the stream ended before the structure it promised
	// (killed job, partial write, chopped compressed payload).
	Truncated ErrKind = iota
	// Corrupt: the bytes are structurally inconsistent (bad magic,
	// out-of-table string index, invalid varint, trailing garbage,
	// records violating trace invariants).
	Corrupt
	// LimitExceeded: a count or length field demands more resources than
	// the configured Limits allow (varint bombs, implausible depth or
	// table sizes). Distinguished from Corrupt so operators can raise
	// limits for legitimately huge traces.
	LimitExceeded
)

var errKindNames = [...]string{"truncated", "corrupt", "limit-exceeded"}

func (k ErrKind) String() string {
	if int(k) < len(errKindNames) {
		return errKindNames[k]
	}
	return fmt.Sprintf("errkind(%d)", uint8(k))
}

// DecodeError is the structured error every decoding entry point returns on
// malformed input. It pins the failure to a stream position so a damaged
// trace can be diagnosed (and, in tolerate mode, cut) precisely.
type DecodeError struct {
	// Kind classifies the failure.
	Kind ErrKind
	// Section names the region being decoded: "header", "meta",
	// "string-table", "records", "trailer", "validate", "directory".
	Section string
	// Rank is the rank stream being decoded, -1 outside rank records.
	Rank int
	// Record is the in-progress record index within Rank, -1 outside a
	// record.
	Record int
	// Offset is the byte offset into the decoded payload (the stream
	// after the 6-byte header, after decompression when the trace is
	// compressed) at which the failure was detected.
	Offset int64
	// Err is the underlying cause.
	Err error
}

func (e *DecodeError) Error() string {
	var b []byte
	b = append(b, "trace: "...)
	b = append(b, e.Section...)
	if e.Rank >= 0 {
		b = fmt.Appendf(b, ": rank %d", e.Rank)
		if e.Record >= 0 {
			b = fmt.Appendf(b, " record %d", e.Record)
		}
	}
	b = fmt.Appendf(b, " at payload offset %d: %s", e.Offset, e.Kind)
	if e.Err != nil {
		b = fmt.Appendf(b, ": %v", e.Err)
	}
	return string(b)
}

func (e *DecodeError) Unwrap() error { return e.Err }

// AsDecodeError unwraps err to its DecodeError, if it carries one.
func AsDecodeError(err error) (*DecodeError, bool) {
	var de *DecodeError
	if errors.As(err, &de) {
		return de, true
	}
	return nil, false
}

// classifyIO maps an underlying read error to a decode-failure kind: end of
// stream means the trace was cut short, anything else (flate corruption,
// varint overflow) means the bytes themselves are bad.
func classifyIO(err error) ErrKind {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return Truncated
	}
	return Corrupt
}

// Limits bounds every allocation the decoder makes, so a corrupt or
// malicious length field can never drive an unbounded allocation or OOM.
// The zero value of any field means "use the default".
type Limits struct {
	// MaxMeta caps the number of metadata key/value pairs.
	MaxMeta int
	// MaxStrings caps the string-table entry count.
	MaxStrings int
	// MaxStringLen caps the byte length of any single string.
	MaxStringLen int
	// MaxRanks caps the rank-stream count, and MaxRecords the per-rank
	// record count. Both are clamped to MaxInt32: a Ref holds 32-bit ranks
	// and sequence numbers.
	MaxRanks   int
	MaxRecords int
	// MaxArgs caps the argument count of one record.
	MaxArgs int
	// MaxDepth caps the call-nesting depth (and so the chain allocation)
	// of one record.
	MaxDepth int
	// MaxPayload is the total decoded-bytes budget for the whole trace:
	// string bytes plus per-entry bookkeeping. Decoding stops with
	// LimitExceeded as soon as the running total passes it.
	MaxPayload int64
}

// DefaultLimits returns the production bounds: far above anything a real
// Recorder trace produces, far below anything that could OOM the process.
func DefaultLimits() Limits {
	return Limits{
		MaxMeta:      1 << 16,
		MaxStrings:   1 << 22,
		MaxStringLen: 1 << 24,
		MaxRanks:     1 << 20,
		MaxRecords:   1 << 28,
		MaxArgs:      1 << 16,
		MaxDepth:     1 << 10,
		MaxPayload:   8 << 30,
	}
}

// withDefaults fills zero fields from DefaultLimits.
func (l Limits) withDefaults() Limits {
	d := DefaultLimits()
	if l.MaxMeta <= 0 {
		l.MaxMeta = d.MaxMeta
	}
	if l.MaxStrings <= 0 {
		l.MaxStrings = d.MaxStrings
	}
	if l.MaxStringLen <= 0 {
		l.MaxStringLen = d.MaxStringLen
	}
	if l.MaxRanks <= 0 {
		l.MaxRanks = d.MaxRanks
	}
	if l.MaxRecords <= 0 {
		l.MaxRecords = d.MaxRecords
	}
	l.MaxRanks, l.MaxRecords = min(l.MaxRanks, math.MaxInt32), min(l.MaxRecords, math.MaxInt32)
	if l.MaxArgs <= 0 {
		l.MaxArgs = d.MaxArgs
	}
	if l.MaxDepth <= 0 {
		l.MaxDepth = d.MaxDepth
	}
	if l.MaxPayload <= 0 {
		l.MaxPayload = d.MaxPayload
	}
	return l
}

// DecodeOptions controls trace deserialization.
type DecodeOptions struct {
	// Tolerate enables lenient decoding: instead of failing on a damaged
	// stream, salvage the well-formed prefix of each rank's records and
	// report what was dropped in DecodeStats. Errors before any records
	// exist (bad header, corrupt string table) still fail: there is
	// nothing to salvage without them.
	Tolerate bool
	// Limits bounds decoder allocations; zero fields use DefaultLimits.
	Limits Limits
	// Obs carries telemetry sinks; the zero Ctx disables instrumentation.
	Obs obs.Ctx
}

// RankRecovery reports lenient-mode salvage on one damaged rank stream.
type RankRecovery struct {
	// Rank is the world rank of the damaged stream.
	Rank int
	// Salvaged is the number of records kept (the well-formed prefix).
	Salvaged int
	// Dropped is the number of records lost. It is -1 when the damage
	// hides the true count (the stream broke before declaring it).
	Dropped int
	// Err is the classified error that cut the stream.
	Err error
}

// DecodeStats reports what lenient decoding salvaged. A nil or empty stats
// means the stream decoded completely.
type DecodeStats struct {
	// Ranks lists the damaged rank streams, in rank order. Intact ranks
	// do not appear.
	Ranks []RankRecovery
}

// Clean reports whether the trace decoded with no salvage at all.
func (s *DecodeStats) Clean() bool { return s == nil || len(s.Ranks) == 0 }
