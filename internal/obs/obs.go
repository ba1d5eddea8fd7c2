// Package obs is the pipeline's optional tracing layer: hierarchical spans
// with a Chrome trace_event export, and profiling hooks, with zero
// dependencies outside the standard library. What a run measures per stage
// is not here: that is the verifier's always-on stage ledger
// (verify.Ledger).
//
// Everything is nil-safe: a nil *Tracer returns nil *Spans, and every method
// on a nil span is a no-op guarded by a single branch. Pipeline code
// therefore instruments unconditionally and pays near zero when tracing is
// disabled (the default); TestDisabledPathAllocatesNothing pins the disabled
// cost.
//
// Determinism contract: the *content* of the emitted spans (names,
// attributes, lanes, nesting) is identical at any worker count and across
// runs. Only start times and durations vary; exports sort spans by their
// stable identity, not by wall time, so artifacts diff cleanly modulo
// timestamps.
package obs

import (
	"sync"
	"time"
)

// Attr is one span attribute. Values are strings so that exported artifacts
// are deterministic and trivially comparable.
type Attr struct {
	Key   string
	Value string
}

// String returns a string attribute.
func String(key, value string) Attr { return Attr{Key: key, Value: value} }

// Int returns an integer attribute.
func Int(key string, value int) Attr { return Attr{Key: key, Value: itoa(value)} }

// Tracer collects hierarchical spans for one run. The zero value is not
// usable; call NewTracer. A nil *Tracer is the disabled tracer: Start
// returns nil and costs one branch.
type Tracer struct {
	epoch time.Time
	now   func() time.Duration // monotonic offset since epoch; swapped in tests

	mu    sync.Mutex
	spans []*Span
}

// NewTracer returns an empty tracer whose span timestamps are offsets from
// now.
func NewTracer() *Tracer {
	t := &Tracer{epoch: time.Now()}
	t.now = func() time.Duration { return time.Since(t.epoch) }
	return t
}

// Span is one timed region of the pipeline. Spans form a tree via parent
// links; concurrent children of one parent are placed on distinct lanes so
// the Chrome export renders them side by side. A nil *Span is the disabled
// span: every method is a no-op.
type Span struct {
	t      *Tracer
	parent *Span
	name   string
	cat    string // stage category ("decode", "detect", ...); inherited
	lane   string // export track; inherited from parent when unset
	attrs  []Attr

	start, end time.Duration
	ended      bool
}

// Start opens a span under parent (nil parent = root span). The caller must
// End it; an unended span exports with zero duration. Safe for concurrent
// use from any goroutine.
func (t *Tracer) Start(parent *Span, name string, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	sp := &Span{t: t, parent: parent, name: name, attrs: attrs, start: t.now()}
	if parent != nil {
		sp.lane = parent.lane
		sp.cat = parent.cat
	}
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
	return sp
}

// End closes the span. Ending twice keeps the first end time.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.end = s.t.now()
	s.ended = true
}

// SetLane places the span (and, by inheritance, its future children) on the
// named export track. Concurrent siblings must use distinct lanes: Chrome
// "complete" events on one track only render correctly when they nest.
// Returns s for chaining.
func (s *Span) SetLane(lane string) *Span {
	if s != nil {
		s.lane = lane
	}
	return s
}

// SetCat sets the span's stage category (the Chrome "cat" field), inherited
// by children. Returns s for chaining.
func (s *Span) SetCat(cat string) *Span {
	if s != nil {
		s.cat = cat
	}
	return s
}

// AddAttr appends attributes to the span. Must not race with the tracer's
// export (end the pipeline before exporting).
func (s *Span) AddAttr(attrs ...Attr) {
	if s != nil {
		s.attrs = append(s.attrs, attrs...)
	}
}

// Ctx carries the tracer and the current parent span through the pipeline.
// The zero Ctx is tracing disabled. Ctx is a value: deriving a child
// context never mutates the parent's.
type Ctx struct {
	// T collects spans; nil disables tracing.
	T *Tracer
	// S is the parent for spans started through this context.
	S *Span
}

// Enabled reports whether a tracer is attached.
func (c Ctx) Enabled() bool { return c.T != nil }

// Start opens a child span and returns the derived context (with the new
// span as parent) plus the span to End.
func (c Ctx) Start(name string, attrs ...Attr) (Ctx, *Span) {
	sp := c.T.Start(c.S, name, attrs...)
	c.S = sp
	return c, sp
}

// StartLane is Start on an explicit lane — for spans that run concurrently
// with their siblings (stage shards, concurrent model passes).
func (c Ctx) StartLane(lane, name string, attrs ...Attr) (Ctx, *Span) {
	sp := c.T.Start(c.S, name, attrs...).SetLane(lane)
	c.S = sp
	return c, sp
}

// itoa is strconv.Itoa without the import weight in the hot path signature;
// attribute values are small non-negative numbers almost always.
func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [24]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
