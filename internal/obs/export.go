package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// ChromeEvent is one entry of the exported trace_event array, in the subset
// of the Chrome/Perfetto trace format the exporter emits: "X" (complete)
// events carrying ts/dur and "M" (metadata) events naming the tracks.
type ChromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`
	Dur  *float64          `json:"dur,omitempty"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// chromeTrace is the top-level JSON object chrome://tracing and Perfetto
// load.
type chromeTrace struct {
	TraceEvents     []ChromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// exportSpan pairs a span with its precomputed stable identity.
type exportSpan struct {
	s    *Span
	path string // "/"-joined names+attrs from the root — the stable identity
}

// pathOf renders the span's stable identity: every ancestor's name with its
// attributes, root first. Two spans emitted by the same pipeline step at
// any worker count have equal paths, which is what makes the export order
// and ids deterministic.
func pathOf(s *Span, memo map[*Span]string) string {
	if s == nil {
		return ""
	}
	if p, ok := memo[s]; ok {
		return p
	}
	p := s.name
	for _, a := range s.attrs {
		p += ";" + a.Key + "=" + a.Value
	}
	if s.parent != nil {
		p = pathOf(s.parent, memo) + "/" + p
	}
	memo[s] = p
	return p
}

// Events renders the tracer's spans as Chrome trace events in deterministic
// order: spans sort by (lane, path, start), track ids are assigned from the
// sorted lane names (the root lane "" — displayed as "main" — is always tid
// 0), and each event's args carry its attributes plus its stable id and
// parent id. Call only after all spans have ended.
func (t *Tracer) Events() []ChromeEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	spans := append([]*Span(nil), t.spans...)
	t.mu.Unlock()

	memo := make(map[*Span]string, len(spans))
	es := make([]exportSpan, len(spans))
	laneSet := map[string]bool{"": true}
	for i, s := range spans {
		es[i] = exportSpan{s: s, path: pathOf(s, memo)}
		laneSet[s.lane] = true
	}
	sort.Slice(es, func(i, j int) bool {
		a, b := es[i], es[j]
		if a.s.lane != b.s.lane {
			return a.s.lane < b.s.lane
		}
		if a.path != b.path {
			return a.path < b.path
		}
		return a.s.start < b.s.start
	})

	lanes := make([]string, 0, len(laneSet))
	for l := range laneSet {
		if l != "" {
			lanes = append(lanes, l)
		}
	}
	sort.Strings(lanes)
	lanes = append([]string{""}, lanes...)
	tidOf := make(map[string]int, len(lanes))
	events := make([]ChromeEvent, 0, len(es)+len(lanes))
	for tid, l := range lanes {
		tidOf[l] = tid
		name := l
		if name == "" {
			name = "main"
		}
		events = append(events, ChromeEvent{
			Name: "thread_name", Ph: "M", PID: 1, TID: tid,
			Args: map[string]string{"name": name},
		})
	}

	// Stable ids: the sorted position. Parent ids resolve through the same
	// assignment, so the span tree is reconstructible from the args alone.
	idOf := make(map[*Span]int, len(es))
	for i := range es {
		idOf[es[i].s] = i
	}
	for i := range es {
		s := es[i].s
		end := s.end
		if !s.ended {
			end = s.start
		}
		dur := micros(end - s.start)
		args := make(map[string]string, len(s.attrs)+2)
		for _, a := range s.attrs {
			args[a.Key] = a.Value
		}
		args["id"] = itoa(i)
		if s.parent != nil {
			args["parent"] = itoa(idOf[s.parent])
		}
		events = append(events, ChromeEvent{
			Name: s.name, Cat: s.cat, Ph: "X",
			TS: micros(s.start), Dur: &dur,
			PID: 1, TID: tidOf[s.lane], Args: args,
		})
	}
	return events
}

// WriteChromeTrace writes the spans as Chrome trace_event JSON, loadable in
// chrome://tracing and https://ui.perfetto.dev. Call only after the traced
// run has finished. A nil tracer writes an empty trace.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	out := chromeTrace{TraceEvents: t.Events(), DisplayTimeUnit: "ms"}
	if out.TraceEvents == nil {
		out.TraceEvents = []ChromeEvent{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}

// ParseChromeTrace parses a document written by WriteChromeTrace back into
// its event list, for the tests that validate a -trace-out artifact.
func ParseChromeTrace(data []byte) ([]ChromeEvent, error) {
	var ct chromeTrace
	if err := json.Unmarshal(data, &ct); err != nil {
		return nil, fmt.Errorf("obs: not a chrome trace: %w", err)
	}
	return ct.TraceEvents, nil
}

// micros converts a duration to fractional microseconds (the trace_event
// time unit), keeping nanosecond precision.
func micros(d interface{ Nanoseconds() int64 }) float64 {
	return float64(d.Nanoseconds()) / 1e3
}

// SpanCount returns the number of spans collected so far (0 on nil).
func (t *Tracer) SpanCount() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// ValidateEvents checks the structural invariants of an exported event list:
// metadata events name every referenced track, complete events carry ids,
// parents resolve, and children nest inside their parents in time. It is
// the schema check the tests run on -trace-out artifacts.
func ValidateEvents(events []ChromeEvent) error {
	tracks := map[int]bool{}
	ids := map[string]ChromeEvent{}
	for _, e := range events {
		switch e.Ph {
		case "M":
			tracks[e.TID] = true
		case "X":
			if e.Name == "" {
				return fmt.Errorf("obs: unnamed complete event")
			}
			if e.Dur == nil || *e.Dur < 0 || e.TS < 0 {
				return fmt.Errorf("obs: event %q has invalid timing", e.Name)
			}
			id, ok := e.Args["id"]
			if !ok {
				return fmt.Errorf("obs: event %q missing stable id", e.Name)
			}
			ids[id] = e
		default:
			return fmt.Errorf("obs: unexpected event phase %q", e.Ph)
		}
	}
	for id, e := range ids {
		if !tracks[e.TID] {
			return fmt.Errorf("obs: event %q on unnamed track %d", e.Name, e.TID)
		}
		p, ok := e.Args["parent"]
		if !ok {
			continue
		}
		pe, ok := ids[p]
		if !ok {
			return fmt.Errorf("obs: event %q (id %s) has dangling parent %s", e.Name, id, p)
		}
		// Children start within the parent; equal bounds are fine (a span
		// can fill its parent exactly).
		if e.TS < pe.TS || e.TS+*e.Dur > pe.TS+*pe.Dur+timeSlack {
			return fmt.Errorf("obs: event %q [%.3f, %.3f] escapes parent %q [%.3f, %.3f]",
				e.Name, e.TS, e.TS+*e.Dur, pe.Name, pe.TS, pe.TS+*pe.Dur)
		}
	}
	return nil
}

// timeSlack tolerates the sub-microsecond skew between a child ending and
// its parent recording its own end immediately after.
const timeSlack = 50.0 // µs
