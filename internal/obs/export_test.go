package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// buildSampleTrace emits a miniature version of the real pipeline span shape
// on a deterministic clock, for the golden export test.
func buildSampleTrace() *Tracer {
	tr := fakeClock(10 * time.Microsecond)
	c := Ctx{T: tr}

	ca, analyze := c.Start("analyze")
	analyze.SetCat("pipeline")

	cd, detect := ca.Start("detect")
	for rank := 0; rank < 2; rank++ {
		_, sp := cd.StartLane("detect/rank-"+itoa(rank), "replay", Int("rank", rank))
		sp.End()
	}
	_, merge := cd.Start("merge")
	merge.End()
	detect.End()

	cm, match := ca.Start("match")
	_, reg := cm.Start("register")
	reg.End()
	for rank := 0; rank < 2; rank++ {
		_, sp := cm.StartLane("match/rank-"+itoa(rank), "scan", Int("rank", rank))
		sp.End()
	}
	match.End()

	_, bg := ca.Start("build-graph")
	bg.AddAttr(Int("nodes", 42))
	bg.End()
	analyze.End()

	cv, verify := c.StartLane("verify/posix", "verify", String("model", "posix"))
	_, chunk := cv.StartLane("verify/posix/chunk-0", "chunk", Int("chunk", 0))
	chunk.End()
	verify.End()
	return tr
}

func TestChromeTraceGolden(t *testing.T) {
	tr := buildSampleTrace()
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "chrome_trace.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("chrome trace drifted from golden (regenerate with -update if intended)\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

func TestChromeTraceValidates(t *testing.T) {
	tr := buildSampleTrace()
	events := tr.Events()
	if err := ValidateEvents(events); err != nil {
		t.Fatalf("sample trace fails validation: %v", err)
	}
	// The envelope must round-trip as JSON with the traceEvents key Perfetto
	// expects.
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		TraceEvents []ChromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	if len(decoded.TraceEvents) != len(events) {
		t.Fatalf("round trip lost events: %d vs %d", len(decoded.TraceEvents), len(events))
	}
}

func TestValidateEventsRejects(t *testing.T) {
	dur := func(v float64) *float64 { return &v }
	cases := []struct {
		name   string
		events []ChromeEvent
	}{
		{"unnamed track", []ChromeEvent{
			{Name: "x", Ph: "X", TS: 0, Dur: dur(1), TID: 5, Args: map[string]string{"id": "0"}},
		}},
		{"missing id", []ChromeEvent{
			{Name: "thread_name", Ph: "M", TID: 0},
			{Name: "x", Ph: "X", TS: 0, Dur: dur(1), TID: 0},
		}},
		{"dangling parent", []ChromeEvent{
			{Name: "thread_name", Ph: "M", TID: 0},
			{Name: "x", Ph: "X", TS: 0, Dur: dur(1), TID: 0, Args: map[string]string{"id": "0", "parent": "9"}},
		}},
		{"child escapes parent", []ChromeEvent{
			{Name: "thread_name", Ph: "M", TID: 0},
			{Name: "p", Ph: "X", TS: 0, Dur: dur(10), TID: 0, Args: map[string]string{"id": "0"}},
			{Name: "c", Ph: "X", TS: 5, Dur: dur(1000), TID: 0, Args: map[string]string{"id": "1", "parent": "0"}},
		}},
		{"unknown phase", []ChromeEvent{{Name: "x", Ph: "B"}}},
	}
	for _, tc := range cases {
		if err := ValidateEvents(tc.events); err == nil {
			t.Errorf("%s: validation passed, want error", tc.name)
		}
	}
}

func TestUnendedSpanExportsZeroDuration(t *testing.T) {
	tr := fakeClock(time.Microsecond)
	tr.Start(nil, "leaked")
	events := tr.Events()
	var found bool
	for _, e := range events {
		if e.Ph == "X" && e.Name == "leaked" {
			found = true
			if *e.Dur != 0 {
				t.Fatalf("unended span dur = %v, want 0", *e.Dur)
			}
		}
	}
	if !found {
		t.Fatal("unended span missing from export")
	}
}
