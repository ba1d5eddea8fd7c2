package obs

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// fakeClock returns a tracer whose clock advances a fixed step per call, so
// golden outputs are reproducible.
func fakeClock(step time.Duration) *Tracer {
	t := NewTracer()
	var n int64
	var mu sync.Mutex
	t.now = func() time.Duration {
		mu.Lock()
		defer mu.Unlock()
		n++
		return time.Duration(n) * step
	}
	return t
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	sp := tr.Start(nil, "root", String("k", "v"))
	if sp != nil {
		t.Fatalf("nil tracer Start = %v, want nil", sp)
	}
	sp.End()
	sp.SetLane("x").SetCat("y").AddAttr(Int("i", 1))
	if got := tr.Events(); got != nil {
		t.Fatalf("nil tracer Events = %v, want nil", got)
	}
	if tr.SpanCount() != 0 {
		t.Fatal("nil tracer SpanCount != 0")
	}

	var c Ctx
	if c.Enabled() {
		t.Fatal("zero Ctx reports enabled")
	}
	c2, sp2 := c.Start("stage")
	if sp2 != nil || c2.S != nil {
		t.Fatal("zero Ctx Start returned live span")
	}
}

func TestSpanHierarchyAndInheritance(t *testing.T) {
	tr := fakeClock(time.Microsecond)
	root := tr.Start(nil, "analyze").SetCat("pipeline")
	child := tr.Start(root, "detect")
	if child.cat != "pipeline" {
		t.Fatalf("child cat = %q, want inherited %q", child.cat, "pipeline")
	}
	shard := tr.Start(child, "replay", Int("rank", 3))
	shard.SetLane("detect/rank-3")
	grand := tr.Start(shard, "inner")
	if grand.lane != "detect/rank-3" {
		t.Fatalf("grandchild lane = %q, want inherited shard lane", grand.lane)
	}
	grand.End()
	shard.End()
	child.End()
	root.End()
	if tr.SpanCount() != 4 {
		t.Fatalf("span count = %d, want 4", tr.SpanCount())
	}
}

func TestCtxDerivation(t *testing.T) {
	tr := fakeClock(time.Microsecond)
	c := Ctx{T: tr}
	if !c.Enabled() {
		t.Fatal("ctx with a tracer reports disabled")
	}
	c1, s1 := c.Start("stage-a")
	if c1.S != s1 {
		t.Fatal("derived ctx does not carry new span as parent")
	}
	if c.S != nil {
		t.Fatal("Start mutated the original ctx (must be a value)")
	}
	c2, s2 := c1.StartLane("lane-x", "shard")
	if s2.lane != "lane-x" || c2.S != s2 {
		t.Fatal("StartLane wiring wrong")
	}
	s2.End()
	s1.End()
}

// TestEventOrderDeterminism emits the same span structure from many
// goroutines in scrambled wall order across several trials and asserts the
// exported event list is identical in names, lanes, ids, parents, and attrs
// every time.
func TestEventOrderDeterminism(t *testing.T) {
	shape := func() []ChromeEvent {
		tr := NewTracer() // real clock: start order is scheduling-dependent
		root := tr.Start(nil, "analyze")
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				lane := "detect/rank-" + itoa(i)
				sp := tr.Start(root, "replay", Int("rank", i)).SetLane(lane)
				inner := tr.Start(sp, "merge")
				inner.End()
				sp.End()
			}(i)
		}
		wg.Wait()
		root.End()
		return tr.Events()
	}
	want := shape()
	for trial := 0; trial < 20; trial++ {
		got := shape()
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d events, want %d", trial, len(got), len(want))
		}
		for i := range got {
			g, w := got[i], want[i]
			if g.Name != w.Name || g.Ph != w.Ph || g.TID != w.TID ||
				g.Args["id"] != w.Args["id"] || g.Args["parent"] != w.Args["parent"] ||
				g.Args["rank"] != w.Args["rank"] {
				t.Fatalf("trial %d event %d: got %+v want %+v", trial, i, g, w)
			}
		}
	}
}

// TestSpansRace starts and ends spans concurrently while snapshots of the
// count are taken; meaningful under -race.
func TestSpansRace(t *testing.T) {
	tr := NewTracer()
	root := tr.Start(nil, "root")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				sp := tr.Start(root, "work", Int("i", i)).SetLane("lane-" + itoa(i))
				sp.End()
			}
		}(i)
	}
	for i := 0; i < 50; i++ {
		tr.SpanCount()
	}
	wg.Wait()
	root.End()
	if got := tr.SpanCount(); got != 1+8*200 {
		t.Fatalf("span count = %d", got)
	}
}

func TestItoa(t *testing.T) {
	for _, v := range []int{0, 1, 9, 10, 123456, -1, -987} {
		if got, want := itoa(v), fmt.Sprint(v); got != want {
			t.Fatalf("itoa(%d) = %q, want %q", v, got, want)
		}
	}
}

func TestDoubleEndKeepsFirst(t *testing.T) {
	tr := fakeClock(time.Microsecond)
	sp := tr.Start(nil, "x")
	sp.End()
	first := sp.end
	sp.End()
	if sp.end != first {
		t.Fatal("second End overwrote first end time")
	}
}

// BenchmarkDisabledSpan measures the tracing-disabled path (a nil tracer);
// TestDisabledPathAllocatesNothing asserts it stays allocation-free.
// BenchmarkEnabledSpan is what one span costs with a tracer attached.
func BenchmarkDisabledSpan(b *testing.B) {
	var tr *Tracer
	c := Ctx{T: tr}
	for i := 0; i < b.N; i++ {
		_, sp := c.Start("stage")
		sp.End()
	}
}

func BenchmarkEnabledSpan(b *testing.B) {
	tr := NewTracer()
	c := Ctx{T: tr}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, sp := c.Start("stage")
		sp.End()
	}
}

// TestDisabledPathAllocatesNothing pins the disabled-tracing contract: a
// Start+End round trip through a nil tracer is a nil check and must never
// allocate. What it costs in nanoseconds is BenchmarkDisabledSpan's to say.
func TestDisabledPathAllocatesNothing(t *testing.T) {
	var c Ctx
	if n := testing.AllocsPerRun(1000, func() {
		_, sp := c.Start("stage")
		sp.End()
	}); n != 0 {
		t.Errorf("disabled span round trip allocates %v times", n)
	}
}

// TestNilSpanMethodsAreNoOps pins the nil-receiver contract that
// conditional span starts rely on: a disabled tracer hands back nil spans,
// and every *Span method must be a safe no-op on them. Callers still must
// not lean on it for control flow — the detect sweep starts spans only on
// the paths that end them — but a nil span reaching End, chaining, or
// attribute code must never panic.
func TestNilSpanMethodsAreNoOps(t *testing.T) {
	var sp *Span
	sp.End()
	sp.End() // double-End on nil is as safe as on a live span
	if got := sp.SetLane("lane"); got != nil {
		t.Errorf("nil Span.SetLane returned %v, want nil", got)
	}
	if got := sp.SetCat("cat"); got != nil {
		t.Errorf("nil Span.SetCat returned %v, want nil", got)
	}
	sp.AddAttr(Int("k", 1), String("s", "v"))

	// The zero Ctx is the disabled-telemetry path: Start and StartLane must
	// return nil spans and a context that keeps working for children.
	var c Ctx
	if c.Enabled() {
		t.Error("zero Ctx reports Enabled")
	}
	child, s1 := c.Start("stage", Int("n", 3))
	if s1 != nil {
		t.Errorf("zero Ctx Start returned span %v, want nil", s1)
	}
	_, s2 := child.StartLane("lane", "shard")
	if s2 != nil {
		t.Errorf("zero Ctx StartLane returned span %v, want nil", s2)
	}
	s1.End()
	s2.End()
}
