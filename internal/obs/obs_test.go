package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
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

	var r *Registry
	r.Counter("c").Add(5)
	r.Counter("c").Inc()
	if v := r.Counter("c").Value(); v != 0 {
		t.Fatalf("nil counter value = %d", v)
	}
	r.Gauge("g").Set(3)
	r.Gauge("g").SetMax(9)
	r.Gauge("g").Add(1)
	if v := r.Gauge("g").Value(); v != 0 {
		t.Fatalf("nil gauge value = %d", v)
	}
	r.Histogram("h", []int64{1, 2}).Observe(7)
	if snap := r.Snapshot(); snap != nil {
		t.Fatalf("nil registry snapshot = %v, want nil", snap)
	}
	if names := r.Names(); names != nil {
		t.Fatalf("nil registry names = %v", names)
	}

	var c Ctx
	if c.Enabled() {
		t.Fatal("zero Ctx reports enabled")
	}
	c2, sp2 := c.Start("stage")
	if sp2 != nil || c2.S != nil {
		t.Fatal("zero Ctx Start returned live span")
	}
	if c.Counter("x") != nil {
		t.Fatal("zero Ctx Counter returned live counter")
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
	reg := NewRegistry()
	c := Ctx{T: tr, R: reg}
	if !c.Enabled() {
		t.Fatal("ctx with sinks reports disabled")
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
	c.Counter("hits").Add(2)
	if v := reg.Counter("hits").Value(); v != 2 {
		t.Fatalf("ctx counter = %d, want 2", v)
	}
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

func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("fanout", []int64{1, 4, 16})
	// One observation per interesting point: below, at each bound, between,
	// and past the last bound.
	for _, v := range []int64{0, 1, 2, 4, 5, 16, 17, 1000} {
		h.Observe(v)
	}
	snap := r.Snapshot()
	hs, ok := snap.Stable.Histograms["fanout"]
	if !ok {
		t.Fatal("histogram missing from stable section")
	}
	// Buckets: v<=1 {0,1}, v<=4 {2,4}, v<=16 {5,16}, overflow {17,1000}.
	wantCounts := []int64{2, 2, 2, 2}
	if len(hs.Counts) != len(wantCounts) {
		t.Fatalf("counts = %v", hs.Counts)
	}
	for i, w := range wantCounts {
		if hs.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, hs.Counts[i], w, hs.Counts)
		}
	}
	if hs.Count != 8 {
		t.Fatalf("count = %d, want 8", hs.Count)
	}
	if hs.Sum != 0+1+2+4+5+16+17+1000 {
		t.Fatalf("sum = %d", hs.Sum)
	}
}

func TestHistogramEmptyBounds(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("all-overflow", nil)
	h.Observe(5)
	h.Observe(-3)
	hs := r.Snapshot().Stable.Histograms["all-overflow"]
	if len(hs.Counts) != 1 || hs.Counts[0] != 2 {
		t.Fatalf("counts = %v, want [2]", hs.Counts)
	}
}

func TestGaugeSetMax(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("hw")
	g.SetMax(5)
	g.SetMax(3)
	g.SetMax(9)
	if v := g.Value(); v != 9 {
		t.Fatalf("high-water = %d, want 9", v)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	if r.Counter("x") != r.Counter("x") {
		t.Fatal("Counter not idempotent")
	}
	if r.Gauge("y") != r.Gauge("y") {
		t.Fatal("Gauge not idempotent")
	}
	if r.Histogram("z", []int64{1}) != r.Histogram("z", []int64{2}) {
		t.Fatal("Histogram not idempotent")
	}
	want := []string{"x", "y", "z"}
	got := r.Names()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Names = %v, want %v", got, want)
	}
}

func TestStabilityPartition(t *testing.T) {
	r := NewRegistry()
	r.Counter("stable.c").Add(1)
	r.CounterS("volatile.c", Volatile).Add(2)
	r.Gauge("stable.g").Set(3)
	r.GaugeS("volatile.g", Volatile).Set(4)
	r.HistogramS("volatile.h", []int64{10}, Volatile).Observe(5)
	snap := r.Snapshot()
	if snap.Stable.Counters["stable.c"] != 1 || snap.Stable.Gauges["stable.g"] != 3 {
		t.Fatalf("stable section wrong: %+v", snap.Stable)
	}
	if _, leaked := snap.Stable.Counters["volatile.c"]; leaked {
		t.Fatal("volatile counter leaked into stable section")
	}
	if snap.Volatile.Counters["volatile.c"] != 2 || snap.Volatile.Gauges["volatile.g"] != 4 {
		t.Fatalf("volatile section wrong: %+v", snap.Volatile)
	}
	if snap.Volatile.Histograms["volatile.h"].Count != 1 {
		t.Fatal("volatile histogram missing")
	}
}

// TestMetricsRace hammers every metric type from GOMAXPROCS goroutines; run
// under -race this exercises the atomic paths and the registry's
// get-or-create locking.
func TestMetricsRace(t *testing.T) {
	r := NewRegistry()
	workers := runtime.GOMAXPROCS(0)
	if workers < 2 {
		workers = 2
	}
	const perWorker = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Counter("c").Inc()
				r.CounterS("cv", Volatile).Add(2)
				r.Gauge("g").Set(int64(i))
				r.Gauge("hw").SetMax(int64(w*perWorker + i))
				r.Gauge("depth").Add(1)
				r.Gauge("depth").Add(-1)
				r.Histogram("h", []int64{10, 100}).Observe(int64(i % 200))
				if i%100 == 0 {
					r.Snapshot()
					r.Names()
				}
			}
		}(w)
	}
	wg.Wait()
	snap := r.Snapshot()
	if got := snap.Stable.Counters["c"]; got != int64(workers*perWorker) {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := snap.Volatile.Counters["cv"]; got != int64(2*workers*perWorker) {
		t.Fatalf("volatile counter = %d, want %d", got, 2*workers*perWorker)
	}
	if got := snap.Stable.Gauges["hw"]; got != int64(workers*perWorker-1) {
		t.Fatalf("high-water = %d, want %d", got, workers*perWorker-1)
	}
	if got := snap.Stable.Histograms["h"].Count; got != int64(workers*perWorker) {
		t.Fatalf("histogram count = %d, want %d", got, workers*perWorker)
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

// BenchmarkDisabledSpan and BenchmarkDisabledCounter measure the telemetry-
// disabled path (nil tracer/registry). TestDisabledPathAllocatesNothing
// asserts it stays allocation-free.
func BenchmarkDisabledSpan(b *testing.B) {
	var tr *Tracer
	c := Ctx{T: tr}
	for i := 0; i < b.N; i++ {
		_, sp := c.Start("stage")
		sp.End()
	}
}

func BenchmarkDisabledCounter(b *testing.B) {
	var r *Registry
	c := r.Counter("x")
	for i := 0; i < b.N; i++ {
		c.Add(1)
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

// TestDisabledPathAllocatesNothing pins the disabled-telemetry contract: a
// Start+End round trip through a nil tracer and a counter lookup on a nil
// registry are nil checks and must never allocate. What they cost in
// nanoseconds is BenchmarkDisabledSpan / BenchmarkDisabledCounter's to say.
func TestDisabledPathAllocatesNothing(t *testing.T) {
	var c Ctx
	if n := testing.AllocsPerRun(1000, func() {
		_, sp := c.Start("stage")
		sp.End()
	}); n != 0 {
		t.Errorf("disabled span round trip allocates %v times", n)
	}
	var r *Registry
	if n := testing.AllocsPerRun(1000, func() { r.Counter("x").Add(1) }); n != 0 {
		t.Errorf("disabled counter lookup allocates %v times", n)
	}
}

// TestHistogramBoundsPinned is the stable-section determinism contract for
// histograms: the exported bucket layout is strictly ascending no matter
// how the creating call ordered (or duplicated) the bounds, so two runs
// that register the same histogram from different code paths can never
// produce stable sections that differ only in bucket order.
func TestHistogramBoundsPinned(t *testing.T) {
	var snaps [][]byte
	for _, bounds := range [][]int64{
		{1, 4, 16, 64},
		{64, 16, 4, 1},
		{16, 1, 64, 4, 16, 1}, // shuffled with duplicates
	} {
		r := NewRegistry()
		h := r.Histogram("fanout", bounds)
		for _, v := range []int64{0, 3, 5, 20, 100} {
			h.Observe(v)
		}
		snap := r.Snapshot()
		if err := ValidateSnapshot(snap); err != nil {
			t.Fatalf("bounds %v: %v", bounds, err)
		}
		b, err := json.Marshal(snap.Stable)
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, b)
	}
	for i := 1; i < len(snaps); i++ {
		if !bytes.Equal(snaps[0], snaps[i]) {
			t.Fatalf("stable sections differ across bound orderings:\n%s\n---\n%s", snaps[0], snaps[i])
		}
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
