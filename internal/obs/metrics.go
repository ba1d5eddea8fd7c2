package obs

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Stability classifies a metric for export comparison: Stable metrics are
// identical across runs at the same worker count (record counts, conflict
// pairs, checks performed); Volatile metrics depend on scheduling or wall
// time (memo hit counts under concurrent queries, worker busy nanoseconds)
// and are schema-validated instead of byte-compared.
type Stability int

// Stability values.
const (
	Stable Stability = iota
	Volatile
)

// Registry is a process-wide metric registry. Metrics are created on first
// use and accumulate for the registry's lifetime (one CLI invocation). A nil
// *Registry is the disabled registry: every lookup returns nil, and every
// method on a nil metric is a no-op.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named stable counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter { return r.CounterS(name, Stable) }

// CounterS returns the named counter with the given stability, creating it
// if needed. The stability of an existing counter is not changed.
func (r *Registry) CounterS(name string, s Stability) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{name: name, stability: s}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named stable gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge { return r.GaugeS(name, Stable) }

// GaugeS returns the named gauge with the given stability.
func (r *Registry) GaugeS(name string, s Stability) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{name: name, stability: s}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named stable histogram with the given bucket upper
// bounds (used only on first creation).
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	return r.HistogramS(name, bounds, Stable)
}

// HistogramS returns the named histogram with the given stability.
func (r *Registry) HistogramS(name string, bounds []int64, s Stability) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(name, s, bounds)
		r.hists[name] = h
	}
	return h
}

func newHistogram(name string, s Stability, bounds []int64) *Histogram {
	b := normalizeBounds(bounds)
	return &Histogram{
		name:      name,
		stability: s,
		bounds:    b,
		counts:    make([]atomic.Int64, len(b)+1),
	}
}

// normalizeBounds pins the bucket-boundary ordering: the exported layout
// is always strictly ascending no matter how the caller ordered (or
// duplicated) the bounds, so stable-section comparisons of histogram
// snapshots can never flake on creation order.
func normalizeBounds(bounds []int64) []int64 {
	b := append([]int64(nil), bounds...)
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	out := b[:0]
	for i, v := range b {
		if i == 0 || v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v         atomic.Int64
	name      string
	stability Stability
}

// Add increments the counter by n. No-op on nil.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one. No-op on nil.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value.
type Gauge struct {
	v         atomic.Int64
	name      string
	stability Stability
}

// Set stores v. No-op on nil.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// SetMax raises the gauge to v if v is greater (atomic high-water mark).
// No-op on nil.
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Add adjusts the gauge by delta and returns the new value (0 on nil).
func (g *Gauge) Add(delta int64) int64 {
	if g == nil {
		return 0
	}
	return g.v.Add(delta)
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into fixed buckets: counts[i] holds
// observations v <= bounds[i]; the final bucket is the overflow (v greater
// than every bound).
type Histogram struct {
	name      string
	stability Stability
	bounds    []int64
	counts    []atomic.Int64
	count     atomic.Int64
	sum       atomic.Int64
}

// Observe records one value. No-op on nil.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	// Binary search for the first bound >= v; bucket layout makes the
	// overflow bucket fall out of the search naturally.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Snapshot is a point-in-time copy of a registry, partitioned by stability
// so comparisons mask exactly the scheduling- and timing-dependent part.
// Both sections marshal with sorted keys (encoding/json sorts map keys), so
// equal snapshots are byte-equal.
type Snapshot struct {
	Stable   Section `json:"stable"`
	Volatile Section `json:"volatile"`
}

// Section is one stability class of a snapshot.
type Section struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// HistogramSnapshot is the exported state of one histogram.
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds; Counts has len(Bounds)+1 entries,
	// the last being the overflow bucket.
	Bounds []int64 `json:"bounds"`
	Counts []int64 `json:"counts"`
	Count  int64   `json:"count"`
	Sum    int64   `json:"sum"`
}

// Snapshot returns the histogram's exported state (zero value on nil).
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	hs := HistogramSnapshot{
		Bounds: append([]int64(nil), h.bounds...),
		Counts: make([]int64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    h.sum.Load(),
	}
	for i := range h.counts {
		hs.Counts[i] = h.counts[i].Load()
	}
	return hs
}

// Snapshot captures the registry's current state. Nil registries snapshot
// to nil.
func (r *Registry) Snapshot() *Snapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	snap := &Snapshot{}
	section := func(s Stability) *Section {
		if s == Volatile {
			return &snap.Volatile
		}
		return &snap.Stable
	}
	for name, c := range r.counters {
		sec := section(c.stability)
		if sec.Counters == nil {
			sec.Counters = map[string]int64{}
		}
		sec.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		sec := section(g.stability)
		if sec.Gauges == nil {
			sec.Gauges = map[string]int64{}
		}
		sec.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		sec := section(h.stability)
		if sec.Histograms == nil {
			sec.Histograms = map[string]HistogramSnapshot{}
		}
		sec.Histograms[name] = h.Snapshot()
	}
	return snap
}

// Names returns every registered metric name, sorted — the metric name
// registry the documentation table is checked against.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for n := range r.counters {
		names = append(names, n)
	}
	for n := range r.gauges {
		names = append(names, n)
	}
	for n := range r.hists {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
