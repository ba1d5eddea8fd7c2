package main

import (
	"io"
	"runtime"
	"sort"
	"time"

	"verifyio"
	"verifyio/internal/conflict"
	"verifyio/internal/hbgraph"
	"verifyio/internal/match"
	"verifyio/internal/semantics"
	"verifyio/internal/trace"
	"verifyio/internal/verify"
)

// The traced pass times the calls into each layer's exported functions from
// here, at Workers = 1. Spans stay in memory until the pass ends; counts are
// read from exported result fields. Nothing inside the program is traced.

// span is one timed call, or a root grouping the calls of one tree.
type span struct {
	ID, Parent int // Parent 0: a root
	Name       string
	Start, End time.Duration // since the pass began
	Iter       int
}

// spans records a tree of spans by begin/end nesting.
type spans struct {
	t0   time.Time
	all  []span
	open []int
	iter int
}

func (s *spans) begin(name string) {
	parent := 0
	if n := len(s.open); n > 0 {
		parent = s.open[n-1]
	}
	id := len(s.all) + 1
	s.all = append(s.all, span{ID: id, Parent: parent, Name: name, Iter: s.iter})
	s.open = append(s.open, id)
	s.all[id-1].Start = time.Since(s.t0)
}

func (s *spans) end() {
	now := time.Since(s.t0)
	id := s.open[len(s.open)-1]
	s.open = s.open[:len(s.open)-1]
	s.all[id-1].End = now
}

// spanTime is the time an iteration spent in the spans of one name: in all,
// and outside their child spans.
type spanTime struct{ TotalMS, SelfMS float64 }

// byName sums the spans of iteration iter per name.
func (s *spans) byName(iter int) map[string]spanTime {
	children := make(map[int]time.Duration)
	for _, sp := range s.all {
		if sp.Iter == iter {
			children[sp.Parent] += sp.End - sp.Start
		}
	}
	out := make(map[string]spanTime)
	for _, sp := range s.all {
		if sp.Iter != iter {
			continue
		}
		t := out[sp.Name]
		t.TotalMS += ms(sp.End - sp.Start)
		t.SelfMS += ms(sp.End - sp.Start - children[sp.ID])
		out[sp.Name] = t
	}
	return out
}

// extent returns how many spans iteration iter recorded and the time its
// roots cover.
func (s *spans) extent(iter int) (n int, covered time.Duration) {
	for _, sp := range s.all {
		if sp.Iter != iter {
			continue
		}
		n++
		if sp.Parent == 0 {
			covered += sp.End - sp.Start
		}
	}
	return n, covered
}

// spanCost measures what recording one span costs.
func spanCost() time.Duration {
	const n = 100000
	s := &spans{t0: time.Now()}
	for i := 0; i < n; i++ {
		s.begin("")
		s.end()
	}
	return time.Since(s.t0) / n
}

// chromeEvent is one complete event of Chrome's trace-event format
// (chrome://tracing, Perfetto).
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// chromeEvents renders one workload's spans, as process pid.
func chromeEvents(all []span, workload string, pid int) []chromeEvent {
	events := make([]chromeEvent, 0, len(all))
	for _, sp := range all {
		events = append(events, chromeEvent{Name: sp.Name, Ph: "X",
			TS: float64(sp.Start) / 1e3, Dur: float64(sp.End-sp.Start) / 1e3, PID: pid, TID: 1,
			Args: map[string]any{"id": sp.ID, "parent": sp.Parent, "workload": workload, "iteration": sp.Iter}})
	}
	return events
}

var modelKeys = [nModels]string{"posix", "commit", "session", "mpiio"}

const mib = 1 << 20

// allocated runs f and returns the bytes it allocated.
func allocated(f func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc - before.TotalAlloc)
}

// traced is the per-layer pass. Each iteration records, for every trace of
// the workload:
//
//	verifyio.serial_e2e, verifyio.parallel_e2e   the public API, no cache
//	e2e_serial → trace.decode, verify.analyze, verify.<model> ×4, verify.render
//	layers → conflict.detect, match.match, hbgraph.build, hbgraph.oracle
//	stream → trace.stream_decode, verify.analyze_stream, verify.stream_verify, verify.stream_render
//	vcache.cold, vcache.warm, vcache.append      the public API, cache in front
//
// A root's self time is harness overhead. Cell values are summed over the
// workload's traces within an iteration and reported as medians over
// iterations.
func (r *runner) traced() error {
	perSpan := spanCost()
	size := 0.0
	for i := range r.p.Traces {
		n, err := dirBytes(r.p.Traces[i].Dir)
		if err != nil {
			return err
		}
		size += float64(n)
	}
	sp := &spans{t0: time.Now()}
	var samples []map[string]float64
	var times []map[string]spanTime

	// One untimed pass fills caches and starts pools.
	reps, err := r.api(1, "")
	if err != nil {
		return err
	}
	r.res.Golden = condense(reps)

	for start := time.Now(); r.p.measuring(start, r.res.Iterations); r.res.Iterations++ {
		sp.iter = r.res.Iterations
		cells := make(map[string]float64)
		for _, m := range perLayer {
			cells[m.Name] = 0
		}
		cells["trace.dir_bytes"] = size
		if err := r.tracedIteration(sp, cells); err != nil {
			return err
		}
		t := sp.byName(sp.iter)
		derive(cells, t, r.w.stream, float64(r.res.Records))
		n, covered := sp.extent(sp.iter)
		cells["bench.span_overhead_pct"] = float64(n) * float64(perSpan) / float64(covered) * 100
		samples = append(samples, cells)
		times = append(times, t)
	}

	r.res.Layers = make(map[string]float64)
	for name := range samples[0] {
		vals := make([]float64, len(samples))
		for i, s := range samples {
			vals[i] = s[name]
		}
		r.res.Layers[name] = median(vals)
	}
	r.res.Spans = make(map[string]spanTime)
	for name := range times[0] {
		total, self := make([]float64, len(times)), make([]float64, len(times))
		for i, t := range times {
			total[i], self[i] = t[name].TotalMS, t[name].SelfMS
		}
		r.res.Spans[name] = spanTime{TotalMS: median(total), SelfMS: median(self)}
	}
	if r.p.KeepSpans {
		r.res.AllSpans = sp.all
	}
	return nil
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func (r *runner) tracedIteration(sp *spans, cells map[string]float64) error {
	// The public API, serial and at the default worker count.
	if _, err := r.tracedAPI(sp, "verifyio.serial_e2e", 1, ""); err != nil {
		return err
	}
	if _, err := r.tracedAPI(sp, "verifyio.parallel_e2e", 0, ""); err != nil {
		return err
	}

	// Pipeline tree, then the isolated layers on the traces it decoded.
	runtime.GC()
	traces := make([]*trace.Trace, len(r.p.Traces))
	graphs := make([]bool, len(r.p.Traces))
	r.buf.Reset()
	sp.begin("e2e_serial")
	for i := range r.p.Traces {
		var err error
		cells["trace.decode_alloc_mib"] += allocated(func() {
			sp.begin("trace.decode")
			traces[i], err = trace.ReadDir(r.p.Traces[i].Dir)
			sp.end()
		}) / mib
		if err != nil {
			return err
		}
		sp.begin("verify.analyze")
		a, err := verify.AnalyzeOpts(traces[i], verify.AlgoAuto, verify.AnalyzeOptions{Workers: 1})
		sp.end()
		if err != nil {
			return err
		}
		graphs[i] = a.Graph != nil
		reps, err := r.verifyModels(sp, a, "verify.", cells)
		if err != nil {
			return err
		}
		sp.begin("verify.render")
		for _, rep := range reps {
			rep.Render(&r.buf)
		}
		sp.end()
	}
	sp.end()
	cells["verify.render_bytes"] = float64(r.buf.Len())

	runtime.GC()
	sp.begin("layers")
	for i, tr := range traces {
		if err := r.isolated(sp, tr, graphs[i], cells); err != nil {
			return err
		}
	}
	sp.end()
	traces = nil

	// The same layers used the streaming way.
	runtime.GC()
	r.buf.Reset()
	sp.begin("stream")
	for i := range r.p.Traces {
		dir := r.p.Traces[i].Dir
		sp.begin("trace.stream_decode")
		peak, err := drain(dir)
		sp.end()
		if err != nil {
			return err
		}
		cells["trace.stream_peak_resident_mib"] = max(cells["trace.stream_peak_resident_mib"], float64(peak)/mib)

		sp.begin("verify.analyze_stream")
		a, err := verify.AnalyzeStream(dir, verify.AlgoAuto, verify.StreamAnalyzeOptions{
			AnalyzeOptions: verify.AnalyzeOptions{Workers: 1}, WindowBytes: streamWindow})
		sp.end()
		if err != nil {
			return err
		}
		sp.begin("verify.stream_verify")
		reps, err := r.verifyModels(nil, a, "", nil)
		sp.end()
		if err != nil {
			return err
		}
		sp.begin("verify.stream_render")
		for _, rep := range reps {
			rep.Render(&r.buf)
		}
		sp.end()
	}
	sp.end()

	// The public API with a verdict cache in front: empty, holding this
	// input's verdicts, and holding the verdicts from before the input grew.
	for _, c := range []struct{ name, pristine string }{
		{"vcache.cold", ""}, {"vcache.warm", r.p.FullCache}, {"vcache.append", r.p.BaseCache},
	} {
		dir, err := r.restore(c.pristine)
		if err != nil {
			return err
		}
		reps, err := r.tracedAPI(sp, c.name, 1, dir)
		if err != nil {
			return err
		}
		if c.name != "vcache.append" {
			continue
		}
		var hits, lookups int64
		for _, trace := range reps {
			for _, rep := range trace {
				if rep.Cache != nil {
					hits += rep.Cache.Hits
					lookups += rep.Cache.Hits + rep.Cache.Misses
					cells["vcache.dirty_chunks"] += float64(rep.Cache.DirtyChunks)
				}
			}
		}
		if lookups > 0 {
			cells["vcache.hit_ratio"] = float64(hits) / float64(lookups)
		}
		size, err := dirBytes(dir)
		if err != nil {
			return err
		}
		cells["vcache.disk_bytes"] = float64(size)
	}
	return nil
}

// tracedAPI runs the workload's public-API path once under a root span and
// checks its reports.
func (r *runner) tracedAPI(sp *spans, name string, workers int, cacheDir string) ([][]*verifyio.Report, error) {
	runtime.GC()
	sp.begin(name)
	reps, err := r.api(workers, cacheDir)
	sp.end()
	r.check(reps, err)
	return reps, err
}

// verifyModels verifies the analysis under the four models in their fixed
// order. With sp set each model gets a span named prefix+model and its race
// count a cell; the first model's span includes the shared plan build.
func (r *runner) verifyModels(sp *spans, a *verify.Analysis, prefix string, cells map[string]float64) ([]*verify.Report, error) {
	reps := make([]*verify.Report, nModels)
	for m, model := range semantics.All() {
		if sp != nil {
			sp.begin(prefix + modelKeys[m])
		}
		rep, err := a.Verify(verify.Options{Model: model, Workers: 1})
		if sp != nil {
			sp.end()
		}
		if err != nil {
			return nil, err
		}
		if cells != nil {
			cells["verify.races_"+modelKeys[m]] += float64(rep.RaceCount)
		}
		reps[m] = rep
	}
	return reps, nil
}

// isolated times each analysis layer on its own, as verify.AnalyzeOpts calls
// them, so that their sum can be held against the verify.analyze span.
func (r *runner) isolated(sp *spans, tr *trace.Trace, graph bool, cells map[string]float64) error {
	var conf *conflict.Result
	var err error
	cells["conflict.alloc_mib"] += allocated(func() {
		sp.begin("conflict.detect")
		conf, err = conflict.DetectOpts(tr, conflict.Options{Workers: 1})
		sp.end()
	}) / mib
	if err != nil {
		return err
	}
	cells["conflict.ops"] += float64(len(conf.Ops))
	cells["conflict.pairs"] += float64(conf.Pairs)
	cells["conflict.groups"] += float64(len(conf.Groups))

	sp.begin("match.match")
	mres, err := match.MatchOpts(tr, match.Options{Workers: 1})
	sp.end()
	if err != nil {
		return err
	}
	cells["match.edges"] += float64(len(mres.Edges))
	cells["match.problems"] += float64(len(mres.Problems))

	if !graph {
		return nil // the analysis chose the graph-free on-the-fly oracle
	}
	counts := make([]int, tr.NumRanks())
	for rank, recs := range tr.Ranks {
		counts[rank] = len(recs)
	}
	sp.begin("hbgraph.build")
	g, err := hbgraph.BuildCounts(counts, mres.Edges)
	sp.end()
	if err != nil {
		return err
	}
	cells["hbgraph.nodes"] += float64(g.Nodes())
	cells["hbgraph.skeleton_nodes"] += float64(g.SkeletonNodes())

	sp.begin("hbgraph.oracle")
	arena := 0
	seg, err := g.SegReachability(hbgraph.SegOptions{Workers: 1})
	if err == nil {
		arena = seg.ArenaBytes()
	} else {
		// Over the byte budget: vector clocks, as verify falls back.
		cells["hbgraph.seg_fallback"] = 1
		var vc *hbgraph.VCOracle
		if vc, err = g.VectorClocksOpts(hbgraph.VCOptions{Workers: 1}); err == nil {
			arena = vc.ArenaBytes()
		}
	}
	sp.end()
	cells["hbgraph.oracle_mib"] += float64(arena) / mib
	return err
}

// drain decodes a trace directory through the streaming decoder, releasing
// every batch, and returns the decoder's peak resident bytes.
func drain(dir string) (int64, error) {
	s, err := trace.OpenStream(dir, trace.StreamOptions{WindowBytes: streamWindow})
	if err != nil {
		return 0, err
	}
	defer s.Close()
	for {
		b, err := s.Next()
		if err == io.EOF {
			return s.PeakResidentBytes(), nil
		}
		if err != nil {
			return 0, err
		}
		b.Release()
	}
}

// derive fills the cells computed from span times and other cells.
func derive(c map[string]float64, t map[string]spanTime, stream bool, records float64) {
	for span, cell := range map[string]string{
		"trace.decode": "trace.decode_ms", "trace.stream_decode": "trace.stream_decode_ms",
		"conflict.detect": "conflict.detect_ms", "match.match": "match.match_ms",
		"hbgraph.build": "hbgraph.build_ms", "hbgraph.oracle": "hbgraph.oracle_ms",
		"verify.analyze": "verify.analyze_ms", "verify.analyze_stream": "verify.analyze_stream_ms",
		"verify.stream_verify": "verify.stream_verify_ms", "verify.render": "verify.render_ms",
		"verify.posix": "verify.posix_ms", "verify.commit": "verify.commit_ms",
		"verify.session": "verify.session_ms", "verify.mpiio": "verify.mpiio_ms",
		"vcache.cold": "vcache.cold_ms", "vcache.warm": "vcache.warm_ms", "vcache.append": "vcache.append_ms",
		"verifyio.serial_e2e": "verifyio.serial_e2e_ms",
	} {
		c[cell] = t[span].TotalMS
	}
	// The serial public-API run without a cache is the cache's bypass.
	c["vcache.nocache_ms"] = c["verifyio.serial_e2e_ms"]

	verifySum := c["verify.posix_ms"] + c["verify.commit_ms"] + c["verify.session_ms"] + c["verify.mpiio_ms"]
	c["trace.decode_ns_per_record"] = c["trace.decode_ms"] * 1e6 / records
	c["trace.bytes_per_record"] = c["trace.dir_bytes"] / records
	c["conflict.detect_ns_per_op"] = c["conflict.detect_ms"] * 1e6 / c["conflict.ops"]
	if c["conflict.pairs"] > 0 {
		c["verify.ns_per_pair"] = verifySum * 1e6 / c["conflict.pairs"]
	}
	c["verify.analyze_cover_ratio"] = (c["conflict.detect_ms"] + c["match.match_ms"] +
		c["hbgraph.build_ms"] + c["hbgraph.oracle_ms"]) / c["verify.analyze_ms"]

	stages := c["trace.decode_ms"] + c["verify.analyze_ms"] + verifySum + c["verify.render_ms"]
	if stream {
		stages = c["verify.analyze_stream_ms"] + c["verify.stream_verify_ms"] + t["verify.stream_render"].TotalMS
	}
	c["verifyio.stage_sum_ratio"] = stages / c["verifyio.serial_e2e_ms"]
	if runtime.GOMAXPROCS(0) > 1 {
		c["verifyio.parallel_speedup"] = c["verifyio.serial_e2e_ms"] / t["verifyio.parallel_e2e"].TotalMS
	} else {
		// At one core there is no parallel run to compare with: the cell is
		// left out, never reported as 1.
		delete(c, "verifyio.parallel_speedup")
	}
}
