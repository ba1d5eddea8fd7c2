package main

// metric is one row of the metric tables in README.md; BENCHMARK.json lists
// the same rows and TestManifestMatchesTables holds the two together.
type metric struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the baseline by which an end-to-end metric may
	// worsen before -compare fails. Per-layer metrics have none.
	Bound float64
}

// exact reports whether two runs of one commit on one seed must agree on the
// metric to the last digit: it is a count made at Workers = 1, not a
// measurement of time or memory.
func (m metric) exact() bool {
	switch m.Unit {
	case "count", "B", "0/1":
		// A rendered report prints its stage durations, so its length
		// moves by a few bytes from run to run.
		return m.Name != "verify.render_bytes"
	}
	return false
}

var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"e2e_ms", "ms", "lower", 0.25},
	{"cpu_ms", "ms", "lower", 0.25},
	{"peak_rss_mib", "MiB", "lower", 0.20},
}

var perLayer = []metric{
	{Name: "trace.decode_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.decode_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "trace.decode_alloc_mib", Unit: "MiB", Better: "lower"},
	{Name: "trace.bytes_per_record", Unit: "B/record", Better: "lower"},
	{Name: "trace.dir_bytes", Unit: "B", Better: "lower"},
	{Name: "trace.stream_decode_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.stream_peak_resident_mib", Unit: "MiB", Better: "lower"},
	{Name: "conflict.detect_ms", Unit: "ms", Better: "lower"},
	{Name: "conflict.detect_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "conflict.alloc_mib", Unit: "MiB", Better: "lower"},
	{Name: "conflict.ops", Unit: "count", Better: "lower"},
	{Name: "conflict.pairs", Unit: "count", Better: "lower"},
	{Name: "conflict.groups", Unit: "count", Better: "lower"},
	{Name: "match.match_ms", Unit: "ms", Better: "lower"},
	{Name: "match.edges", Unit: "count", Better: "lower"},
	{Name: "match.problems", Unit: "count", Better: "lower"},
	{Name: "hbgraph.build_ms", Unit: "ms", Better: "lower"},
	{Name: "hbgraph.oracle_ms", Unit: "ms", Better: "lower"},
	{Name: "hbgraph.oracle_mib", Unit: "MiB", Better: "lower"},
	{Name: "hbgraph.nodes", Unit: "count", Better: "lower"},
	{Name: "hbgraph.skeleton_nodes", Unit: "count", Better: "lower"},
	{Name: "hbgraph.seg_fallback", Unit: "0/1", Better: "lower"},
	{Name: "verify.analyze_ms", Unit: "ms", Better: "lower"},
	{Name: "verify.analyze_cover_ratio", Unit: "ratio", Better: "higher"},
	{Name: "verify.posix_ms", Unit: "ms", Better: "lower"},
	{Name: "verify.commit_ms", Unit: "ms", Better: "lower"},
	{Name: "verify.session_ms", Unit: "ms", Better: "lower"},
	{Name: "verify.mpiio_ms", Unit: "ms", Better: "lower"},
	{Name: "verify.ns_per_pair", Unit: "ns", Better: "lower"},
	{Name: "verify.races_posix", Unit: "count", Better: "lower"},
	{Name: "verify.races_commit", Unit: "count", Better: "lower"},
	{Name: "verify.races_session", Unit: "count", Better: "lower"},
	{Name: "verify.races_mpiio", Unit: "count", Better: "lower"},
	{Name: "verify.analyze_stream_ms", Unit: "ms", Better: "lower"},
	{Name: "verify.stream_verify_ms", Unit: "ms", Better: "lower"},
	{Name: "verify.render_ms", Unit: "ms", Better: "lower"},
	{Name: "verify.render_bytes", Unit: "B", Better: "lower"},
	{Name: "vcache.nocache_ms", Unit: "ms", Better: "lower"},
	{Name: "vcache.cold_ms", Unit: "ms", Better: "lower"},
	{Name: "vcache.warm_ms", Unit: "ms", Better: "lower"},
	{Name: "vcache.append_ms", Unit: "ms", Better: "lower"},
	{Name: "vcache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "vcache.dirty_chunks", Unit: "count", Better: "lower"},
	{Name: "vcache.disk_bytes", Unit: "B", Better: "lower"},
	{Name: "verifyio.serial_e2e_ms", Unit: "ms", Better: "lower"},
	{Name: "verifyio.stage_sum_ratio", Unit: "ratio", Better: "higher"},
	{Name: "verifyio.parallel_speedup", Unit: "ratio", Better: "higher"},
	{Name: "host.calib_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.span_overhead_pct", Unit: "%", Better: "lower"},
}
