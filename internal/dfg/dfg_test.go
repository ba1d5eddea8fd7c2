package dfg

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"verifyio/internal/obs"
	"verifyio/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files")

// ev is one call in a synthetic rank program.
type ev struct {
	layer trace.Layer
	fn    string
	args  []string
}

func appendEvents(tr *trace.Trace, rank int, evs []ev) {
	tick := int64(len(tr.Ranks[rank]) * 2)
	for _, e := range evs {
		tick++
		tr.Append(trace.Record{
			Rank: rank, Func: e.fn, Layer: e.layer,
			Args: e.args, Tick: tick, Ret: tick + 1,
		})
		tick++
	}
}

// phase helpers: open fd 3 on path, write, sync, barrier, read back, close.
func cleanProgram() []ev {
	return []ev{
		{trace.LayerPOSIX, "open", []string{"data.bin", "rdwr|create", "3"}},
		{trace.LayerPOSIX, "pwrite", []string{"3", "256", "0"}},
		{trace.LayerPOSIX, "pwrite", []string{"3", "256", "256"}},
		{trace.LayerPOSIX, "fsync", []string{"3"}},
		{trace.LayerMPI, "MPI_Barrier", []string{"comm0"}},
		{trace.LayerPOSIX, "pread", []string{"3", "256", "0"}},
		{trace.LayerMPI, "MPI_Barrier", []string{"comm0"}},
		{trace.LayerPOSIX, "close", []string{"3"}},
	}
}

// divergentProgram is the clean program with an extra read-modify-write
// phase spliced in before the final barrier.
func divergentProgram() []ev {
	evs := cleanProgram()
	rmw := []ev{}
	for i := 0; i < 4; i++ {
		rmw = append(rmw,
			ev{trace.LayerPOSIX, "pread", []string{"3", "64", "0"}},
			ev{trace.LayerPOSIX, "pwrite", []string{"3", "64", "0"}},
		)
	}
	out := append([]ev{}, evs[:6]...) // ...through the first pread
	out = append(out, rmw...)
	out = append(out, evs[6:]...)
	return out
}

func buildTrace(nranks, divergent int) *trace.Trace {
	tr := trace.New(nranks)
	tr.Meta["program"] = "dfg-test"
	for r := 0; r < nranks; r++ {
		if r == divergent {
			appendEvents(tr, r, divergentProgram())
		} else {
			appendEvents(tr, r, cleanProgram())
		}
	}
	return tr
}

func fleetJSON(t *testing.T, f *Fleet) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := f.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func fleetDOT(t *testing.T, f *Fleet) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := f.WriteDOT(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestDivergentRankAnomalous(t *testing.T) {
	f := FromTrace(buildTrace(4, 2), Options{})
	if f.MajoritySize != 3 {
		t.Fatalf("majority size = %d, want 3", f.MajoritySize)
	}
	if len(f.AnomalousRanks) != 1 || f.AnomalousRanks[0] != 2 {
		t.Fatalf("anomalous ranks = %v, want [2]", f.AnomalousRanks)
	}
	if s := f.Scores[2]; !s.Anomalous || s.Score <= 0 || s.StructDiff == 0 {
		t.Fatalf("rank 2 score = %+v, want anomalous with positive score and struct diff", s)
	}
	for _, r := range []int{0, 1, 3} {
		if s := f.Scores[r]; s.Anomalous || s.Score != 0 {
			t.Fatalf("clean rank %d score = %+v, want zero", r, s)
		}
	}
	if f.Archetype != "read-modify-write" {
		t.Fatalf("archetype = %q, want read-modify-write", f.Archetype)
	}
}

func TestCleanFleetScoresZero(t *testing.T) {
	f := FromTrace(buildTrace(4, -1), Options{})
	if len(f.AnomalousRanks) != 0 {
		t.Fatalf("anomalous ranks = %v, want none", f.AnomalousRanks)
	}
	if f.MajoritySize != 4 {
		t.Fatalf("majority size = %d, want 4", f.MajoritySize)
	}
	for _, s := range f.Scores {
		if s.Score != 0 || s.Anomalous || s.Straggler {
			t.Fatalf("score = %+v, want zero", s)
		}
	}
	if f.Archetype != "mixed" {
		t.Fatalf("archetype = %q, want mixed", f.Archetype)
	}
}

// TestNoMajorityNoAnomaly: with no strict structural majority there is no
// consensus to deviate from, so nothing is flagged (the 2-rank
// producer/consumer shape must not trip the gate).
func TestNoMajorityNoAnomaly(t *testing.T) {
	tr := trace.New(2)
	appendEvents(tr, 0, []ev{
		{trace.LayerPOSIX, "open", []string{"a", "wronly|create", "3"}},
		{trace.LayerPOSIX, "pwrite", []string{"3", "128", "0"}},
		{trace.LayerPOSIX, "close", []string{"3"}},
	})
	appendEvents(tr, 1, []ev{
		{trace.LayerPOSIX, "open", []string{"a", "rdonly", "3"}},
		{trace.LayerPOSIX, "pread", []string{"3", "128", "0"}},
		{trace.LayerPOSIX, "close", []string{"3"}},
	})
	f := FromTrace(tr, Options{})
	if f.MajorityFP != "" || len(f.AnomalousRanks) != 0 {
		t.Fatalf("majority = %q anomalous = %v, want no majority and no anomalies",
			f.MajorityFP, f.AnomalousRanks)
	}
	for _, s := range f.Scores {
		if s.Score == 0 {
			t.Fatalf("rank %d score = 0: asymmetric ranks should still diverge from consensus", s.Rank)
		}
	}
}

// TestStragglerFlagged: a rank that matches the majority shape but repeats
// an edge far past the consensus median is a straggler.
func TestStragglerFlagged(t *testing.T) {
	loop := func(n int) []ev {
		evs := []ev{{trace.LayerPOSIX, "open", []string{"log", "wronly|create", "3"}}}
		for i := 0; i < n; i++ {
			evs = append(evs, ev{trace.LayerPOSIX, "pwrite", []string{"3", "8", fmt.Sprint(8 * i)}})
		}
		return append(evs, ev{trace.LayerPOSIX, "close", []string{"3"}})
	}
	tr := trace.New(5)
	for r := 0; r < 4; r++ {
		appendEvents(tr, r, loop(20))
	}
	appendEvents(tr, 4, loop(1000))
	f := FromTrace(tr, Options{})
	if len(f.AnomalousRanks) != 1 || f.AnomalousRanks[0] != 4 {
		t.Fatalf("anomalous ranks = %v, want [4]", f.AnomalousRanks)
	}
	if s := f.Scores[4]; !s.Straggler || !s.Anomalous {
		t.Fatalf("rank 4 score = %+v, want straggler", s)
	}
	for r := 0; r < 4; r++ {
		if f.Scores[r].Anomalous {
			t.Fatalf("rank %d flagged: %+v", r, f.Scores[r])
		}
	}
}

// TestDeterministicAcrossFeedOrders is the byte-determinism contract: the
// same trace fed to a Builder with the ranks in any order, in ragged batches,
// gives the JSON and DOT bytes of FromTrace.
func TestDeterministicAcrossFeedOrders(t *testing.T) {
	tr := buildTrace(6, 3)
	base := FromTrace(tr, Options{})
	wantJSON, wantDOT := fleetJSON(t, base), fleetDOT(t, base)
	for _, order := range [][]int{{5, 4, 3, 2, 1, 0}, {3, 0, 5, 1, 4, 2}} {
		b := NewBuilder(0, obs.Ctx{}) // grows on demand
		for _, rank := range order {
			recs := tr.Ranks[rank]
			for lo := 0; lo < len(recs); {
				hi := min(lo+1+(lo+rank)%7, len(recs))
				b.Feed(rank, recs[lo:hi])
				lo = hi
			}
		}
		f := b.Finish()
		if !bytes.Equal(fleetJSON(t, f), wantJSON) {
			t.Fatalf("ranks fed in order %v: JSON differs from FromTrace", order)
		}
		if !bytes.Equal(fleetDOT(t, f), wantDOT) {
			t.Fatalf("ranks fed in order %v: DOT differs from FromTrace", order)
		}
	}
}

// TestStreamMatchesFromTrace: the build off a directory (small window, many
// batches per rank) must produce byte-identical output to the build from
// memory, and its peak resident decode bytes must stay bounded by the
// window.
func TestStreamMatchesFromTrace(t *testing.T) {
	tr := buildTrace(4, 1)
	// Pad the trace so a small window forces multiple batches per rank.
	for r := 0; r < 4; r++ {
		var evs []ev
		for i := 0; i < 300; i++ {
			evs = append(evs, ev{trace.LayerPOSIX, "pwrite", []string{"3", "8", fmt.Sprint(8 * i)}})
		}
		appendEvents(tr, r, evs)
	}
	dir := t.TempDir()
	if err := trace.WriteDir(dir, tr, trace.DefaultEncodeOptions()); err != nil {
		t.Fatal(err)
	}
	want := fleetJSON(t, FromTrace(tr, Options{}))

	const window = 1 << 12
	reg := obs.NewRegistry()
	f, err := BuildStreamDir(dir, StreamOptions{
		WindowBytes: window,
		Obs:         obs.Ctx{R: reg},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := fleetJSON(t, f); !bytes.Equal(got, want) {
		t.Fatalf("streamed fleet differs from materialized fleet")
	}
	snap := reg.Snapshot()
	peak := snap.Stable.Gauges["decode.peak_resident_bytes"]
	if peak <= 0 || peak > 2*window {
		t.Fatalf("decode.peak_resident_bytes = %d, want in (0, %d]", peak, 2*window)
	}
	if snap.Stable.Gauges["dfg.nodes"] != int64(f.Nodes) ||
		snap.Stable.Gauges["dfg.edges"] != int64(f.Edges) ||
		snap.Stable.Gauges["dfg.anomalous_ranks"] != int64(len(f.AnomalousRanks)) {
		t.Fatalf("dfg gauges %v don't match fleet (%d nodes, %d edges, %d anomalous)",
			snap.Stable.Gauges, f.Nodes, f.Edges, len(f.AnomalousRanks))
	}
}

// TestBuilderUnknownHandleAndUnlink: operations on never-opened handles
// keep a distinguishable tag, and unlink retires a path's identity so the
// next open gets a fresh file tag (mirroring the conflict replayer).
func TestBuilderUnknownHandleAndUnlink(t *testing.T) {
	tr := trace.New(1)
	appendEvents(tr, 0, []ev{
		{trace.LayerPOSIX, "pwrite", []string{"9", "64", "0"}}, // unknown handle
		{trace.LayerPOSIX, "open", []string{"a", "wronly|create", "3"}},
		{trace.LayerPOSIX, "close", []string{"3"}},
		{trace.LayerPOSIX, "unlink", []string{"a"}},
		{trace.LayerPOSIX, "open", []string{"a", "wronly|create", "3"}},
		{trace.LayerPOSIX, "close", []string{"3"}},
	})
	f := FromTrace(tr, Options{})
	g := f.Graphs[0]
	want := map[string]int64{
		"write:f?": 1, // unknown handle
		"meta:f0":  3, // open, close, unlink of the first identity
		"meta:f1":  2, // open, close of the post-unlink identity
	}
	got := map[string]int64{}
	for _, n := range g.Nodes {
		got[n.Label] = n.Count
	}
	for label, count := range want {
		if got[label] != count {
			t.Fatalf("node %q count = %d, want %d (nodes: %v)", label, got[label], count, got)
		}
	}
}

func TestGolden(t *testing.T) {
	f := FromTrace(buildTrace(3, 2), Options{})
	for _, tc := range []struct {
		name string
		got  []byte
	}{
		{"fleet.golden.json", fleetJSON(t, f)},
		{"fleet.golden.dot", fleetDOT(t, f)},
	} {
		path := filepath.Join("testdata", tc.name)
		if *update {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with -update to create)", err)
		}
		if !bytes.Equal(tc.got, want) {
			t.Fatalf("%s drifted from golden output; rerun with -update and review the diff.\ngot:\n%s", tc.name, tc.got)
		}
	}
}
