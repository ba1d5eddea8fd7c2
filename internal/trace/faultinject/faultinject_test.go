package faultinject

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"verifyio/internal/trace"
)

// sampleTrace is a small but representative trace: multiple ranks, nested
// calls with chains, args, and metadata — every decode section populated.
func sampleTrace(tb testing.TB) *trace.Trace {
	tb.Helper()
	tr := trace.New(2)
	tr.Meta["program"] = "faultinject"
	tr.Meta["fs.mode"] = "posix"
	tick := []int64{0, 0}
	add := func(rank int, layer trace.Layer, fn string, chain []string, args ...string) {
		tick[rank] += 2
		tr.Append(trace.Record{
			Rank: rank, Func: fn, Layer: layer,
			Args: args, Tick: tick[rank], Ret: tick[rank] + 1,
			Ctx: trace.NewContext(chain, fmt.Sprintf("site%d", rank)),
		})
	}
	for rank := 0; rank < 2; rank++ {
		add(rank, trace.LayerMPIIO, "MPI_File_open", nil, "comm0", "f.bin", "rw")
		add(rank, trace.LayerPOSIX, "open", []string{"mpi-io:MPI_File_open@m"}, "f.bin", "rw", "3")
		for i := 0; i < 6; i++ {
			add(rank, trace.LayerPOSIX, "pwrite",
				[]string{"mpi-io:MPI_File_write_at@m"}, "3", "8", fmt.Sprint(8*i))
		}
		add(rank, trace.LayerPOSIX, "close", nil, "3")
	}
	if err := tr.Validate(); err != nil {
		tb.Fatalf("sample trace invalid: %v", err)
	}
	return tr
}

func encode(tb testing.TB, tr *trace.Trace, compress bool) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := trace.Encode(&buf, tr, trace.EncodeOptions{Compress: compress}); err != nil {
		tb.Fatalf("Encode: %v", err)
	}
	return buf.Bytes()
}

// testLimits is a deliberately tight budget so the allocation assertions
// have teeth: a varint bomb that slipped past a cap would blow through it
// by orders of magnitude.
func testLimits() trace.Limits {
	return trace.Limits{MaxPayload: 1 << 20}
}

// allocBudget is the harness-level allocation ceiling: the payload budget
// plus slack for append growth, bufio/flate buffers and test scaffolding.
// The bugs this guards against (a corrupt Depth varint driving a multi-GiB
// make) overshoot it by three orders of magnitude.
const allocBudget = 1<<20*4 + 1<<23

// TestCorpusResilience is the core fault-injection property: for every
// mutation of a valid trace — truncations at every section boundary, varint
// bombs, flipped bits, both compressed and not — Decode never panics, never
// allocates past the budget, and classifies every failure.
func TestCorpusResilience(t *testing.T) {
	for _, compress := range []bool{false, true} {
		t.Run(fmt.Sprintf("compress=%v", compress), func(t *testing.T) {
			data := encode(t, sampleTrace(t), compress)
			cases := Corpus(data)
			if len(cases) < 50 {
				t.Fatalf("suspiciously small corpus: %d cases", len(cases))
			}
			sections := map[string]bool{}
			for _, c := range cases {
				out := Exercise(c.Data, trace.DecodeOptions{Limits: testLimits()})
				if out.Panicked {
					t.Fatalf("%s: decoder panicked: %v", c.Name, out.PanicValue)
				}
				if out.AllocBytes > allocBudget {
					t.Errorf("%s: allocated %d bytes (budget %d)", c.Name, out.AllocBytes, allocBudget)
				}
				if out.Err != nil {
					de, ok := trace.AsDecodeError(out.Err)
					if !ok {
						t.Fatalf("%s: unclassified error: %v", c.Name, out.Err)
					}
					sections[de.Section] = true
				}

				// The same stream in tolerate mode: still no panic, and
				// whatever comes back must be a valid trace.
				tout := Exercise(c.Data, trace.DecodeOptions{Tolerate: true, Limits: testLimits()})
				if tout.Panicked {
					t.Fatalf("%s (tolerate): decoder panicked: %v", c.Name, tout.PanicValue)
				}
				if tout.Err == nil {
					if verr := tout.Trace.Validate(); verr != nil {
						t.Fatalf("%s (tolerate): salvaged trace invalid: %v", c.Name, verr)
					}
				} else if _, ok := trace.AsDecodeError(tout.Err); !ok {
					t.Fatalf("%s (tolerate): unclassified error: %v", c.Name, tout.Err)
				}
			}
			// The corpus must have hit every decode section.
			for _, want := range []string{"header", "meta", "string-table", "records"} {
				if !sections[want] {
					t.Errorf("no mutation produced a failure in section %q (got %v)", want, sections)
				}
			}
		})
	}
}

// TestBombsRejectedByLimits pins the satellite bug: size-field bombs (the
// corrupt Depth varint that used to drive a multi-GiB allocation, plus every
// other counter) must die on a limit or corruption check, cheaply.
func TestBombsRejectedByLimits(t *testing.T) {
	data := encode(t, sampleTrace(t), false)
	bombs := Bombs(data)
	if len(bombs) < 6 {
		t.Fatalf("expected bombs on every counter, got %d: %v", len(bombs), bombs)
	}
	seenDepth := false
	for _, c := range bombs {
		out := Exercise(c.Data, trace.DecodeOptions{Limits: testLimits()})
		if out.Panicked {
			t.Fatalf("%s: panicked: %v", c.Name, out.PanicValue)
		}
		if out.Err == nil {
			t.Fatalf("%s: bombed stream decoded successfully", c.Name)
		}
		de, ok := trace.AsDecodeError(out.Err)
		if !ok {
			t.Fatalf("%s: unclassified error: %v", c.Name, out.Err)
		}
		if de.Kind != trace.LimitExceeded && de.Kind != trace.Corrupt && de.Kind != trace.Truncated {
			t.Fatalf("%s: unexpected kind %v", c.Name, de.Kind)
		}
		if out.AllocBytes > allocBudget {
			t.Errorf("%s: allocated %d bytes for a bombed counter", c.Name, out.AllocBytes)
		}
		if c.Name == "bomb@depth[r0,i0]" {
			seenDepth = true
			if de.Kind != trace.LimitExceeded {
				t.Errorf("depth bomb classified %v, want limit-exceeded", de.Kind)
			}
		}
	}
	if !seenDepth {
		t.Error("corpus missing the depth bomb (the encode.go:250 regression)")
	}
}

// TestTruncationsCoverEverySectionBoundary checks the corpus construction
// itself: a truncation case exists at the end of each layout section.
func TestTruncationsCoverEverySectionBoundary(t *testing.T) {
	data := encode(t, sampleTrace(t), false)
	spans, err := trace.Layout(data)
	if err != nil {
		t.Fatal(err)
	}
	cuts := map[int64]bool{}
	for _, c := range Truncations(data) {
		cuts[int64(len(c.Data))] = true
	}
	for _, s := range spans {
		if s.End < int64(len(data)) && !cuts[s.End] {
			t.Errorf("no truncation at %s end (offset %d)", s.Name, s.End)
		}
	}
}

// TestExerciseDir covers the directory reader: a rank file truncated
// mid-stream fails strict ReadDir with a classified error and salvages in
// tolerate mode with accurate counts.
func TestExerciseDir(t *testing.T) {
	tr := sampleTrace(t)
	dir := t.TempDir()
	if err := trace.WriteDir(dir, tr, trace.EncodeOptions{Compress: false}); err != nil {
		t.Fatal(err)
	}
	// Chop rank 1's file mid-records: after its 4th record.
	path := filepath.Join(dir, "rank-1.viot")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	spans, err := trace.Layout(data)
	if err != nil {
		t.Fatal(err)
	}
	rec3, ok := trace.SpanByName(spans, "record", 0, 3)
	if !ok {
		t.Fatal("no span for record 3")
	}
	if err := os.WriteFile(path, data[:rec3.End+2], 0o644); err != nil {
		t.Fatal(err)
	}

	out := ExerciseDir(dir, trace.DecodeOptions{Limits: testLimits()})
	if out.Panicked {
		t.Fatalf("strict ReadDir panicked: %v", out.PanicValue)
	}
	if _, ok := trace.AsDecodeError(out.Err); !ok {
		t.Fatalf("strict ReadDir error not classified: %v", out.Err)
	}

	tout := ExerciseDir(dir, trace.DecodeOptions{Tolerate: true, Limits: testLimits()})
	if tout.Panicked {
		t.Fatalf("tolerant ReadDir panicked: %v", tout.PanicValue)
	}
	if tout.Err != nil {
		t.Fatalf("tolerant ReadDir failed: %v", tout.Err)
	}
	if got := len(tout.Trace.Ranks[1]); got != 4 {
		t.Errorf("salvaged %d records on rank 1, want 4", got)
	}
	if n := len(tout.Stats.Ranks); n != 1 {
		t.Fatalf("stats report %d damaged ranks, want 1", n)
	}
	rr := tout.Stats.Ranks[0]
	if rr.Rank != 1 || rr.Salvaged != 4 || rr.Dropped != len(tr.Ranks[1])-4 {
		t.Errorf("recovery = %+v, want rank 1 salvaged 4 dropped %d", rr, len(tr.Ranks[1])-4)
	}
	if verr := tout.Trace.Validate(); verr != nil {
		t.Errorf("salvaged trace invalid: %v", verr)
	}
}
