package trace

import (
	"bytes"
	"compress/flate"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// encodeBytes encodes tr and returns the raw stream.
func encodeBytes(t *testing.T, tr *Trace, compress bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, tr, EncodeOptions{Compress: compress}); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return buf.Bytes()
}

// spliceVarint replaces the span [s.Start, s.End) in data with the varint
// encoding of v.
func spliceVarint(data []byte, s Span, v uint64) []byte {
	var enc []byte
	for v >= 0x80 {
		enc = append(enc, byte(v)|0x80)
		v >>= 7
	}
	enc = append(enc, byte(v))
	out := make([]byte, 0, len(data))
	out = append(out, data[:s.Start]...)
	out = append(out, enc...)
	out = append(out, data[s.End:]...)
	return out
}

func mustSpan(t *testing.T, data []byte, name string, rank, index int) Span {
	t.Helper()
	spans, err := Layout(data)
	if err != nil {
		t.Fatalf("Layout: %v", err)
	}
	s, ok := SpanByName(spans, name, rank, index)
	if !ok {
		t.Fatalf("no %s span (rank %d, index %d)", name, rank, index)
	}
	return s
}

// TestCorruptStreamsClassified is the table-driven regression suite for the
// ingestion hardening: each case plants one specific corruption and pins the
// DecodeError kind (and section) the decoder must classify it as.
func TestCorruptStreamsClassified(t *testing.T) {
	const bomb = uint64(1) << 62
	cases := []struct {
		name        string
		mutate      func(t *testing.T, data []byte) []byte
		wantKind    ErrKind
		wantSection string
	}{
		{
			// The original bug: a corrupt Depth varint drove
			// make([]string, rec.Depth) with a multi-GiB count.
			name: "depth varint bomb",
			mutate: func(t *testing.T, data []byte) []byte {
				return spliceVarint(data, mustSpan(t, data, "depth", 0, 0), bomb)
			},
			wantKind:    LimitExceeded,
			wantSection: "records",
		},
		{
			name: "meta count bomb",
			mutate: func(t *testing.T, data []byte) []byte {
				return spliceVarint(data, mustSpan(t, data, "meta-count", -1, -1), bomb)
			},
			wantKind:    LimitExceeded,
			wantSection: "meta",
		},
		{
			name: "string table count bomb",
			mutate: func(t *testing.T, data []byte) []byte {
				return spliceVarint(data, mustSpan(t, data, "string-count", -1, -1), bomb)
			},
			wantKind:    LimitExceeded,
			wantSection: "string-table",
		},
		{
			name: "rank count bomb",
			mutate: func(t *testing.T, data []byte) []byte {
				return spliceVarint(data, mustSpan(t, data, "nranks", -1, -1), bomb)
			},
			wantKind:    LimitExceeded,
			wantSection: "records",
		},
		{
			name: "record count bomb",
			mutate: func(t *testing.T, data []byte) []byte {
				return spliceVarint(data, mustSpan(t, data, "rank-count", 0, -1), bomb)
			},
			wantKind:    LimitExceeded,
			wantSection: "records",
		},
		{
			name: "string index out of table",
			mutate: func(t *testing.T, data []byte) []byte {
				s := mustSpan(t, data, "record", 0, 0)
				// The record leads with its Func string index.
				return spliceVarint(data, Span{Start: s.Start, End: s.Start + 1}, bomb)
			},
			wantKind:    Corrupt,
			wantSection: "records",
		},
		{
			name: "truncated mid-record",
			mutate: func(t *testing.T, data []byte) []byte {
				s := mustSpan(t, data, "record", 0, 1)
				return data[:s.Start+2]
			},
			wantKind:    Truncated,
			wantSection: "records",
		},
		{
			name: "truncated inside string table",
			mutate: func(t *testing.T, data []byte) []byte {
				s := mustSpan(t, data, "string-table", -1, -1)
				return data[:s.Start+3]
			},
			wantKind:    Truncated,
			wantSection: "string-table",
		},
		{
			name: "trailing garbage after payload",
			mutate: func(t *testing.T, data []byte) []byte {
				return append(bytes.Clone(data), "junk"...)
			},
			wantKind:    Corrupt,
			wantSection: "trailer",
		},
		{
			name: "overlong varint",
			mutate: func(t *testing.T, data []byte) []byte {
				s := mustSpan(t, data, "meta-count", -1, -1)
				over := bytes.Repeat([]byte{0xff}, 10) // > 64 bits
				out := append([]byte{}, data[:s.Start]...)
				out = append(out, over...)
				return append(out, data[s.End:]...)
			},
			wantKind:    Corrupt,
			wantSection: "meta",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := encodeBytes(t, sampleTrace(t), false)
			mut := tc.mutate(t, data)
			_, _, err := DecodeWithOptions(bytes.NewReader(mut), DecodeOptions{})
			de, ok := AsDecodeError(err)
			if !ok {
				t.Fatalf("error not classified: %v", err)
			}
			if de.Kind != tc.wantKind {
				t.Errorf("kind = %v, want %v (%v)", de.Kind, tc.wantKind, err)
			}
			if de.Section != tc.wantSection {
				t.Errorf("section = %q, want %q (%v)", de.Section, tc.wantSection, err)
			}
		})
	}
}

// TestFlateTruncationDetected pins the satellite fix for compressed
// payloads: a DEFLATE stream chopped anywhere — including after the last
// record but before the final-block terminator — must be reported, not
// silently ignored through the deferred Close.
func TestFlateTruncationDetected(t *testing.T) {
	data := encodeBytes(t, sampleTrace(t), true)
	for cut := 7; cut < len(data); cut += 3 {
		_, _, err := DecodeWithOptions(bytes.NewReader(data[:cut]), DecodeOptions{})
		if err == nil {
			t.Fatalf("decode accepted compressed stream cut at %d/%d bytes", cut, len(data))
		}
		de, ok := AsDecodeError(err)
		if !ok {
			t.Fatalf("cut at %d: unclassified error: %v", cut, err)
		}
		if de.Kind != Truncated && de.Kind != Corrupt {
			t.Errorf("cut at %d: kind %v, want truncated or corrupt", cut, de.Kind)
		}
	}
	// Cutting exactly the last byte (the final-block terminator lives at
	// the very end of the DEFLATE stream) must be Truncated specifically.
	_, _, err := DecodeWithOptions(bytes.NewReader(data[:len(data)-1]), DecodeOptions{})
	de, ok := AsDecodeError(err)
	if !ok || de.Kind != Truncated {
		t.Errorf("final-byte cut: got %v, want a Truncated DecodeError", err)
	}
}

// TestFlateTrailingGarbageDetected compresses a payload with junk appended
// inside the DEFLATE stream: the decoder must notice the payload keeps going
// past the decoded trace.
func TestFlateTrailingGarbageDetected(t *testing.T) {
	plain := encodeBytes(t, sampleTrace(t), false)
	var buf bytes.Buffer
	buf.Write([]byte(magic))
	buf.WriteByte(formatVer)
	buf.WriteByte(flagCompress)
	fw, err := flate.NewWriter(&buf, flate.DefaultCompression)
	if err != nil {
		t.Fatal(err)
	}
	fw.Write(plain[6:])
	fw.Write([]byte("garbage-after-the-trace"))
	fw.Close()

	_, _, derr := DecodeWithOptions(bytes.NewReader(buf.Bytes()), DecodeOptions{})
	de, ok := AsDecodeError(derr)
	if !ok || de.Kind != Corrupt || de.Section != "trailer" {
		t.Errorf("got %v, want a Corrupt trailer DecodeError", derr)
	}
	// Tolerate mode accepts the decoded trace and ignores the tail.
	tr, stats, terr := DecodeWithOptions(bytes.NewReader(buf.Bytes()), DecodeOptions{Tolerate: true})
	if terr != nil || !stats.Clean() {
		t.Fatalf("tolerate: err %v, stats %+v", terr, stats)
	}
	if !reflect.DeepEqual(tr, sampleTrace(t)) {
		t.Error("tolerate decode mismatch")
	}
}

// TestTolerateSalvagesPrefix checks lenient single-stream decoding: cutting
// a 2-rank stream inside rank 1's records keeps all of rank 0, the
// well-formed prefix of rank 1, and reports exact salvage counts.
func TestTolerateSalvagesPrefix(t *testing.T) {
	tr := sampleTrace(t)
	data := encodeBytes(t, tr, false)
	s := mustSpan(t, data, "record", 1, 0)
	cut := data[:s.End+1] // one byte into rank 1's second record

	got, stats, err := DecodeWithOptions(bytes.NewReader(cut), DecodeOptions{Tolerate: true})
	if err != nil {
		t.Fatalf("tolerant decode failed: %v", err)
	}
	if len(got.Ranks[0]) != len(tr.Ranks[0]) {
		t.Errorf("rank 0: %d records, want %d (must be untouched)", len(got.Ranks[0]), len(tr.Ranks[0]))
	}
	if len(got.Ranks[1]) != 1 {
		t.Errorf("rank 1: %d records salvaged, want 1", len(got.Ranks[1]))
	}
	if verr := got.Validate(); verr != nil {
		t.Errorf("salvaged trace invalid: %v", verr)
	}
	if len(stats.Ranks) != 1 {
		t.Fatalf("stats: %+v, want one damaged rank", stats.Ranks)
	}
	rr := stats.Ranks[0]
	wantDropped := len(tr.Ranks[1]) - 1
	if rr.Rank != 1 || rr.Salvaged != 1 || rr.Dropped != wantDropped {
		t.Errorf("recovery %+v, want rank 1 salvaged 1 dropped %d", rr, wantDropped)
	}
	var de *DecodeError
	if !errors.As(rr.Err, &de) || de.Kind != Truncated {
		t.Errorf("recovery error %v, want Truncated DecodeError", rr.Err)
	}
}

// TestTolerateEqualsIntactPrefix is the lenient-mode correctness anchor: a
// trace salvaged from a truncated stream must be byte-identical (under
// WriteText) to the intact trace that only ever contained the prefix.
func TestTolerateEqualsIntactPrefix(t *testing.T) {
	tr := sampleTrace(t)
	data := encodeBytes(t, tr, false)
	s := mustSpan(t, data, "record", 1, 0)

	got, _, err := DecodeWithOptions(bytes.NewReader(data[:s.End+1]), DecodeOptions{Tolerate: true})
	if err != nil {
		t.Fatal(err)
	}
	want := New(2)
	want.Meta = tr.Meta
	want.Ranks[0] = tr.Ranks[0]
	want.Ranks[1] = tr.Ranks[1][:1]

	var gotText, wantText bytes.Buffer
	if err := WriteText(&gotText, got); err != nil {
		t.Fatal(err)
	}
	if err := WriteText(&wantText, want); err != nil {
		t.Fatal(err)
	}
	if gotText.String() != wantText.String() {
		t.Errorf("salvaged trace differs from intact prefix:\n--- salvaged\n%s\n--- intact\n%s",
			gotText.String(), wantText.String())
	}
}

// TestTolerateTrimsInvariantViolations plants a corruption that decodes
// cleanly but violates the return-tick monotonicity: tolerate mode must trim
// to the longest valid prefix rather than hand verification an invalid
// trace.
func TestTolerateTrimsInvariantViolations(t *testing.T) {
	tr := sampleTrace(t)
	data := encodeBytes(t, tr, false)
	// Zero the ret-delta of rank 0's second record: Ret stops increasing.
	// The delta varint follows func index (1 byte), layer (1 byte), depth
	// (1 byte) — locate it via the depth span.
	depth := mustSpan(t, data, "depth", 0, 1)
	mut := bytes.Clone(data)
	mut[depth.End] = 0 // ret delta varint → 0

	_, _, err := DecodeWithOptions(bytes.NewReader(mut), DecodeOptions{})
	if de, ok := AsDecodeError(err); !ok || de.Section != "validate" {
		t.Fatalf("strict decode: got %v, want validate-section DecodeError", err)
	}

	got, stats, err := DecodeWithOptions(bytes.NewReader(mut), DecodeOptions{Tolerate: true})
	if err != nil {
		t.Fatalf("tolerant decode failed: %v", err)
	}
	if verr := got.Validate(); verr != nil {
		t.Fatalf("salvaged trace invalid: %v", verr)
	}
	if len(got.Ranks[0]) != 1 {
		t.Errorf("rank 0 salvaged %d records, want 1", len(got.Ranks[0]))
	}
	if len(stats.Ranks) != 1 || stats.Ranks[0].Rank != 0 || stats.Ranks[0].Salvaged != 1 {
		t.Errorf("stats %+v, want rank 0 salvaged 1", stats.Ranks)
	}
}

// TestReadDirTolerantMissingRank checks that the directory reader tolerates
// a missing rank file, reporting it instead of failing.
func TestReadDirTolerantMissingRank(t *testing.T) {
	tr := sampleTrace(t)
	dir := filepath.Join(t.TempDir(), "tracedir")
	if err := WriteDir(dir, tr, DefaultEncodeOptions()); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "rank-1.viot")); err != nil {
		t.Fatal(err)
	}
	got, stats, err := ReadDirWithOptions(dir, DecodeOptions{Tolerate: true})
	if err != nil {
		t.Fatalf("tolerant ReadDir failed: %v", err)
	}
	if got.NumRanks() != 2 || len(got.Ranks[1]) != 0 {
		t.Errorf("got %d ranks, rank 1 has %d records; want 2 ranks, rank 1 empty",
			got.NumRanks(), len(got.Ranks[1]))
	}
	if len(stats.Ranks) != 1 || stats.Ranks[0].Rank != 1 || stats.Ranks[0].Dropped != -1 {
		t.Fatalf("stats %+v, want rank 1 dropped unknown", stats.Ranks)
	}
	if !strings.Contains(stats.Ranks[0].Err.Error(), "missing rank file") {
		t.Errorf("recovery error %v does not name the missing file", stats.Ranks[0].Err)
	}
}

// TestDecodeErrorRendering locks the DecodeError text format the CLIs and
// logs rely on.
func TestDecodeErrorRendering(t *testing.T) {
	e := &DecodeError{
		Kind: Truncated, Section: "records", Rank: 3, Record: 17, Offset: 1024,
		Err: fmt.Errorf("varint: unexpected EOF"),
	}
	got := e.Error()
	for _, want := range []string{"records", "rank 3", "record 17", "offset 1024", "truncated", "unexpected EOF"} {
		if !strings.Contains(got, want) {
			t.Errorf("DecodeError %q missing %q", got, want)
		}
	}
	if !errors.Is(e, e.Err) {
		t.Error("DecodeError does not unwrap to its cause")
	}
}

// TestLimitsClampedToRefSpace: a Ref holds 32-bit ranks and sequence
// numbers, so no Limits lets a decoder produce more ranks, or more records
// on a rank, than that; a count past it is LimitExceeded. The defaults sit
// below the clamp and stay as they are.
func TestLimitsClampedToRefSpace(t *testing.T) {
	if d := DefaultLimits(); d.MaxRanks != 1<<20 || d.MaxRecords != 1<<28 {
		t.Fatalf("defaults moved: %+v", d)
	}
	wide := Limits{MaxRanks: math.MaxInt, MaxRecords: math.MaxInt}
	if l := wide.withDefaults(); l.MaxRanks != math.MaxInt32 || l.MaxRecords != math.MaxInt32 {
		t.Fatalf("withDefaults() = %+v, want ranks and records clamped to MaxInt32", l)
	}
	data := encodeBytes(t, sampleTrace(t), false)
	for _, span := range []string{"nranks", "rank-count"} {
		rank := -1
		if span == "rank-count" {
			rank = 0
		}
		bad := spliceVarint(data, mustSpan(t, data, span, rank, -1), math.MaxInt32+1)
		_, _, err := DecodeWithOptions(bytes.NewReader(bad), DecodeOptions{Limits: wide})
		var de *DecodeError
		if !errors.As(err, &de) || de.Kind != LimitExceeded || !strings.Contains(err.Error(), "exceeds limit 2147483647") {
			t.Errorf("%s of MaxInt32+1 under unbounded limits: err = %v, want LimitExceeded at the clamp", span, err)
		}
	}
}

// TestValidateRejectsRankPastRefSpace: a rank of more than MaxInt32 records
// has records no Ref addresses. No test can hold one, so the check Validate
// makes per rank is exercised on the count alone.
func TestValidateRejectsRankPastRefSpace(t *testing.T) {
	n := math.MaxInt32
	if err := checkRankLen(2, n); err != nil {
		t.Fatalf("MaxInt32 records: %v", err)
	}
	if math.MaxInt == math.MaxInt32 {
		t.Skip("an int cannot count past MaxInt32 here")
	}
	n++
	if err := checkRankLen(2, n); err == nil || !strings.Contains(err.Error(), "rank 2 holds 2147483648 records") {
		t.Fatalf("MaxInt32+1 records: err = %v", err)
	}
}

// TestLimitsZeroValueUsesDefaults makes sure a zero Limits is never "no
// limits".
func TestLimitsZeroValueUsesDefaults(t *testing.T) {
	l := Limits{}.withDefaults()
	if !reflect.DeepEqual(l, DefaultLimits()) {
		t.Errorf("withDefaults() = %+v, want %+v", l, DefaultLimits())
	}
	half := Limits{MaxDepth: 3}.withDefaults()
	if half.MaxDepth != 3 || half.MaxPayload != DefaultLimits().MaxPayload {
		t.Errorf("partial limits not merged: %+v", half)
	}
}
