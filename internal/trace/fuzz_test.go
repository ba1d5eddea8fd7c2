package trace

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"
)

// fuzzLimits keeps individual fuzz executions cheap so the engine can get
// through many inputs; the limit checks themselves are what's under test.
func fuzzLimits() Limits {
	return Limits{
		MaxMeta: 1 << 8, MaxStrings: 1 << 12, MaxStringLen: 1 << 12,
		MaxRanks: 1 << 6, MaxRecords: 1 << 12, MaxArgs: 1 << 6,
		MaxDepth: 1 << 6, MaxPayload: 1 << 22,
	}
}

func fuzzSeedTrace() *Trace {
	tr := New(2)
	tr.Meta["program"] = "fuzz-seed"
	tick := []int64{0, 0}
	add := func(rank int, layer Layer, fn string, chain []string, args ...string) {
		tick[rank] += 2
		tr.Append(Record{
			Rank: rank, Func: fn, Layer: layer,
			Args: args, Tick: tick[rank], Ret: tick[rank] + 1, Ctx: NewContext(chain, ""),
		})
	}
	for rank := 0; rank < 2; rank++ {
		add(rank, LayerPOSIX, "open", nil, "f.bin", "rw", "3")
		for i := 0; i < 4; i++ {
			add(rank, LayerPOSIX, "pwrite",
				[]string{"mpi-io:MPI_File_write_at"}, "3", "8", fmt.Sprint(8*i))
		}
		add(rank, LayerPOSIX, "close", nil, "3")
	}
	return tr
}

// FuzzDecode drives the single-stream decoder with arbitrary bytes: it must
// never panic, must classify every failure as a DecodeError, and in
// tolerate mode must always hand back a structurally valid trace. The outcome
// must not depend on where the decoder's window on the payload ends: the
// varints that lie across a refill are read byte by byte, the rest straight
// from the window, and the two must agree at every offset.
func FuzzDecode(f *testing.F) {
	for _, seed := range []*Trace{fuzzSeedTrace(), wideVarintTrace()} {
		for _, compress := range []bool{false, true} {
			var buf bytes.Buffer
			if err := Encode(&buf, seed, EncodeOptions{Compress: compress}); err != nil {
				f.Fatal(err)
			}
			f.Add(buf.Bytes())
		}
	}
	f.Add([]byte("VIOT\x01\x00"))
	f.Add([]byte("VIOT\x01\x00\x00\x00\x02\x00\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, stats, err := DecodeWithOptions(bytes.NewReader(data), DecodeOptions{Limits: fuzzLimits()})
		if err != nil {
			if _, ok := AsDecodeError(err); !ok {
				t.Fatalf("unclassified decode error: %v", err)
			}
		} else {
			if !stats.Clean() {
				t.Fatalf("strict decode salvaged: %+v", stats)
			}
			if verr := tr.Validate(); verr != nil {
				t.Fatalf("strict decode returned invalid trace: %v", verr)
			}
			var buf bytes.Buffer
			if eerr := Encode(&buf, tr, EncodeOptions{Compress: false}); eerr != nil {
				t.Fatalf("decoded trace does not re-encode: %v", eerr)
			}
		}

		ttr, _, terr := DecodeWithOptions(bytes.NewReader(data), DecodeOptions{Tolerate: true, Limits: fuzzLimits()})
		if terr != nil {
			if _, ok := AsDecodeError(terr); !ok {
				t.Fatalf("unclassified tolerant decode error: %v", terr)
			}
			if err == nil {
				t.Fatalf("tolerate failed where strict succeeded: %v", terr)
			}
		} else if verr := ttr.Validate(); verr != nil {
			t.Fatalf("tolerant decode returned invalid trace: %v", verr)
		}

		for _, tolerate := range []bool{false, true} {
			sameAtEveryWindow(t, data, DecodeOptions{Tolerate: tolerate, Limits: fuzzLimits()}, 1, 7, 16)
		}
	})
}

// FuzzStreamDecode drives the windowed batch decoder every rank reader runs
// (decodeBatches) with arbitrary bytes and holds it to the materializing
// decoder's answer: both must agree on success vs failure, and on success the
// concatenated batches must equal the materialized ranks — in strict and
// tolerate mode alike. The batch path shares the record-decoding core with
// DecodeWithOptions, so this is the fuzz-strength version of the corpus
// equivalence tests.
func FuzzStreamDecode(f *testing.F) {
	for _, compress := range []bool{false, true} {
		var buf bytes.Buffer
		if err := Encode(&buf, fuzzSeedTrace(), EncodeOptions{Compress: compress}); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:buf.Len()*2/3]) // truncated mid-records
	}
	f.Add([]byte("VIOT\x01\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, tolerate := range []bool{false, true} {
			opts := DecodeOptions{Tolerate: tolerate, Limits: fuzzLimits()}
			want, wantStats, wantErr := DecodeWithOptions(bytes.NewReader(data), opts)

			got, gotStats, _, gotErr := decodeBatches(data, opts, 256)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("tolerate=%v: stream err %v, decode err %v", tolerate, gotErr, wantErr)
			}
			if gotErr != nil {
				if _, ok := AsDecodeError(gotErr); !ok {
					t.Fatalf("tolerate=%v: unclassified stream error: %v", tolerate, gotErr)
				}
				continue
			}
			if len(got.Ranks) != len(want.Ranks) {
				t.Fatalf("tolerate=%v: stream %d ranks, decode %d", tolerate, len(got.Ranks), len(want.Ranks))
			}
			for rank, w := range want.Ranks {
				if g := got.Ranks[rank]; len(g) != len(w) || (len(w) > 0 && !reflect.DeepEqual(g, w)) {
					t.Fatalf("tolerate=%v rank %d: stream %d records, decode %d, or a record differs", tolerate, rank, len(g), len(w))
				}
			}
			if salvaged(gotStats) != salvaged(wantStats) || gotStats.Clean() != wantStats.Clean() {
				t.Fatalf("tolerate=%v: stream stats %+v, decode stats %+v", tolerate, gotStats, wantStats)
			}
		}
	})
}

// FuzzReadDir drives the directory reader with two arbitrary rank files.
// Tolerate mode must always produce a valid (possibly partly empty) trace —
// the lenient path can never be the thing that fails a verification run.
func FuzzReadDir(f *testing.F) {
	var files [2][]byte
	seed := fuzzSeedTrace()
	dir := f.TempDir()
	if err := WriteDir(dir, seed, EncodeOptions{Compress: true}); err != nil {
		f.Fatal(err)
	}
	for rank := range files {
		data, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("rank-%d.viot", rank)))
		if err != nil {
			f.Fatal(err)
		}
		files[rank] = data
	}
	f.Add(files[0], files[1])
	f.Add(files[0], files[1][:len(files[1])/2]) // rank 1 truncated mid-stream
	f.Add([]byte{}, files[1])
	f.Fuzz(func(t *testing.T, rank0, rank1 []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "rank-0.viot"), rank0, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "rank-1.viot"), rank1, 0o644); err != nil {
			t.Fatal(err)
		}
		if tr, stats, err := ReadDirWithOptions(dir, DecodeOptions{Limits: fuzzLimits()}); err == nil {
			if !stats.Clean() {
				t.Fatalf("strict ReadDir salvaged: %+v", stats)
			}
			if verr := tr.Validate(); verr != nil {
				t.Fatalf("strict ReadDir returned invalid trace: %v", verr)
			}
		}
		tr, _, err := ReadDirWithOptions(dir, DecodeOptions{Tolerate: true, Limits: fuzzLimits()})
		if err != nil {
			t.Fatalf("tolerant ReadDir failed: %v", err)
		}
		if verr := tr.Validate(); verr != nil {
			t.Fatalf("tolerant ReadDir returned invalid trace: %v", verr)
		}
	})
}

// salvaged sums the records kept on damaged ranks.
func salvaged(s *DecodeStats) int {
	n := 0
	if s != nil {
		for _, r := range s.Ranks {
			n += r.Salvaged
		}
	}
	return n
}

// intArgTable is the IntArg equivalence table: plain digits of every length
// the fast path takes and the first it leaves to strconv, the int64 and
// int32 edges, signs, and strings strconv rejects.
var intArgTable = []string{
	"", "0", "7", "007", "+5", "-5", "-0", "-1", "+", "-",
	"123456789012345678", "999999999999999999", // 18 digits
	"1234567890123456789", "9223372036854775807", // 19 digits
	"9223372036854775808", "-9223372036854775808", "-9223372036854775809",
	"2147483647", "2147483648", "-2147483648", "-2147483649",
	"00000000000000000000042", "1e3", "0x10", " 5", "5 ", "1_000", "٣", "12a",
}

// checkIntArg holds Record.IntArg, and the side table a rank file's string
// table gets on the analysis path (argTable.addEntry), to strconv.ParseInt
// on one string: the side table keeps no string of exactly the decimals
// strconv.FormatInt spells as they are.
func checkIntArg(t *testing.T, s string) {
	t.Helper()
	rec := Record{Args: []string{s}}
	got, ok := rec.IntArg(0)
	want, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		want = 0
	}
	if ok != (err == nil) || got != want {
		t.Errorf("IntArg(%q) = %d, %v; strconv.ParseInt gives %d, %v", s, got, ok, want, err)
	}
	var tab argTable
	spelled := tab.addEntry([]byte(s))
	if v, isInt := tab.ints[0], tab.integer(0); isInt != (err == nil) || (isInt && v != want) {
		t.Errorf("side table of %q: %d, integer %v; strconv.ParseInt gives %d, %v", s, v, isInt, want, err)
	}
	if wantSpelled := err == nil && strconv.FormatInt(want, 10) == s; spelled != wantSpelled {
		t.Errorf("side table of %q keeps a string: %v, want %v", s, !spelled, !wantSpelled)
	}
}

func TestIntArgMatchesParseInt(t *testing.T) {
	for _, s := range intArgTable {
		checkIntArg(t, s)
	}
	if v, ok := (&Record{}).IntArg(0); ok || v != 0 {
		t.Errorf("missing argument: IntArg = %d, %v; want 0, false", v, ok)
	}
}

// FuzzIntArg checks Record.IntArg and the side-table parser against
// strconv.ParseInt on any string.
func FuzzIntArg(f *testing.F) {
	for _, s := range intArgTable {
		f.Add(s)
	}
	f.Fuzz(checkIntArg)
}
