package trace

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// The materializing read decodes the rank files concurrently. What it returns
// must not depend on how many readers ran or which got where first, so every
// test here pins its reader counts instead of taking the runner's cores.
var readerCounts = []int{1, 2, 8}

// noGoroutineLeft runs f and fails if a goroutine it started outlives it.
func noGoroutineLeft(t *testing.T, f func()) {
	t.Helper()
	before := runtime.NumGoroutine()
	f()
	for wait := time.Millisecond; runtime.NumGoroutine() > before; wait *= 2 {
		if wait > time.Second {
			t.Fatalf("%d goroutines before the call, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(wait)
	}
}

// cutRankFile truncates the rank's (uncompressed) file right after its first
// keep records.
func cutRankFile(t *testing.T, dir string, rank, keep int) {
	t.Helper()
	path := filepath.Join(dir, rankFileName(rank))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:mustSpan(t, data, "record", 0, keep-1).End], 0o644); err != nil {
		t.Fatal(err)
	}
}

// dirRead is everything one read returned, in a form reflect.DeepEqual can
// compare.
type dirRead struct {
	Trace *Trace
	Stats *DecodeStats
	Err   string
}

func readResult(tr *Trace, stats *DecodeStats, err error) dirRead {
	out := dirRead{Trace: tr, Stats: stats}
	if err != nil {
		out.Err = err.Error()
	}
	return out
}

// sameAtEveryReaderCount runs read once per pinned reader count and returns
// the one result they all must share.
func sameAtEveryReaderCount(t *testing.T, read func(readers int) (*Trace, *DecodeStats, error)) dirRead {
	t.Helper()
	var first dirRead
	for i, readers := range readerCounts {
		var got dirRead
		noGoroutineLeft(t, func() { got = readResult(read(readers)) })
		if i == 0 {
			first = got
		} else if !reflect.DeepEqual(got, first) {
			t.Fatalf("readers=%d: trace, stats or error differ from readers=%d:\n%+v\nwant:\n%+v",
				readers, readerCounts[0], got, first)
		}
	}
	return first
}

func TestReadDirSameAtEveryReaderCount(t *testing.T) {
	tr := streamTestTrace(t, 8, 300)
	stage := func() string {
		dir := t.TempDir()
		if err := WriteDir(dir, tr, EncodeOptions{Compress: false}); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	readAll := func(dir string, opts DecodeOptions) dirRead {
		return sameAtEveryReaderCount(t, func(readers int) (*Trace, *DecodeStats, error) {
			return readDir(dir, opts, readers)
		})
	}

	t.Run("intact", func(t *testing.T) {
		dir := stage()
		for _, tolerate := range []bool{false, true} {
			got := readAll(dir, DecodeOptions{Tolerate: tolerate})
			if got.Err != "" || !got.Stats.Clean() || !reflect.DeepEqual(got.Trace, tr) {
				t.Errorf("tolerate=%v: read differs from the trace written (error %q, stats %+v)", tolerate, got.Err, got.Stats)
			}
		}
	})

	// Rank 3's file breaks at its last record, rank 5's at its second: a
	// reader of rank 5 fails long before a reader of rank 3 does.
	t.Run("two damaged ranks", func(t *testing.T) {
		dir := stage()
		cutRankFile(t, dir, 3, len(tr.Ranks[3])-1)
		cutRankFile(t, dir, 5, 1)
		const strict = "trace: rank-3.viot: trace: records: rank 3 record 299 at payload offset "
		if got := readAll(dir, DecodeOptions{}); !strings.HasPrefix(got.Err, strict) {
			t.Errorf("strict: error %q, want the lower rank's: %q…", got.Err, strict)
		}
		got := readAll(dir, DecodeOptions{Tolerate: true})
		if got.Err != "" {
			t.Fatalf("tolerate: %s", got.Err)
		}
		want := New(8)
		want.Meta = tr.Meta
		copy(want.Ranks, tr.Ranks)
		want.Ranks[3], want.Ranks[5] = tr.Ranks[3][:299], tr.Ranks[5][:1]
		if !reflect.DeepEqual(got.Trace, want) {
			t.Error("tolerate: trace is not the intact ranks plus the two prefixes")
		}
		type entry struct{ rank, salvaged, dropped int }
		var entries []entry
		for _, rr := range got.Stats.Ranks {
			entries = append(entries, entry{rr.Rank, rr.Salvaged, rr.Dropped})
		}
		if !reflect.DeepEqual(entries, []entry{{3, 299, 1}, {5, 1, 299}}) {
			t.Errorf("tolerate: recovery %+v, want ranks 3 and 5 in rank order", entries)
		}
	})

	// A strict read is over at its first failure: a reader that is handed a
	// rank above the failed one leaves it alone. Rank 1 fails as it is opened,
	// so one reader decodes rank 0 alone. With two, the reader of rank 0 may
	// be handed rank 2 and on before the reader of rank 1 has failed; a rank
	// it starts is then read whole, never in part.
	t.Run("strict stops at the failure", func(t *testing.T) {
		dir := stage()
		if err := os.WriteFile(filepath.Join(dir, "rank-1.viot"), []byte("not a trace"), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, readers := range []int{1, 2} {
			d, err := OpenDir(dir, StreamOptions{WindowBytes: WindowUnbounded}, readers)
			if err != nil {
				t.Fatal(err)
			}
			_, _, err = d.materialize(readers)
			d.Close()
			if err == nil || !strings.HasPrefix(err.Error(), "trace: rank-1.viot: ") {
				t.Errorf("readers=%d: error %v, want rank 1's", readers, err)
			}
			ok := d.counts[0] == 300 && d.counts[1] == 0
			for _, n := range d.counts[2:] {
				ok = ok && (n == 0 || readers > 1 && n == 300)
			}
			if !ok {
				t.Errorf("readers=%d: records decoded per rank %v, want rank 0's alone (or, at two readers, whole later ranks too)", readers, d.counts)
			}
		}
	})

	t.Run("file removed after the scan", func(t *testing.T) {
		for _, tolerate := range []bool{false, true} {
			got := sameAtEveryReaderCount(t, func(readers int) (*Trace, *DecodeStats, error) {
				dir := stage()
				d, err := OpenDir(dir, StreamOptions{DecodeOptions: DecodeOptions{Tolerate: tolerate}, WindowBytes: WindowUnbounded}, readers)
				if err != nil {
					t.Fatal(err)
				}
				defer d.Close()
				if err := os.Remove(filepath.Join(dir, "rank-6.viot")); err != nil {
					t.Fatal(err)
				}
				tr, stats, err := d.materialize(readers)
				// The error names the temporary directory; keep what classifies it.
				if de, ok := AsDecodeError(err); ok {
					err = fmt.Errorf("%s rank %d: %s", de.Section, de.Rank, de.Kind)
				}
				if stats != nil {
					for i := range stats.Ranks {
						stats.Ranks[i].Err = nil
					}
				}
				return tr, stats, err
			})
			if !tolerate {
				if got.Err != "directory rank 6: truncated" {
					t.Errorf("strict: error %q, want a directory error classified on rank 6", got.Err)
				}
				continue
			}
			want := New(8)
			want.Meta = tr.Meta
			copy(want.Ranks, tr.Ranks)
			want.Ranks[6] = nil
			if got.Err != "" || !reflect.DeepEqual(got.Trace, want) ||
				!reflect.DeepEqual(got.Stats.Ranks, []RankRecovery{{Rank: 6, Salvaged: 0, Dropped: -1}}) {
				t.Errorf("tolerate: error %q, recovery %+v; want the other seven ranks and rank 6 lost", got.Err, got.Stats)
			}
		}
	})
}

// TestReadDirRecordBuffersAllocatedOnce pins what happens to the buffers a
// rank grows out of: the directory's pool keeps them, so only the ranks that
// start on an empty pool — one per reader — allocate the growth ladder (a
// third of their records on top) and the rest allocate their final buffer
// alone, which the trace then keeps without a copy. A rank much smaller than
// the buffer it was handed takes a copy instead of pinning the buffer.
func TestReadDirRecordBuffersAllocatedOnce(t *testing.T) {
	recSize := uint64(reflect.TypeOf(Record{}).Size())
	write := func(counts ...int) (string, uint64) {
		tr := New(len(counts))
		for rank, n := range counts {
			for i := 0; i < n; i++ {
				tr.Append(Record{Rank: rank, Func: "fsync", Layer: LayerPOSIX, Tick: int64(2 * i), Ret: int64(2*i + 1)})
			}
		}
		dir := t.TempDir()
		if err := WriteDir(dir, tr, DefaultEncodeOptions()); err != nil {
			t.Fatal(err)
		}
		return dir, uint64(tr.NumRecords()) * recSize
	}

	const ranks = 8
	dir, recBytes := write(8192, 8192, 8192, 8192, 8192, 8192, 8192, 8192)
	for _, readers := range []uint64{1, 2} {
		got := allocatedBytes(func() {
			if _, _, err := readDir(dir, DecodeOptions{}, int(readers)); err != nil {
				t.Fatal(err)
			}
		})
		// One ladder per reader is readers/ranks × 1/3 on top; a single rank
		// copied would be 1/8. The rest (readers, inflate state, tables) is
		// ~100 KiB a file.
		if limit := recBytes + recBytes*readers/(3*ranks) + recBytes/64 + ranks*(128<<10); got > limit {
			t.Errorf("readers=%d: allocated %d bytes for %d bytes of records, want <= %d", readers, got, recBytes, limit)
		}
	}

	dir, _ = write(16384, 10, 10)
	for _, readers := range []int{1, 2} {
		tr, _, err := readDir(dir, DecodeOptions{}, readers)
		if err != nil {
			t.Fatal(err)
		}
		for rank, recs := range tr.Ranks {
			if cap(recs) > 2*len(recs) {
				t.Errorf("readers=%d, rank %d: %d records pin a buffer of %d", readers, rank, len(recs), cap(recs))
			}
		}
	}
}

// TestOpenDirCostIndependentOfRanks: opening a directory reads its listing
// and one file's metadata, so it allocates under two inflaters' worth at any
// rank count (it used to inflate the head of every file: one each).
func TestOpenDirCostIndependentOfRanks(t *testing.T) {
	dir := t.TempDir()
	if err := WriteDir(dir, streamTestTrace(t, 64, 4), DefaultEncodeOptions()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "rank-0.viot"))
	if err != nil {
		t.Fatal(err)
	}
	inflater := allocatedBytes(func() {
		io.Copy(io.Discard, flate.NewReader(bytes.NewReader(data[6:])))
	})
	got := allocatedBytes(func() {
		d, err := OpenDir(dir, StreamOptions{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if d.NumRanks() != 64 {
			t.Fatalf("NumRanks = %d, want 64", d.NumRanks())
		}
		d.Close()
	})
	if got >= 2*inflater {
		t.Errorf("OpenDir on 64 ranks allocated %d bytes, want under two inflaters' worth (one is %d)", got, inflater)
	}
}

// TestRankCountMetadataParsing: verifyio.nranks counts only as WriteDir
// writes it. Anything else is treated as absent — the rank count falls back
// to the highest rank file — instead of being read up to its first bad byte.
func TestRankCountMetadataParsing(t *testing.T) {
	tr := streamTestTrace(t, 4, 20)
	for _, tc := range []struct {
		nranks string
		want   int
	}{
		{"8", 8}, {"4", 4},
		{"8x", 4}, {"-1", 4}, {"", 4}, {"08", 4},
	} {
		dir := t.TempDir()
		for rank, recs := range tr.Ranks {
			sub := New(1)
			sub.Ranks[0] = renumber(recs, 0)
			sub.Meta["verifyio.rank"] = fmt.Sprint(rank)
			sub.Meta["verifyio.nranks"] = tc.nranks
			f, err := os.Create(filepath.Join(dir, rankFileName(rank)))
			if err != nil {
				t.Fatal(err)
			}
			if err := Encode(f, sub, DefaultEncodeOptions()); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
		}
		got, stats, err := ReadDirWithOptions(dir, DecodeOptions{Tolerate: true})
		if err != nil {
			t.Fatalf("verifyio.nranks=%q: %v", tc.nranks, err)
		}
		if got.NumRanks() != tc.want || len(stats.Ranks) != tc.want-4 {
			t.Errorf("verifyio.nranks=%q: %d ranks with %d lost, want %d with %d",
				tc.nranks, got.NumRanks(), len(stats.Ranks), tc.want, tc.want-4)
		}
		_, _, err = ReadDirWithOptions(dir, DecodeOptions{})
		if (err == nil) != (tc.want == 4) {
			t.Errorf("verifyio.nranks=%q: strict read of the four files returned %v", tc.nranks, err)
		}
	}
}

// decodeWindowed is DecodeWithOptions with the decoder's window on the
// payload shrunk to n bytes, so that every n-th payload offset is a refill
// boundary and a varint lying across one takes the byte-at-a-time path.
func decodeWindowed(data []byte, opts DecodeOptions, n int) (*Trace, *DecodeStats, error) {
	d, err := openDecoder(bytes.NewReader(data), opts.Limits, false)
	if err != nil {
		return nil, nil, err
	}
	defer d.release()
	d.buf = make([]byte, n)
	tr, stats, err := d.decodeTrace(opts.Tolerate)
	if err == nil && !opts.Tolerate {
		err = d.checkTrailer()
	}
	if err != nil {
		return nil, nil, err
	}
	return tr, stats, nil
}

// sameAtEveryWindow holds the decode of data at the given window sizes to
// the default window's: trace, salvage stats and error, offsets included.
func sameAtEveryWindow(t *testing.T, data []byte, opts DecodeOptions, windows ...int) {
	t.Helper()
	want := readResult(DecodeWithOptions(bytes.NewReader(data), opts))
	for _, n := range windows {
		if got := readResult(decodeWindowed(data, opts, n)); !reflect.DeepEqual(got, want) {
			t.Fatalf("tolerate=%v: a %d-byte window decodes to\n%+v\nthe default window to\n%+v", opts.Tolerate, n, got, want)
		}
	}
}

// wideVarintTrace has multi-byte varints in every field that can hold one:
// string-table indices past 127, tick deltas past 2^14, long strings.
func wideVarintTrace() *Trace {
	tr := New(2)
	tr.Meta["program"] = "wide-varints"
	for rank := 0; rank < 2; rank++ {
		tick := int64(0)
		for i := 0; i < 48; i++ {
			tick += int64(1 + 20_000*(i%3))
			tr.Append(Record{
				Rank: rank, Func: "pwrite", Layer: LayerPOSIX,
				Ctx:  NewContext([]string{"mpi-io:MPI_File_write_at"}, ""),
				Args: []string{"3", fmt.Sprint(1_000_000*rank + 16*i), fmt.Sprintf("%0*d", 100+i, i)},
				Tick: tick, Ret: tick + 300,
			})
			tick += 300
		}
	}
	return tr
}

// TestVarintsAcrossWindowRefills decodes a trace full of multi-byte varints,
// whole and truncated, at every window size from 1 byte to 17: each payload offset is a refill boundary at some size, so each
// varint is read by the fast path and by the slow one.
func TestVarintsAcrossWindowRefills(t *testing.T) {
	windows := make([]int, 17)
	for i := range windows {
		windows[i] = i + 1
	}
	for _, compress := range []bool{false, true} {
		data := encodeBytes(t, wideVarintTrace(), compress)
		cuts := []int{len(data), len(data) - 1, len(data) / 2, len(data) / 3, 7}
		for _, cut := range cuts {
			for _, tolerate := range []bool{false, true} {
				sameAtEveryWindow(t, data[:cut], DecodeOptions{Tolerate: tolerate}, windows...)
			}
		}
	}
}
