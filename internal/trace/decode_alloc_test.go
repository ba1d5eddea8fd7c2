package trace

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"testing"
)

// uniqueOffsetTrace is the decoder's worst honest input: every data
// operation carries an offset string no other record shares, so the string
// table holds one entry per operation.
func uniqueOffsetTrace(t *testing.T, nranks, nops int) *Trace {
	t.Helper()
	tr := New(nranks)
	for rank := 0; rank < nranks; rank++ {
		tr.Append(Record{Rank: rank, Func: "open", Layer: LayerPOSIX,
			Args: []string{"data.bin", "rw|creat", "3"}, Tick: 2, Ret: 3})
		for i := 0; i < nops; i++ {
			tick := int64(4 + 2*i)
			tr.Append(Record{Rank: rank, Func: "pwrite", Layer: LayerPOSIX,
				Args: []string{"3", "16", fmt.Sprint(1_000_000*rank + 16*i)}, Tick: tick, Ret: tick + 1})
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestDecodeAllocationsPerRecord gates the decoder's allocation count, which
// unlike its speed is the same on every host: records decode in place into a
// buffer that grows geometrically toward the declared count, Args and Chain come from
// slabs and the string table from chunks, so a directory costs a few dozen
// allocations per rank file however many records it holds. (Two per string
// table entry plus one per record's Args — 2.9 per record on this input —
// is what the gate keeps from coming back.)
func TestDecodeAllocationsPerRecord(t *testing.T) {
	tr := uniqueOffsetTrace(t, 8, 4096)
	dir := t.TempDir()
	if err := WriteDir(dir, tr, DefaultEncodeOptions()); err != nil {
		t.Fatal(err)
	}
	const maxPerRecord = 0.05
	records := float64(tr.NumRecords())

	perRecord := testing.AllocsPerRun(3, func() {
		got, err := ReadDir(dir)
		if err != nil || got.NumRecords() != tr.NumRecords() {
			t.Fatalf("ReadDir: %v", err)
		}
	}) / records
	if perRecord > maxPerRecord {
		t.Errorf("ReadDir: %.3f allocations per record, want <= %.2f", perRecord, maxPerRecord)
	}

	perRecord = testing.AllocsPerRun(3, func() {
		s, err := OpenStream(dir, StreamOptions{WindowBytes: 64 << 10})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		n := 0
		for {
			b, err := s.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			n += len(b.Recs)
			b.Release()
		}
		if n != tr.NumRecords() {
			t.Fatalf("stream yielded %d records, want %d", n, tr.NumRecords())
		}
	}) / records
	if perRecord > maxPerRecord {
		t.Errorf("windowed OpenStream: %.3f allocations per record, want <= %.2f", perRecord, maxPerRecord)
	}
}

// allocatedBytes is the least heap volume fn allocates over a few runs.
func allocatedBytes(fn func()) uint64 {
	least := ^uint64(0)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestHostileRecordCountAllocation pins the buffer growth rule: a rank header
// promising MaxRecords records in front of a handful of real ones must cost
// about what decoding the real ones costs — not an up-front buffer sized by
// the promise — and must be classified exactly as before.
func TestHostileRecordCountAllocation(t *testing.T) {
	for _, real := range []int{10, 1000} {
		tr := uniqueOffsetTrace(t, 1, real-1)
		honest := encodeBytes(t, tr, false)
		declared := DefaultLimits().MaxRecords
		hostile := spliceVarint(honest, mustSpan(t, honest, "rank-count", 0, -1), uint64(declared))

		honestBytes := allocatedBytes(func() {
			if _, err := Decode(bytes.NewReader(honest)); err != nil {
				t.Fatal(err)
			}
		})
		var strictErr error
		strictBytes := allocatedBytes(func() {
			_, strictErr = Decode(bytes.NewReader(hostile))
		})
		var got *Trace
		var stats *DecodeStats
		tolerantBytes := allocatedBytes(func() {
			var err error
			got, stats, err = DecodeWithOptions(bytes.NewReader(hostile), DecodeOptions{Tolerate: true})
			if err != nil {
				t.Fatal(err)
			}
		})
		// The last buffer is under recGrowth times the records decoded and
		// the ones before it add a third of that: within six times the
		// honest volume, plus the floor of one minimal buffer.
		limit := 6*honestBytes + 2*minRecCap*recordOverhead
		if strictBytes > limit || tolerantBytes > limit {
			t.Errorf("%d real records behind a count of %d: strict decode allocated %d B, tolerant %d B; honest decode %d B, limit %d B",
				real, declared, strictBytes, tolerantBytes, honestBytes, limit)
		}

		want := DecodeError{Kind: Truncated, Section: "records", Rank: 0, Record: real, Offset: int64(len(hostile) - 6)}
		de, ok := AsDecodeError(strictErr)
		if !ok {
			t.Fatalf("strict decode error %v, want a DecodeError", strictErr)
		}
		if g := (DecodeError{Kind: de.Kind, Section: de.Section, Rank: de.Rank, Record: de.Record, Offset: de.Offset}); g != want {
			t.Errorf("strict decode failed with %+v, want %+v", g, want)
		}
		if !reflect.DeepEqual(got.Ranks, tr.Ranks) {
			t.Errorf("tolerant decode did not salvage the %d real records", real)
		}
		if len(stats.Ranks) != 1 || stats.Ranks[0].Salvaged != real || stats.Ranks[0].Dropped != declared-real {
			t.Errorf("salvage stats %+v, want rank 0 salvaged %d dropped %d", stats.Ranks, real, declared-real)
		}
		if rde, ok := AsDecodeError(stats.Ranks[0].Err); !ok || rde.Kind != want.Kind || rde.Record != want.Record || rde.Offset != want.Offset {
			t.Errorf("salvage error %v, want %+v", stats.Ranks[0].Err, want)
		}
	}
}

// TestReadDirRecordBuffersAllocatedOnce pins what happens to the buffers a
// rank grows out of: the stream keeps them, so of a directory's ranks only
// the first allocates the growth ladder (a third of its records on top) and
// the rest allocate their final buffer alone — and a rank much smaller than
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

	dir, recBytes := write(8192, 8192, 8192, 8192, 8192, 8192, 8192, 8192)
	got := allocatedBytes(func() {
		if _, err := ReadDir(dir); err != nil {
			t.Fatal(err)
		}
	})
	// One ladder over eight ranks is 1/24 on top; every rank climbing its own
	// would be 1/3. The rest (readers, inflate state, tables) is ~100 KiB a file.
	if limit := recBytes + recBytes/8 + 8*(128<<10); got > limit {
		t.Errorf("ReadDir allocated %d bytes for %d bytes of records, want <= %d", got, recBytes, limit)
	}

	dir, _ = write(16384, 10, 10)
	tr, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for rank, recs := range tr.Ranks {
		if cap(recs) > 2*len(recs) {
			t.Errorf("rank %d: %d records pin a buffer of %d", rank, len(recs), cap(recs))
		}
	}
}
