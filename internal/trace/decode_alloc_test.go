package trace

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"testing"
)

// uniqueOffsetTrace is the decoder's worst honest input: every data
// operation carries an offset string no other record shares, so the string
// table holds one entry per operation.
func uniqueOffsetTrace(t testing.TB, nranks, nops int) *Trace {
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
// buffer that grows geometrically toward the declared count, Args come from
// slabs, call contexts are interned and the string table comes in chunks, so
// a directory costs a few dozen
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
		d, err := OpenDir(dir, StreamOptions{WindowBytes: 64 << 10}, 1)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		n := 0
		for rank := 0; rank < d.NumRanks(); rank++ {
			if err := d.ReadRank(rank, func(steps []Step) { n += len(steps) }); err != nil {
				t.Fatal(err)
			}
		}
		if n != tr.NumRecords() {
			t.Fatalf("windowed read yielded %d records, want %d", n, tr.NumRecords())
		}
	}) / records
	if perRecord > maxPerRecord {
		t.Errorf("windowed Dir.ReadRank: %.3f allocations per record, want <= %.2f", perRecord, maxPerRecord)
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

// BenchmarkReadDir measures the materializing read of an 8-rank directory
// whose data operations all carry distinct offsets (the shape of the repo
// benchmark's sparse workload), on one rank reader and on one per core.
func BenchmarkReadDir(b *testing.B) {
	tr := uniqueOffsetTrace(b, 8, 32<<10)
	dir := b.TempDir()
	if err := WriteDir(dir, tr, DefaultEncodeOptions()); err != nil {
		b.Fatal(err)
	}
	run := func(readers int) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				got, _, err := readDir(dir, DecodeOptions{}, readers)
				if err != nil {
					b.Fatal(err)
				}
				if got.NumRecords() != tr.NumRecords() {
					b.Fatalf("readDir: %d records, want %d", got.NumRecords(), tr.NumRecords())
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*tr.NumRecords()), "ns/record")
		}
	}
	b.Run("readers=1", run(1))
	b.Run("readers=GOMAXPROCS", func(b *testing.B) {
		procs := runtime.GOMAXPROCS(0)
		if procs < 2 {
			b.Skip("one core: a second reader has nothing to run on")
		}
		run(procs)(b)
	})
}
