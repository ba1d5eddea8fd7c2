package trace_test

import (
	"runtime"
	"testing"

	"verifyio/internal/corpus"
	"verifyio/internal/trace"
)

// TestReadDirDecodedBytesPerRecord bounds what a materialized read of a
// sparse-shaped directory (8 ranks of 4 000 data operations, no call
// chains) allocates per record: records, argument slabs, string tables and
// rank buffers together. The bound is the measurement with the 88-byte
// Record (173 B/record) plus 10 %; the 128-byte Record read 214 B/record.
// A field added to Record, or a per-record allocation, shows here.
func TestReadDirDecodedBytesPerRecord(t *testing.T) {
	const budget = 190 // bytes per record
	dir := t.TempDir()
	tr := corpus.ScalingTrace(8, 4000, 32<<20, 1)
	if err := trace.WriteDir(dir, tr, trace.DefaultEncodeOptions()); err != nil {
		t.Fatal(err)
	}
	least := ^uint64(0)
	for range 5 { // the least of five: the race detector makes sync.Pool drop reader state at random
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := trace.ReadDir(dir); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	perRecord := float64(least) / float64(tr.NumRecords())
	t.Logf("%d records, %.1f bytes allocated per record", tr.NumRecords(), perRecord)
	if perRecord > budget {
		t.Errorf("ReadDir allocated %.1f bytes per record, want <= %d", perRecord, budget)
	}
}
