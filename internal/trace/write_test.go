package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestWriteDirRejectsBeforeWriting: a trace WriteDir refuses leaves no
// directory behind and names the rank at fault in the trace, not in its
// file; a record's Rank and Seq, which the format does not store, are not
// checked; and a file that cannot be written fails the call with the lowest
// such rank's error, at every writer count.
func TestWriteDirRejectsBeforeWriting(t *testing.T) {
	tr := streamTestTrace(t, 3, 10)
	// edited is tr with rank's records copied and edited.
	edited := func(rank int, edit func(rs []Record)) *Trace {
		out := *tr
		out.Ranks = append([][]Record(nil), tr.Ranks...)
		out.Ranks[rank] = append([]Record(nil), tr.Ranks[rank]...)
		edit(out.Ranks[rank])
		return &out
	}
	bad := edited(2, func(rs []Record) { rs[3].Ret = rs[2].Ret })
	// Rank 1's records claim another rank and other sequence numbers.
	stray := edited(1, func(rs []Record) {
		for i := range rs {
			rs[i].Rank, rs[i].Seq = 7, 100+i
		}
	})
	for _, writers := range readerCounts {
		dir := filepath.Join(t.TempDir(), "trace")
		var err error
		noGoroutineLeft(t, func() { err = writeDir(dir, bad, DefaultEncodeOptions(), writers) })
		if err == nil || !strings.Contains(err.Error(), "rank 2 record 3 return tick") {
			t.Errorf("writers=%d: error %v, want rank 2 record 3's return tick", writers, err)
		}
		if _, serr := os.Stat(dir); !os.IsNotExist(serr) {
			t.Errorf("writers=%d: a rejected trace left %s behind (stat: %v)", writers, dir, serr)
		}

		// A stray Rank or Seq changes no file.
		want, got := t.TempDir(), t.TempDir()
		if err := writeDir(want, tr, DefaultEncodeOptions(), writers); err != nil {
			t.Fatal(err)
		}
		if err := writeDir(got, stray, DefaultEncodeOptions(), writers); err != nil {
			t.Fatalf("writers=%d: stray Rank and Seq fields: %v", writers, err)
		}
		for rank := range tr.Ranks {
			a, _ := os.ReadFile(filepath.Join(want, rankFileName(rank)))
			b, _ := os.ReadFile(filepath.Join(got, rankFileName(rank)))
			if len(a) == 0 || !bytes.Equal(a, b) {
				t.Errorf("writers=%d: rank %d file differs from the trace's own", writers, rank)
			}
		}

		// Rank 1's and rank 2's files cannot be created.
		blocked := t.TempDir()
		for _, rank := range []int{2, 1} {
			if err := os.Mkdir(filepath.Join(blocked, rankFileName(rank)), 0o755); err != nil {
				t.Fatal(err)
			}
		}
		noGoroutineLeft(t, func() { err = writeDir(blocked, tr, DefaultEncodeOptions(), writers) })
		if err == nil || !strings.Contains(err.Error(), rankFileName(1)) {
			t.Errorf("writers=%d: error %v, want rank 1's", writers, err)
		}
	}
}

// BenchmarkWriteDir measures writing an 8-rank directory whose data
// operations all carry distinct offsets (the shape of the repo benchmark's
// sparse workload, and of BenchmarkReadDir), compressed, on one rank writer
// and on one per core.
func BenchmarkWriteDir(b *testing.B) {
	tr := uniqueOffsetTrace(b, 8, 32<<10)
	run := func(writers int) func(b *testing.B) {
		return func(b *testing.B) {
			dir := b.TempDir()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := writeDir(dir, tr, DefaultEncodeOptions(), writers); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*tr.NumRecords()), "ns/record")
		}
	}
	b.Run("writers=1", run(1))
	b.Run("writers=GOMAXPROCS", func(b *testing.B) {
		procs := runtime.GOMAXPROCS(0)
		if procs < 2 {
			b.Skip("one core: a second writer has nothing to run on")
		}
		run(procs)(b)
	})
}
