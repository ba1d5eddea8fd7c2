package trace

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// streamTestTrace builds a deterministic multi-rank trace big enough that a
// small window splits every rank into many batches.
func streamTestTrace(t *testing.T, nranks, nrecs int) *Trace {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	tr := New(nranks)
	tr.Meta["program"] = "stream-test"
	tr.Meta["fs.mode"] = "posix"
	for rank := 0; rank < nranks; rank++ {
		tick := int64(0)
		for i := 0; i < nrecs; i++ {
			tick += int64(1 + rng.Intn(3))
			rec := Record{
				Rank: rank, Func: "pwrite", Layer: LayerPOSIX,
				Args: []string{"3", fmt.Sprint(8 * i), "8"},
				Tick: tick, Ret: tick + 1,
				Site: fmt.Sprintf("site%d", i%17),
			}
			if i%5 == 0 {
				rec.Func = "MPI_File_write_at"
				rec.Layer = LayerMPIIO
			}
			tick++
			tr.Append(rec)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("stream test trace invalid: %v", err)
	}
	return tr
}

// drainStream collects every batch into a materialized per-rank view,
// releasing each batch after copying it out (the bounded-memory discipline).
func drainStream(t *testing.T, s *Stream) ([][]Record, int) {
	t.Helper()
	ranks := make([][]Record, s.NumRanks())
	batches := 0
	for {
		b, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		batches++
		if b.Start != len(ranks[b.Rank]) {
			t.Fatalf("rank %d batch starts at %d, have %d records", b.Rank, b.Start, len(ranks[b.Rank]))
		}
		ranks[b.Rank] = append(ranks[b.Rank], b.Recs...)
		b.Release()
	}
	return ranks, batches
}

// decodeBatches decodes one encoded stream through the core every rank reader
// of a Dir runs — openSource, payloadStream.nextBatch bounded by window, and
// streamSource.finish — and returns the records, the stats, the number of
// batches, and the first error the core reports.
func decodeBatches(data []byte, opts DecodeOptions, window int64) (*Trace, *DecodeStats, int, error) {
	src, err := openSource(bytes.NewReader(data), opts)
	if err != nil {
		return nil, nil, 0, err
	}
	defer src.close()
	tr, batches := &Trace{Meta: src.ps.meta, Ranks: make([][]Record, src.ps.nranks)}, 0
	for {
		b, err := src.ps.nextBatch(nil, window)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, 0, err
		}
		tr.Ranks[b.rank] = append(tr.Ranks[b.rank], b.recs...)
		batches++
	}
	stats, err := src.finish(opts.Tolerate)
	return tr, stats, batches, err
}

func TestStreamMatchesDecode(t *testing.T) {
	tr := streamTestTrace(t, 3, 400)
	for _, compress := range []bool{false, true} {
		t.Run(fmt.Sprintf("compress=%v", compress), func(t *testing.T) {
			var buf bytes.Buffer
			if err := Encode(&buf, tr, EncodeOptions{Compress: compress}); err != nil {
				t.Fatal(err)
			}
			want, _, err := DecodeWithOptions(bytes.NewReader(buf.Bytes()), DecodeOptions{})
			if err != nil {
				t.Fatal(err)
			}
			got, stats, batches, err := decodeBatches(buf.Bytes(), DecodeOptions{}, 1<<12)
			if err != nil {
				t.Fatal(err)
			}
			if batches <= len(want.Ranks) {
				t.Fatalf("window produced only %d batches for %d ranks — not windowing", batches, len(want.Ranks))
			}
			if !reflect.DeepEqual(got.Ranks, want.Ranks) {
				t.Fatal("records differ between batches and decode")
			}
			if !reflect.DeepEqual(got.Meta, want.Meta) {
				t.Fatalf("Meta = %v, want %v", got.Meta, want.Meta)
			}
			if !stats.Clean() {
				t.Fatalf("clean stream salvaged: %+v", stats)
			}
		})
	}
}

func TestOpenStreamMatchesReadDir(t *testing.T) {
	tr := streamTestTrace(t, 4, 300)
	dir := t.TempDir()
	if err := WriteDir(dir, tr, DefaultEncodeOptions()); err != nil {
		t.Fatal(err)
	}
	want, _, err := ReadDirWithOptions(dir, DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := OpenStream(dir, StreamOptions{WindowBytes: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ranks, batches := drainStream(t, s)
	if batches <= len(want.Ranks) {
		t.Fatalf("window produced only %d batches for %d ranks — not windowing", batches, len(want.Ranks))
	}
	for rank := range want.Ranks {
		if !reflect.DeepEqual(ranks[rank], want.Ranks[rank]) {
			t.Fatalf("rank %d records differ between stream and ReadDir", rank)
		}
		if s.Counts()[rank] != len(want.Ranks[rank]) {
			t.Fatalf("Counts()[%d] = %d, want %d", rank, s.Counts()[rank], len(want.Ranks[rank]))
		}
	}
	if !reflect.DeepEqual(s.Meta(), want.Meta) {
		t.Fatalf("Meta = %v, want %v", s.Meta(), want.Meta)
	}
}

// TestStreamWindowBound is the memory contract: with every batch released
// before the next Next, peak resident cost never exceeds the window plus one
// record's worth of overshoot (a batch closes at the first record that
// reaches the window).
func TestStreamWindowBound(t *testing.T) {
	tr := streamTestTrace(t, 4, 1000)
	dir := t.TempDir()
	if err := WriteDir(dir, tr, DefaultEncodeOptions()); err != nil {
		t.Fatal(err)
	}
	const window = 1 << 12
	s, err := OpenStream(dir, StreamOptions{WindowBytes: window})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	drainStream(t, s)
	const slack = 1 << 10 // one record far exceeds this; strings live in the table
	if peak := s.PeakResidentBytes(); peak <= 0 || peak > window+slack {
		t.Fatalf("peak resident %d outside (0, %d]", peak, window+slack)
	}
	if got := s.dir.window; got != window {
		t.Fatalf("one reader's window = %d, want the whole %d", got, window)
	}

	// The materializing wrapper keeps every batch: its peak is the whole
	// decode cost, and must dwarf the windowed peak on this trace.
	whole, _, err := ReadDirWithOptions(dir, DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if whole.NumRecords() == 0 {
		t.Fatal("empty materialized trace")
	}
	sw, err := OpenStream(dir, StreamOptions{WindowBytes: WindowUnbounded})
	if err != nil {
		t.Fatal(err)
	}
	defer sw.Close()
	for {
		b, err := sw.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		_ = b // retained: materializing profile
	}
	if sw.PeakResidentBytes() < 10*s.PeakResidentBytes() {
		t.Fatalf("unbounded peak %d not >> windowed peak %d", sw.PeakResidentBytes(), s.PeakResidentBytes())
	}
}

// TestStreamTolerateSalvage pins that the streaming path salvages exactly
// what the materializing tolerate path does, stats included.
func TestStreamTolerateSalvage(t *testing.T) {
	tr := streamTestTrace(t, 3, 200)
	dir := t.TempDir()
	if err := WriteDir(dir, tr, EncodeOptions{Compress: false}); err != nil {
		t.Fatal(err)
	}
	// Truncate rank 1 mid-records.
	path := filepath.Join(dir, "rank-1.viot")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)*3/4], 0o644); err != nil {
		t.Fatal(err)
	}
	want, wantStats, err := ReadDirWithOptions(dir, DecodeOptions{Tolerate: true})
	if err != nil {
		t.Fatal(err)
	}
	s, err := OpenStream(dir, StreamOptions{
		DecodeOptions: DecodeOptions{Tolerate: true},
		WindowBytes:   1 << 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ranks, _ := drainStream(t, s)
	for rank := range want.Ranks {
		if !reflect.DeepEqual(ranks[rank], want.Ranks[rank]) {
			t.Fatalf("rank %d salvage differs: stream %d records, ReadDir %d",
				rank, len(ranks[rank]), len(want.Ranks[rank]))
		}
	}
	got := s.Stats()
	if len(got.Ranks) != len(wantStats.Ranks) {
		t.Fatalf("stats: stream %+v, ReadDir %+v", got, wantStats)
	}
	for i, rr := range got.Ranks {
		wr := wantStats.Ranks[i]
		if rr.Rank != wr.Rank || rr.Salvaged != wr.Salvaged || rr.Dropped != wr.Dropped {
			t.Fatalf("stats[%d] = %+v, want %+v", i, rr, wr)
		}
		if (rr.Err == nil) != (wr.Err == nil) || (rr.Err != nil && rr.Err.Error() != wr.Err.Error()) {
			t.Fatalf("stats[%d] error = %v, want %v", i, rr.Err, wr.Err)
		}
	}
}

func TestStreamStrictErrorsMatchReadDir(t *testing.T) {
	tr := streamTestTrace(t, 2, 50)
	dir := t.TempDir()
	if err := WriteDir(dir, tr, EncodeOptions{Compress: false}); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "rank-1.viot")); err != nil {
		t.Fatal(err)
	}
	_, _, wantErr := ReadDirWithOptions(dir, DecodeOptions{})
	if wantErr == nil {
		t.Fatal("ReadDir accepted a missing rank file")
	}
	if _, err := OpenStream(dir, StreamOptions{}); err == nil || err.Error() != wantErr.Error() {
		t.Fatalf("OpenStream error = %v, want %v", err, wantErr)
	}
}

// TestBatchReleaseIdempotent is the pool contract Release documents: a
// second Release of the same batch must be a no-op — no double push of the
// buffer into the pool (which would hand the same backing array to two
// future batches) and no double credit against the resident accounting.
func TestBatchReleaseIdempotent(t *testing.T) {
	tr := streamTestTrace(t, 2, 200)
	dir := t.TempDir()
	if err := WriteDir(dir, tr, DefaultEncodeOptions()); err != nil {
		t.Fatal(err)
	}
	s, err := OpenStream(dir, StreamOptions{WindowBytes: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	b, err := s.Next()
	if err != nil {
		t.Fatal(err)
	}
	if b.cost <= 0 {
		t.Fatalf("batch cost = %d, want > 0", b.cost)
	}
	resident, pooled := s.dir.res.cur.Load(), len(s.dir.pool.bufs)
	cost := b.cost // Release severs b.s but leaves cost readable

	b.Release()
	if got, want := s.dir.res.cur.Load(), resident-cost; got != want {
		t.Fatalf("after first Release resident = %d, want %d", got, want)
	}
	if len(s.dir.pool.bufs) != pooled+1 {
		t.Fatalf("after first Release pool has %d buffers, want %d", len(s.dir.pool.bufs), pooled+1)
	}
	if b.s != nil || b.Recs != nil {
		t.Fatalf("first Release must sever the batch: s=%v Recs=%v", b.s, b.Recs)
	}
	residentAfter, pooledAfter := s.dir.res.cur.Load(), len(s.dir.pool.bufs)

	// The misuse under test: releasing again must change nothing.
	b.Release()
	if got := s.dir.res.cur.Load(); got != residentAfter {
		t.Fatalf("double Release moved resident accounting: %d -> %d", residentAfter, got)
	}
	if len(s.dir.pool.bufs) != pooledAfter {
		t.Fatalf("double Release pushed the buffer into the pool twice: %d -> %d buffers", pooledAfter, len(s.dir.pool.bufs))
	}

	// And a released (nil-severed) batch from a drained stream plus a nil
	// batch are equally inert.
	var nb *Batch
	nb.Release()
}

// TestStrayFilesNeverReplaceARank: only the exact name WriteDir gives a rank
// is that rank's file. An editor backup, an interrupted copy or a
// zero-padded twin sitting next to it must not be read in its place — it
// used to be, silently, because the name was parsed with Sscanf alone and
// the directory listing put the stray after the real file.
func TestStrayFilesNeverReplaceARank(t *testing.T) {
	tr := streamTestTrace(t, 3, 60)
	dir := t.TempDir()
	if err := WriteDir(dir, tr, DefaultEncodeOptions()); err != nil {
		t.Fatal(err)
	}
	for stray, from := range map[string]string{
		"rank-0.viot.bak":  "rank-0.viot",
		"rank-01.viot":     "rank-1.viot",
		"rank-+1.viot":     "rank-1.viot",
		"rank-2.viot~":     "rank-2.viot",
		"rank-2.viotx":     "rank-2.viot",
		"2.viot":           "rank-2.viot",
		"rank-2":           "rank-2.viot",
		"rank-3.viot.viot": "rank-2.viot",
		"rank-rank-4.viot": "rank-2.viot",
	} {
		data, err := os.ReadFile(filepath.Join(dir, from))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, stray), data[:len(data)/2], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, tolerate := range []bool{false, true} {
		got, stats, err := ReadDirWithOptions(dir, DecodeOptions{Tolerate: tolerate})
		if err != nil {
			t.Fatalf("tolerate=%v: ReadDir with strays present: %v", tolerate, err)
		}
		if !stats.Clean() {
			t.Errorf("tolerate=%v: strays were salvaged as rank files: %+v", tolerate, stats.Ranks)
		}
		if !reflect.DeepEqual(got, tr) {
			t.Errorf("tolerate=%v: trace read with strays present differs from the one written", tolerate)
		}
	}
	s, err := OpenStream(dir, StreamOptions{WindowBytes: 1 << 12})
	if err != nil {
		t.Fatalf("OpenStream with strays present: %v", err)
	}
	defer s.Close()
	ranks, _ := drainStream(t, s)
	if !reflect.DeepEqual(ranks, tr.Ranks) {
		t.Error("stream with strays present differs from the trace written")
	}
}
