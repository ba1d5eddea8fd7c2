package trace

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
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
				Ctx: NewContext(nil, fmt.Sprintf("site%d", i%17)),
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

// appendOwned appends copies of a lent slot's records to dst, each with the
// Args its step reads: ReadRank reuses the records for the next slot and
// gives them no Args.
func appendOwned(dst []Record, steps []Step) []Record {
	for i := range steps {
		s := &steps[i]
		rec := *s.Rec
		rec.Args = nil
		for a := range s.NumArgs() {
			rec.Args = append(rec.Args, s.Arg(a))
		}
		dst = append(dst, rec)
	}
	return dst
}

// readEveryRank reads every rank of d in rank order through ReadRank,
// copying each batch out, and returns the records and the batch count.
func readEveryRank(t *testing.T, d *Dir) ([][]Record, int) {
	t.Helper()
	ranks := make([][]Record, d.NumRanks())
	batches := 0
	for rank := range ranks {
		err := d.ReadRank(rank, func(steps []Step) {
			batches++
			ranks[rank] = appendOwned(ranks[rank], steps)
		})
		if err != nil {
			t.Fatalf("ReadRank(%d): %v", rank, err)
		}
	}
	return ranks, batches
}

// openDir opens dir for one reader and closes it when the test ends.
func openDir(t *testing.T, dir string, opts StreamOptions) *Dir {
	t.Helper()
	d, err := OpenDir(dir, opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d
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

// TestOpenStreamMatchesReadDir drains a directory through Stream the way a
// decode-only consumer does, releasing every batch before the next Next. The
// records are ReadDir's, the window splits every rank and bounds the peak,
// and releasing a batch twice changes nothing: its buffer is pooled once and
// the resident accounting credited once.
func TestOpenStreamMatchesReadDir(t *testing.T) {
	tr := streamTestTrace(t, 4, 300)
	dir := t.TempDir()
	if err := WriteDir(dir, tr, DefaultEncodeOptions()); err != nil {
		t.Fatal(err)
	}
	want, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	const window, slack = 1 << 12, 1 << 10
	s, err := OpenStream(dir, StreamOptions{WindowBytes: window})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ranks, batches := make([][]Record, len(want.Ranks)), 0
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
		pooled := len(s.dir.pool.bufs)
		b.Release()
		b.Release()
		if got := len(s.dir.pool.bufs) - pooled; got != 1 {
			t.Fatalf("releasing a batch twice pooled %d buffers, want 1", got)
		}
	}
	(*Batch)(nil).Release()
	if cur := s.dir.res.cur.Load(); cur != 0 {
		t.Fatalf("every batch released twice leaves %d bytes resident, want 0", cur)
	}
	if batches <= len(want.Ranks) {
		t.Fatalf("window produced only %d batches for %d ranks — not windowing", batches, len(want.Ranks))
	}
	if !reflect.DeepEqual(ranks, want.Ranks) {
		t.Fatal("records differ between stream and ReadDir")
	}
	if peak := s.PeakResidentBytes(); peak <= 0 || peak > window+slack {
		t.Fatalf("peak resident %d outside (0, %d]", peak, window+slack)
	}
}

// TestStreamWindowBound is the memory contract: a rank read through
// Dir.ReadRank never holds more than the window plus one record's worth of
// overshoot (a batch closes at the first record that reaches the window).
func TestStreamWindowBound(t *testing.T) {
	tr := streamTestTrace(t, 4, 1000)
	dir := t.TempDir()
	if err := WriteDir(dir, tr, DefaultEncodeOptions()); err != nil {
		t.Fatal(err)
	}
	const window = 1 << 12
	d := openDir(t, dir, StreamOptions{WindowBytes: window})
	readEveryRank(t, d)
	const slack = 1 << 10 // one record far exceeds this; strings live in the table
	if peak := d.PeakResidentBytes(); peak <= 0 || peak > window+slack {
		t.Fatalf("peak resident %d outside (0, %d]", peak, window+slack)
	}
	if d.window != window {
		t.Fatalf("one reader's window = %d, want the whole %d", d.window, window)
	}

	// The materializing read keeps every batch: its peak is the whole decode
	// cost, and must dwarf the windowed peak on this trace.
	whole := openDir(t, dir, StreamOptions{WindowBytes: WindowUnbounded})
	got, _, err := whole.materialize(1)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRecords() != tr.NumRecords() {
		t.Fatalf("materialized %d records, want %d", got.NumRecords(), tr.NumRecords())
	}
	if whole.PeakResidentBytes() < 10*d.PeakResidentBytes() {
		t.Fatalf("unbounded peak %d not >> windowed peak %d", whole.PeakResidentBytes(), d.PeakResidentBytes())
	}
}

// TestReadRankLendsSlots: ReadRank cuts every rank into slots of at most
// slotBytes of decoded cost (plus the record that reaches it) whether the
// window is unbounded, the default or larger than a slot, and lends them as
// steps: once the index scratch has grown to a slot's arguments, each
// slot's argument indices start where the previous slot's did, and the
// directory keeps that scratch, with the side table, for the next rank file,
// whose slots all start in it. The records are the materializing read's.
func TestReadRankLendsSlots(t *testing.T) {
	// One P and no collection between rank files: the reader state the last
	// rank file gave back is the one the next takes from the pool.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	tr := streamTestTrace(t, 3, 6000)
	dir := t.TempDir()
	if err := WriteDir(dir, tr, DefaultEncodeOptions()); err != nil {
		t.Fatal(err)
	}
	for _, window := range []int64{WindowUnbounded, 0, 1 << 20} {
		d := openDir(t, dir, StreamOptions{WindowBytes: window})
		ranks := make([][]Record, d.NumRanks())
		slots := 0
		starts := make([]map[*uint32]bool, d.NumRanks())
		for rank := range ranks {
			starts[rank] = map[*uint32]bool{}
			err := d.ReadRank(rank, func(steps []Step) {
				slots++
				starts[rank][&steps[0].tab.idx[steps[0].lo]] = true
				ranks[rank] = appendOwned(ranks[rank], steps)
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(ranks, tr.Ranks) {
			t.Fatalf("window=%d: slotted records differ from the trace written", window)
		}
		const slack = 1 << 10 // one record far exceeds this
		if peak := d.PeakResidentBytes(); peak <= 0 || peak > slotBytes+slack {
			t.Errorf("window=%d: peak resident %d outside (0, %d]", window, peak, slotBytes+slack)
		}
		// 6 000 records of about 190 bytes of decode cost: 17 or 18 slots a
		// rank, whose indices start in a few places on the first rank file
		// and in one on the next.
		t.Logf("window=%d: %d slots, indices of rank 0 starting at %d places", window, slots, len(starts[0]))
		if slots < 45 || len(starts[0]) > slots/9 {
			t.Errorf("window=%d: %d slots, rank 0's indices starting at %d places, want at least 45 slots sharing a few", window, slots, len(starts[0]))
		}
		// The race detector makes sync.Pool drop reader state at random.
		for rank := 1; rank < len(starts) && !raceEnabled; rank++ {
			if len(starts[rank]) != 1 {
				t.Errorf("window=%d: rank %d's slots start their indices in %d places, want the 1 rank %d left", window, rank, len(starts[rank]), rank-1)
			}
		}
	}
}

// TestStreamTolerateSalvage pins that the windowed rank reader salvages
// exactly what the materializing tolerate path does, stats included.
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
	d := openDir(t, dir, StreamOptions{DecodeOptions: DecodeOptions{Tolerate: true}, WindowBytes: 1 << 12})
	ranks, _ := readEveryRank(t, d)
	for rank := range want.Ranks {
		if !reflect.DeepEqual(ranks[rank], want.Ranks[rank]) {
			t.Fatalf("rank %d salvage differs: windowed %d records, ReadDir %d",
				rank, len(ranks[rank]), len(want.Ranks[rank]))
		}
	}
	got := d.Stats()
	if len(got.Ranks) != len(wantStats.Ranks) {
		t.Fatalf("stats: windowed %+v, ReadDir %+v", got, wantStats)
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
	if _, err := OpenDir(dir, StreamOptions{WindowBytes: 1 << 12}, 1); err == nil || err.Error() != wantErr.Error() {
		t.Fatalf("OpenDir error = %v, want %v", err, wantErr)
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
	ranks, _ := readEveryRank(t, openDir(t, dir, StreamOptions{WindowBytes: 1 << 12}))
	if !reflect.DeepEqual(ranks, tr.Ranks) {
		t.Error("windowed read with strays present differs from the trace written")
	}
}
