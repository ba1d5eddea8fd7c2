package trace

import (
	"bytes"
	"compress/flate"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"verifyio/internal/par"
)

// withFreshReaderStates runs f on an empty reader-state pool: every stream f
// opens builds its inflater and window afresh, as the first stream of a
// process does.
func withFreshReaderStates(f func()) {
	saved := readerStates
	readerStates = &sync.Pool{New: saved.New}
	defer func() { readerStates = saved }()
	f()
}

// smallDir writes a compressed directory of ranks files of recs records each.
func smallDir(t *testing.T, ranks, recs int) string {
	t.Helper()
	dir := t.TempDir()
	if err := WriteDir(dir, streamTestTrace(t, ranks, recs), DefaultEncodeOptions()); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestPerFileAllocationBudget: a rank file costs its records plus a small
// fixed amount. The inflater, its read buffer and the decoder's window are
// reused across files, and the scanned file is opened once. Two directories
// with the same number of records, one with 64 files of 10 records and one
// with 10 files of 64, are read through ReadDir and a windowed OpenDir. The
// extra bytes the 54 extra files cost are the per-file cost. Building
// the reader state afresh for every file cost about 48 KiB per file.
func TestPerFileAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop reader state at random")
	}
	const budget = 4 << 10 // bytes per file beyond its records
	many, few := smallDir(t, 64, 10), smallDir(t, 10, 64)
	reads := map[string]func(dir string){
		"ReadDir": func(dir string) {
			if _, err := ReadDir(dir); err != nil {
				t.Fatal(err)
			}
		},
		"windowed OpenDir": func(dir string) {
			d, err := OpenDir(dir, StreamOptions{WindowBytes: 4 << 10}, 1)
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			for rank := 0; rank < d.NumRanks(); rank++ {
				if err := d.ReadRank(rank, func([]Step) {}); err != nil {
					t.Fatal(err)
				}
			}
		},
	}
	for name, read := range reads {
		extra := int64(allocatedBytes(func() { read(many) })) - int64(allocatedBytes(func() { read(few) }))
		perFile := extra / (64 - 10)
		t.Logf("%s: %d bytes per rank file beyond its records", name, perFile)
		if perFile > budget {
			t.Errorf("%s: %d bytes allocated per rank file beyond its records, want <= %d", name, perFile, budget)
		}
	}
}

// corruptHuffman returns data, a compressed stream, with one byte past its
// middle flipped where a fresh inflater reports the DEFLATE data corrupt.
func corruptHuffman(t *testing.T, data []byte) []byte {
	t.Helper()
	for at := len(data) / 2; at < len(data); at++ {
		bad := bytes.Clone(data)
		bad[at] ^= 0xff
		_, err := io.Copy(io.Discard, flate.NewReader(bytes.NewReader(bad[6:])))
		var ce flate.CorruptInputError
		if errors.As(err, &ce) {
			return bad
		}
	}
	t.Fatal("no single-byte flip corrupts the DEFLATE stream")
	return nil
}

// reuseSequence writes a directory of five rank files: healthy, truncated,
// a corrupt Huffman block, the final block chopped, and healthy again.
func reuseSequence(t *testing.T) string {
	t.Helper()
	dir := smallDir(t, 5, 400)
	damage := map[int]func([]byte) []byte{
		1: func(b []byte) []byte { return b[:len(b)*3/4] },
		2: func(b []byte) []byte { return corruptHuffman(t, b) },
		3: func(b []byte) []byte { return b[:len(b)-1] },
	}
	for rank, f := range damage {
		path := filepath.Join(dir, rankFileName(rank))
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, f(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// errFacts is everything an error reports, in comparable form.
type errFacts struct {
	Kind         ErrKind
	Section      string
	Rank, Record int
	Offset       int64
	Msg          string
	Classified   bool
}

func factsOf(err error) errFacts {
	if err == nil {
		return errFacts{}
	}
	f := errFacts{Msg: err.Error()}
	if de, ok := AsDecodeError(err); ok {
		f.Kind, f.Section, f.Rank, f.Record, f.Offset, f.Classified = de.Kind, de.Section, de.Rank, de.Record, de.Offset, true
	}
	return f
}

// rankRead is what reading one rank of a directory gives.
type rankRead struct {
	Recs  []Record
	Err   errFacts
	Stats []RankRecovery
	Facts []errFacts // of Stats[i].Err
}

// readRanks reads the given ranks of dir on readers goroutines, one ReadRank
// each, and returns each rank's records, error and salvage entries.
func readRanks(t *testing.T, dir string, opts StreamOptions, readers int, ranks []int) map[int]rankRead {
	t.Helper()
	d, err := OpenDir(dir, opts, readers)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	out := make([]rankRead, len(ranks))
	par.Do(readers, len(ranks), func(i int) {
		r := &out[i]
		r.Err = factsOf(d.ReadRank(ranks[i], func(steps []Step) { r.Recs = appendOwned(r.Recs, steps) }))
	})
	got := make(map[int]rankRead, len(ranks))
	for i, rank := range ranks {
		r := out[i]
		r.Stats = d.recov[rank]
		for _, s := range r.Stats {
			r.Facts = append(r.Facts, factsOf(s.Err))
		}
		got[rank] = r
	}
	return got
}

// TestReaderStateDoesNotLeakBetweenFiles reads five rank files in a row —
// healthy, truncated, a corrupt Huffman block, the final block chopped,
// healthy again — on one pool of reader state, at 1, 2 and 8 readers, in
// strict and tolerate mode, whole and windowed, twice over. Each rank's
// records, error (kind, section, rank, record, offset, message) and salvage
// entries must be those the file gives when it is the first one decoded.
// The single-stream decoder is held to the same on the five files' bytes.
func TestReaderStateDoesNotLeakBetweenFiles(t *testing.T) {
	dir := reuseSequence(t)
	ranks := []int{0, 1, 2, 3, 4}
	for _, tolerate := range []bool{false, true} {
		for _, window := range []int64{WindowUnbounded, 4 << 10} {
			opts := StreamOptions{DecodeOptions: DecodeOptions{Tolerate: tolerate}, WindowBytes: window}
			for _, readers := range readerCounts {
				// The window is shared among the readers, so what a failing
				// rank delivers before its error depends on their number: the
				// first decode opens the directory for as many.
				first := make(map[int]rankRead)
				for _, rank := range ranks {
					withFreshReaderStates(func() { first[rank] = readRanks(t, dir, opts, readers, []int{rank})[rank] })
				}
				// Tolerate mode never checks the trailer, so the chopped final
				// block (rank 3) reads as clean there.
				for _, rank := range ranks[1:4] {
					damaged := first[rank].Err.Classified
					if tolerate {
						damaged = len(first[rank].Stats) > 0 || rank == 3
					}
					if !damaged {
						t.Fatalf("tolerate=%v window=%d: rank %d reads clean", tolerate, window, rank)
					}
				}
				for pass := 0; pass < 2; pass++ {
					got := readRanks(t, dir, opts, readers, ranks)
					for _, rank := range ranks {
						if !reflect.DeepEqual(got[rank], first[rank]) {
							t.Errorf("tolerate=%v window=%d readers=%d pass %d: rank %d read as\n%+v\nwant, as the first file decoded,\n%+v",
								tolerate, window, readers, pass, rank, got[rank].Err, first[rank].Err)
						}
					}
				}
			}
		}
	}

	// The single-stream decoder, through a plain reader (the inflater gets a
	// pooled buffered reader) and a byte reader (the inflater reads it
	// directly).
	files := make([][]byte, len(ranks))
	for _, rank := range ranks {
		data, err := os.ReadFile(filepath.Join(dir, rankFileName(rank)))
		if err != nil {
			t.Fatal(err)
		}
		files[rank] = data
	}
	decode := func(data []byte, tolerate, plain bool) dirRead {
		var r io.Reader = bytes.NewReader(data)
		if plain {
			r = struct{ io.Reader }{r}
		}
		return readResult(DecodeWithOptions(r, DecodeOptions{Tolerate: tolerate}))
	}
	for _, tolerate := range []bool{false, true} {
		for _, plain := range []bool{false, true} {
			first := make([]dirRead, len(files))
			for i, data := range files {
				withFreshReaderStates(func() { first[i] = decode(data, tolerate, plain) })
			}
			for pass := 0; pass < 2; pass++ {
				for i, data := range files {
					if got := decode(data, tolerate, plain); !reflect.DeepEqual(got, first[i]) {
						t.Errorf("tolerate=%v plain=%v pass %d: file %d decodes to %q, first %q", tolerate, plain, pass, i, got.Err, first[i].Err)
					}
				}
			}
		}
	}
}
