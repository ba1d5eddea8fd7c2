package conflict

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"verifyio/internal/match"
	"verifyio/internal/trace"
)

// fuzzOpBytes is the size of one operation as FuzzDetectOffsets reads it: a
// byte of rank (2 bits), write (1 bit) and file (2 bits, mod 3); a byte
// selecting how the offset and the length are derived (2 bits each) and
// spelled (2 bits each, see fuzzSpell); then the two raw little-endian
// int64s. The derivations steer random bytes toward the edges of the offset
// space and toward overlapping small ranges.
const fuzzOpBytes = 18

func fuzzOffset(mode byte, raw int64) int64 {
	switch mode & 3 {
	case 1:
		return raw & 0xff
	case 2:
		return math.MaxInt64 - raw&0xff
	case 3:
		return -(raw & 0xff)
	}
	return raw
}

func fuzzLength(mode byte, raw int64) int64 {
	switch mode & 3 {
	case 1:
		return 1 + raw&0x3f
	case 2:
		return math.MaxInt64 - raw&0xff
	case 3:
		return raw & 0xff // zero-length included
	}
	return raw
}

// fuzzSpell spells v as strconv.ParseInt reads it, but not always as the
// tracer writes it: canonical (0), with a '+' sign (1), with leading zeros
// (2), or both (3); a negative value takes the zeros after its sign and no
// '+'.
func fuzzSpell(v int64, spelling byte) string {
	digits, neg := strings.CutPrefix(strconv.FormatInt(v, 10), "-")
	if spelling&2 != 0 {
		digits = "00" + digits
	}
	switch {
	case neg:
		return "-" + digits
	case spelling&1 != 0:
		return "+" + digits
	}
	return digits
}

// fuzzOp encodes one operation for the seed corpus.
func fuzzOp(rank, file int, write bool, offMode, lenMode byte, off, n int64) []byte {
	b := make([]byte, fuzzOpBytes)
	b[0] = byte(rank&3) | byte(file&3)<<3
	if write {
		b[0] |= 4
	}
	b[1] = offMode&3 | lenMode&3<<2
	binary.LittleEndian.PutUint64(b[2:], uint64(off))
	binary.LittleEndian.PutUint64(b[10:], uint64(n))
	return b
}

// FuzzDetectOffsets turns bytes into at most 64 pread/pwrite records of four
// ranks over three files, hostile offsets and lengths included, and holds
// the detector to a reference that shares nothing with it: the kept ops are
// those an independent application of the skip rule keeps, the conflict
// groups are the O(n²) definition's, and the Result is the same at every
// worker count, when the ranks are fed in ragged batches, out of order, and
// when the records are read back from a written directory. Nothing may
// panic.
func FuzzDetectOffsets(f *testing.F) {
	f.Add([]byte{})
	f.Add(bytes.Join([][]byte{
		fuzzOp(0, 0, true, 0, 0, 0, 8),
		fuzzOp(1, 0, false, 0, 0, 4, 8),
		fuzzOp(2, 1, true, 0, 0, 4, 8),
	}, nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		const nranks, nfiles = 4, 3
		tr := trace.New(nranks)
		emit := func(rank int, fn string, args ...string) {
			tick := int64(2 * len(tr.Ranks[rank]))
			tr.Append(trace.Record{Rank: rank, Func: fn, Layer: trace.LayerPOSIX,
				Args: args, Tick: tick, Ret: tick + 1})
		}
		// Every rank opens every file in the same order, so canonical file
		// ids are the file numbers.
		for rank := 0; rank < nranks; rank++ {
			for file := 0; file < nfiles; file++ {
				emit(rank, "open", fmt.Sprintf("f%d", file), "rw|creat", fmt.Sprint(3+file))
			}
		}
		want := make([][]Op, nranks)
		skipped := 0
		for nops := 0; nops < 64 && len(data) >= fuzzOpBytes; nops, data = nops+1, data[fuzzOpBytes:] {
			rank, write, file := int(data[0]&3), data[0]&4 != 0, int(data[0]>>3&3)%nfiles
			off := fuzzOffset(data[1], int64(binary.LittleEndian.Uint64(data[2:])))
			n := fuzzLength(data[1]>>2, int64(binary.LittleEndian.Uint64(data[10:])))
			fn := "pread"
			if write {
				fn = "pwrite"
			}
			seq := len(tr.Ranks[rank])
			emit(rank, fn, fmt.Sprint(3+file), fuzzSpell(n, data[1]>>6), fuzzSpell(off, data[1]>>4))
			switch {
			case off < 0 || n > math.MaxInt64-off:
				skipped++
			case n > 0:
				want[rank] = append(want[rank], Op{Ref: trace.Ref{Rank: int32(rank), Seq: int32(seq)},
					FID: int32(file), Write: write, Start: off, End: off + n})
			}
		}

		res, err := DetectOpts(tr, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		var ops []Op
		for _, r := range want {
			ops = append(ops, r...)
		}
		if res.Skipped != skipped || len(res.Ops) != len(ops) {
			t.Fatalf("kept %d ops and skipped %d, reference keeps %d and skips %d", len(res.Ops), res.Skipped, len(ops), skipped)
		}
		for i := range ops {
			if res.Ops[i] != ops[i] {
				t.Fatalf("op %d = %+v, reference %+v", i, res.Ops[i], ops[i])
			}
		}
		bruteCheck(t, res)

		fp := resultFingerprint(t, res)
		res3, err := DetectOpts(tr, Options{Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resultFingerprint(t, res3), fp) {
			t.Fatal("Workers=3 Result differs from Workers=1")
		}
		// Ragged batches, ranks in an order the input picks.
		order := []int{0, 1, 2, 3}
		for i := range order {
			j := i + (skipped+len(ops)+i)%(nranks-i)
			order[i], order[j] = order[j], order[i]
		}
		batched, err := feedDetect(tr, 3, order, false, func(rank, lo int) int { return lo + 1 + (lo+rank)%5 })
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resultFingerprint(t, batched), fp) {
			t.Fatalf("Result of ranks %v fed in batches differs from whole ranks in order", order)
		}
		sameFromDir(t, tr)
	})
}

// analyzeSource runs detection and matching over src as verify.Analyze
// does: each rank's steps, in order, fed to one Detector and one Matcher.
func analyzeSource(t *testing.T, src trace.Source) (*Result, *match.Result) {
	t.Helper()
	det, mat := NewDetector(src.NumRanks()), match.NewMatcher(src.NumRanks())
	for rank := range src.NumRanks() {
		err := src.ReadRank(rank, func(steps []trace.Step) {
			det.Feed(rank, steps)
			mat.Feed(rank, steps)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	res, err := det.Finish(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return res, mat.Finish(match.Options{})
}

// sameFromDir writes tr as a trace directory and requires the analysis of
// the directory, its steps read over each rank file's string table, to
// equal the analysis of the trace in memory: ops, skipped records, pairs
// and groups, edges and problems.
func sameFromDir(t *testing.T, tr *trace.Trace) {
	t.Helper()
	dir := t.TempDir()
	if err := trace.WriteDir(dir, tr, trace.DefaultEncodeOptions()); err != nil {
		t.Fatal(err)
	}
	d, err := trace.OpenDir(dir, trace.StreamOptions{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	want, wantM := analyzeSource(t, tr)
	got, gotM := analyzeSource(t, d)
	if !bytes.Equal(resultFingerprint(t, got), resultFingerprint(t, want)) {
		t.Fatalf("directory: %d ops, %d skipped, %d pairs; trace in memory: %d, %d, %d",
			len(got.Ops), got.Skipped, got.Pairs, len(want.Ops), want.Skipped, want.Pairs)
	}
	if !reflect.DeepEqual(gotM, wantM) {
		t.Fatalf("directory: edges %v, problems %v; trace in memory: %v, %v", gotM.Edges, gotM.Problems, wantM.Edges, wantM.Problems)
	}
}
