package conflict

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"verifyio/internal/recorder"
	"verifyio/internal/sim/mpiio"
	"verifyio/internal/sim/posixfs"
	"verifyio/internal/trace"
)

// buildTrace assembles a raw trace from shorthand specs: "rank func a b c".
func buildTrace(nranks int, recs ...[]string) *trace.Trace {
	tr := trace.New(nranks)
	ticks := make([]int64, nranks)
	for _, spec := range recs {
		rank := int(spec[0][0] - '0')
		ticks[rank] += 2
		tr.Append(trace.Record{
			Rank: rank, Func: spec[1], Layer: trace.LayerPOSIX,
			Args: spec[2:], Tick: ticks[rank], Ret: ticks[rank] + 1,
		})
	}
	return tr
}

func TestBasicOverlapDetection(t *testing.T) {
	tr := buildTrace(2,
		[]string{"0", "open", "f", "rw|creat", "3"},
		[]string{"0", "pwrite", "3", "4", "0"}, // [0,4) write
		[]string{"1", "open", "f", "r", "3"},
		[]string{"1", "pread", "3", "4", "2"}, // [2,6) read — overlaps
		[]string{"1", "pread", "3", "4", "8"}, // [8,12) — no overlap
	)
	res, err := Detect(tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pairs != 1 {
		t.Fatalf("pairs = %d, want 1", res.Pairs)
	}
	if len(res.Ops) != 3 {
		t.Fatalf("ops = %d, want 3", len(res.Ops))
	}
	// The pair is stored once, under its lower op: rank 0's write heads the
	// only group and rank 1's read is its only partner — never the reverse.
	if len(res.Groups) != 1 {
		t.Fatalf("groups = %d, want 1 (the pair lives under its lower op)", len(res.Groups))
	}
	g := &res.Groups[0]
	if x, y := res.Ops[g.X], res.Ops[1]; g.X != 0 || !x.Write || x.Ref.Rank != 0 || y.Ref.Rank != 1 {
		t.Fatalf("group X = op %d (%+v), want rank 0's write at op 0; op 1 = %+v", g.X, x, y)
	}
	if ys := g.Ys(); len(ys) != 1 || ys[0] != 1 || g.NumRuns() != 1 || len(g.RunAt(0)) != 1 {
		t.Fatalf("ys = %v in %d runs, want [1] in one run", ys, g.NumRuns())
	}
	bruteCheck(t, res)
}

func TestReadReadIsNotAConflict(t *testing.T) {
	tr := buildTrace(2,
		[]string{"0", "open", "f", "r", "3"},
		[]string{"0", "pread", "3", "8", "0"},
		[]string{"1", "open", "f", "r", "3"},
		[]string{"1", "pread", "3", "8", "0"},
	)
	res, _ := Detect(tr)
	if res.Pairs != 0 {
		t.Errorf("read-read pairs = %d, want 0", res.Pairs)
	}
}

func TestSameRankPairsExcluded(t *testing.T) {
	tr := buildTrace(1,
		[]string{"0", "open", "f", "rw|creat", "3"},
		[]string{"0", "pwrite", "3", "4", "0"},
		[]string{"0", "pwrite", "3", "4", "2"},
	)
	res, _ := Detect(tr)
	if res.Pairs != 0 {
		t.Errorf("same-rank pairs = %d, want 0", res.Pairs)
	}
}

func TestDistinctFilesDoNotConflict(t *testing.T) {
	tr := buildTrace(2,
		[]string{"0", "open", "a", "rw|creat", "3"},
		[]string{"0", "pwrite", "3", "4", "0"},
		[]string{"1", "open", "b", "rw|creat", "3"},
		[]string{"1", "pwrite", "3", "4", "0"},
	)
	res, _ := Detect(tr)
	if res.Pairs != 0 {
		t.Errorf("cross-file pairs = %d, want 0", res.Pairs)
	}
	if len(res.Files) != 2 {
		t.Errorf("files = %v", res.Files)
	}
}

func TestOffsetReconstructionFromSeeks(t *testing.T) {
	// write/read carry no offsets; the detector replays lseek history.
	tr := buildTrace(2,
		[]string{"0", "open", "f", "rw|creat", "3"},
		[]string{"0", "lseek", "3", "10", "SEEK_SET", "10"},
		[]string{"0", "write", "3", "4"}, // [10,14)
		[]string{"0", "write", "3", "4"}, // [14,18)
		[]string{"1", "open", "f", "r", "4"},
		[]string{"1", "lseek", "4", "12", "SEEK_SET", "12"},
		[]string{"1", "read", "4", "2"}, // [12,14) — conflicts with first write only
	)
	res, _ := Detect(tr)
	if res.Pairs != 1 {
		t.Fatalf("pairs = %d, want 1", res.Pairs)
	}
	// Verify the reconstructed ranges.
	want := map[string][2]int64{
		"0:2": {10, 14}, "0:3": {14, 18}, "1:2": {12, 14},
	}
	for _, op := range res.Ops {
		w, ok := want[op.Ref.String()]
		if !ok {
			t.Errorf("unexpected op %v", op)
			continue
		}
		if op.Start != w[0] || op.End != w[1] {
			t.Errorf("op %v range [%d,%d), want [%d,%d)", op.Ref, op.Start, op.End, w[0], w[1])
		}
	}
}

func TestSeekEndUsesTrackedEOF(t *testing.T) {
	// No recorded result position (arg 3 missing): replay SEEK_END from
	// the tracked EOF.
	tr := buildTrace(1,
		[]string{"0", "open", "f", "rw|creat", "3"},
		[]string{"0", "pwrite", "3", "100", "0"}, // EOF=100
		[]string{"0", "lseek", "3", "-10", "SEEK_END"},
		[]string{"0", "write", "3", "5"}, // [90,95)
	)
	res, _ := Detect(tr)
	last := res.Ops[len(res.Ops)-1]
	if last.Start != 90 || last.End != 95 {
		t.Errorf("SEEK_END write range [%d,%d), want [90,95)", last.Start, last.End)
	}
}

func TestFwriteSizeTimesCount(t *testing.T) {
	tr := buildTrace(2,
		[]string{"0", "fopen", "f", "w", "5"},
		[]string{"0", "fwrite", "5", "4", "3"}, // 12 bytes at 0
		[]string{"1", "open", "f", "r", "3"},
		[]string{"1", "pread", "3", "2", "10"}, // [10,12) overlaps
	)
	res, _ := Detect(tr)
	if res.Pairs != 1 {
		t.Fatalf("pairs = %d, want 1", res.Pairs)
	}
	if op := res.Ops[0]; op.Start != 0 || op.End != 12 || !op.Write {
		t.Errorf("fwrite op = %+v", op)
	}
}

func TestFdAndStreamAliasSameFile(t *testing.T) {
	// The §IV-B corner case: pwrite via fd on rank 0, fwrite via FILE* on
	// rank 1, same file → same fid → conflict.
	tr := buildTrace(2,
		[]string{"0", "open", "shared", "rw|creat", "3"},
		[]string{"0", "pwrite", "3", "8", "0"},
		[]string{"1", "fopen", "shared", "r+", "7"},
		[]string{"1", "fwrite", "7", "1", "4"},
	)
	res, _ := Detect(tr)
	if res.Pairs != 1 {
		t.Fatalf("pairs = %d, want 1 (handle aliasing)", res.Pairs)
	}
	if len(res.Files) != 1 {
		t.Errorf("files = %v, want one unique id", res.Files)
	}
}

func TestAppendModeStartsAtEOF(t *testing.T) {
	tr := buildTrace(1,
		[]string{"0", "open", "f", "rw|creat", "3"},
		[]string{"0", "pwrite", "3", "6", "0"}, // EOF=6
		[]string{"0", "open", "f", "w|append", "4"},
		[]string{"0", "write", "4", "3"}, // [6,9)
	)
	res, _ := Detect(tr)
	last := res.Ops[len(res.Ops)-1]
	if last.Start != 6 || last.End != 9 {
		t.Errorf("append write range [%d,%d), want [6,9)", last.Start, last.End)
	}
}

func TestTruncateProducesWriteRange(t *testing.T) {
	tr := buildTrace(2,
		[]string{"0", "open", "f", "rw|creat", "3"},
		[]string{"0", "pwrite", "3", "10", "0"}, // EOF=10
		[]string{"0", "ftruncate", "3", "4"},    // clobbers [4,10) and whatever lies past it
		[]string{"1", "open", "f", "r", "3"},
		[]string{"1", "pread", "3", "2", "5"}, // [5,7) — hits truncated range
	)
	res, _ := Detect(tr)
	// pread conflicts with both the pwrite and the truncate.
	if res.Pairs != 2 {
		t.Errorf("pairs = %d, want 2", res.Pairs)
	}
	// Rank 0 cannot know what other ranks wrote past its EOF estimate, so the
	// truncation's range runs to the end of the offset space.
	if trunc := res.Ops[1]; trunc.Start != 4 || trunc.End != math.MaxInt64 || !trunc.Write {
		t.Errorf("ftruncate op %+v, want a write of [4, MaxInt64)", trunc)
	}
}

func TestSyncPointsResolveFiles(t *testing.T) {
	tr := buildTrace(1,
		[]string{"0", "open", "f", "rw|creat", "3"},
		[]string{"0", "fsync", "3"},
		[]string{"0", "close", "3"},
	)
	res, _ := Detect(tr)
	if len(res.Syncs) != 3 {
		t.Fatalf("syncs = %d, want 3", len(res.Syncs))
	}
	for _, sp := range res.Syncs {
		if sp.FID != 0 {
			t.Errorf("sync %s fid = %d", sp.Func, sp.FID)
		}
	}
}

func TestUnknownHandlesSkippedNotFatal(t *testing.T) {
	tr := buildTrace(1,
		[]string{"0", "pwrite", "99", "4", "0"}, // fd never opened
		[]string{"0", "lseek", "99", "0", "SEEK_SET", "0"},
		[]string{"0", "close", "99"},
	)
	res, err := Detect(tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Skipped != 3 {
		t.Errorf("skipped = %d, want 3", res.Skipped)
	}
	if len(res.Ops) != 0 {
		t.Errorf("ops = %v", res.Ops)
	}
}

func TestGroupsSortedByProgramOrder(t *testing.T) {
	tr := buildTrace(2,
		[]string{"0", "open", "f", "rw|creat", "3"},
		[]string{"0", "pwrite", "3", "10", "0"},
		[]string{"1", "open", "f", "rw", "3"},
		[]string{"1", "pwrite", "3", "2", "8"},
		[]string{"1", "pwrite", "3", "2", "0"},
		[]string{"1", "pwrite", "3", "2", "4"},
	)
	res, _ := Detect(tr)
	var g *Group
	for i := range res.Groups {
		if res.Ops[res.Groups[i].X].Ref.Rank == 0 {
			g = &res.Groups[i]
		}
	}
	if g == nil {
		t.Fatal("no group for rank 0's write")
	}
	if g.NumRuns() != 1 {
		t.Fatalf("runs = %d, want one (rank 1's)", g.NumRuns())
	}
	lst := g.RunAt(0)
	if len(lst) != 3 || res.Ops[lst[0]].Ref.Rank != 1 {
		t.Fatalf("ζ[1] = %v", lst)
	}
	for i := 1; i < len(lst); i++ {
		if !res.Ops[lst[i-1]].Ref.Less(res.Ops[lst[i]].Ref) {
			t.Errorf("ζ[1] not in program order: %v", lst)
		}
	}
}

func TestEndToEndWithRecorder(t *testing.T) {
	// Fig. 2's scenario via the real tracer: rank 0 writes [0,4), rank 1
	// reads [0,4) through MPI-IO.
	env := recorder.NewEnv(2, recorder.Options{FSMode: posixfs.ModePOSIX})
	err := env.Run(func(r *recorder.Rank) error {
		c := r.Proc().CommWorld()
		f, err := mpiio.Open(r, c, "fig2.bin", mpiio.ModeRdwr|mpiio.ModeCreate, mpiio.Config{})
		if err != nil {
			return err
		}
		if r.Rank() == 0 {
			if err := f.WriteAt(0, []byte("abcd")); err != nil {
				return err
			}
		}
		if err := r.Barrier(c); err != nil {
			return err
		}
		if r.Rank() == 1 {
			if _, err := f.ReadAt(0, 4); err != nil {
				return err
			}
		}
		return f.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Detect(env.Trace())
	if err != nil {
		t.Fatal(err)
	}
	if res.Pairs != 1 {
		t.Fatalf("pairs = %d, want 1 (pwrite vs pread)", res.Pairs)
	}
	// Sync points include the MPI-IO open/close resolved to the file.
	byFunc := map[string]int{}
	for _, sp := range res.Syncs {
		byFunc[sp.Func]++
		if res.PathOf(int(sp.FID)) != "fig2.bin" {
			t.Errorf("sync %s resolved to %s", sp.Func, res.PathOf(int(sp.FID)))
		}
	}
	if byFunc["MPI_File_open"] != 2 || byFunc["MPI_File_close"] != 2 {
		t.Errorf("MPI-IO sync points = %v", byFunc)
	}
}

// TestPropertySweepMatchesBruteForce cross-checks the sort-and-sweep against
// the O(n²) definition on random interval sets.
func TestPropertySweepMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nranks := 2 + rng.Intn(3)
		tr := trace.New(nranks)
		ticks := make([]int64, nranks)
		type iv struct {
			rank       int
			write      bool
			start, end int64
		}
		var ivs []iv
		emit := func(rank int, fn string, args ...string) {
			ticks[rank] += 2
			tr.Append(trace.Record{Rank: rank, Func: fn, Layer: trace.LayerPOSIX,
				Args: args, Tick: ticks[rank], Ret: ticks[rank] + 1})
		}
		for rank := 0; rank < nranks; rank++ {
			emit(rank, "open", "f", "rw|creat", "3")
			for i := 0; i < 12; i++ {
				start := int64(rng.Intn(60))
				n := int64(1 + rng.Intn(10))
				write := rng.Intn(2) == 0
				fn := "pread"
				if write {
					fn = "pwrite"
				}
				emit(rank, fn, "3", fmt.Sprint(n), fmt.Sprint(start))
				ivs = append(ivs, iv{rank, write, start, start + n})
			}
		}
		var brute int64
		for i := range ivs {
			for j := i + 1; j < len(ivs); j++ {
				a, b := ivs[i], ivs[j]
				if a.rank == b.rank || (!a.write && !b.write) {
					continue
				}
				if a.start < b.end && b.start < a.end {
					brute++
				}
			}
		}
		res, err := Detect(tr)
		if err != nil {
			return false
		}
		if res.Pairs != brute {
			t.Logf("seed %d: sweep %d vs brute %d", seed, res.Pairs, brute)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestUnlinkRetiresFileIdentity(t *testing.T) {
	// Rank 0 writes generation 1, unlinks, recreates; rank 1's write to
	// generation 2 must not conflict with generation 1's data.
	tr := buildTrace(2,
		[]string{"0", "open", "f", "rw|creat", "3"},
		[]string{"0", "pwrite", "3", "8", "0"}, // gen 1
		[]string{"0", "close", "3"},
		[]string{"0", "unlink", "f"},
		[]string{"0", "open", "f", "rw|creat", "4"}, // gen 2
		[]string{"0", "pwrite", "4", "8", "0"},
		[]string{"1", "open", "f", "rw", "3"},
		[]string{"1", "pwrite", "3", "8", "0"}, // rank-major scan: gen 2
	)
	res, err := Detect(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Files) != 2 {
		t.Fatalf("file identities = %d (%v), want 2 generations", len(res.Files), res.Files)
	}
	// Only the generation-2 writes conflict (rank 0's second write vs
	// rank 1's write): one pair, not three.
	if res.Pairs != 1 {
		t.Errorf("pairs = %d, want 1 (generations kept apart)", res.Pairs)
	}
}

func TestStatRecordsAreIgnored(t *testing.T) {
	tr := buildTrace(1,
		[]string{"0", "stat", "f", "0"},
		[]string{"0", "open", "f", "rw|creat", "3"},
		[]string{"0", "pwrite", "3", "4", "0"},
	)
	res, err := Detect(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Ops) != 1 || res.Skipped != 0 {
		t.Errorf("ops=%d skipped=%d", len(res.Ops), res.Skipped)
	}
}

func TestVectorIOContiguousRange(t *testing.T) {
	// writev/readv scatter in memory but are contiguous in the file: one
	// range of the summed iov lengths at the file position.
	tr := buildTrace(2,
		[]string{"0", "open", "f", "rw|creat", "3"},
		[]string{"0", "lseek", "3", "100", "SEEK_SET", "100"},
		[]string{"0", "writev", "3", "3", "4", "8", "4"}, // [100,116)
		[]string{"1", "open", "f", "r", "3"},
		[]string{"1", "lseek", "3", "110", "SEEK_SET", "110"},
		[]string{"1", "readv", "3", "2", "4", "4"}, // [110,118) — overlaps
	)
	res, err := Detect(tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pairs != 1 {
		t.Fatalf("pairs = %d, want 1", res.Pairs)
	}
	w := res.Ops[0]
	if w.Start != 100 || w.End != 116 || !w.Write {
		t.Errorf("writev op = %+v, want [100,116) write", w)
	}
	rd := res.Ops[1]
	if rd.Start != 110 || rd.End != 118 || rd.Write {
		t.Errorf("readv op = %+v, want [110,118) read", rd)
	}
}

func TestVectorIOMalformedSkipped(t *testing.T) {
	tr := buildTrace(1,
		[]string{"0", "open", "f", "rw|creat", "3"},
		[]string{"0", "writev", "3", "3", "4"}, // claims 3 iovecs, lists 1
	)
	res, _ := Detect(tr)
	if res.Skipped != 1 || len(res.Ops) != 0 {
		t.Errorf("skipped=%d ops=%d", res.Skipped, len(res.Ops))
	}
}

// TestFwriteOverflowSkipped pins the ingestion-hardening fix: corrupt
// fread/fwrite records whose size*count is negative or overflows int64 must
// be counted as skipped, not turned into garbage byte ranges that poison
// conflict detection.
func TestFwriteOverflowSkipped(t *testing.T) {
	cases := []struct {
		name        string
		size, count string
	}{
		{"negative size", "-4", "10"},
		{"negative count", "4", "-10"},
		{"product overflows", "4611686018427387904", "4"}, // 2^62 * 4
		{"both huge", "9223372036854775807", "9223372036854775807"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := buildTrace(2,
				[]string{"0", "fopen", "f", "w", "s0"},
				[]string{"0", "fwrite", "s0", tc.size, tc.count},
				[]string{"1", "fopen", "f", "r", "s1"},
				[]string{"1", "fread", "s1", tc.size, tc.count},
			)
			res, err := Detect(tr)
			if err != nil {
				t.Fatal(err)
			}
			if res.Skipped != 2 {
				t.Errorf("skipped = %d, want 2 (both corrupt records)", res.Skipped)
			}
			if len(res.Ops) != 0 {
				t.Errorf("ops = %v, want none from corrupt records", res.Ops)
			}
			if res.Pairs != 0 {
				t.Errorf("pairs = %d, want 0", res.Pairs)
			}
		})
	}
	// Boundary sanity: a legitimate maximal product still replays.
	tr := buildTrace(1,
		[]string{"0", "fopen", "f", "w", "s0"},
		[]string{"0", "fwrite", "s0", "4611686018427387903", "2"},
	)
	res, err := Detect(tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Skipped != 0 || len(res.Ops) != 1 {
		t.Errorf("legit max-range fwrite skipped: skipped=%d ops=%d", res.Skipped, len(res.Ops))
	}
}

// TestImpossibleRangeSkipped extends the rule above to every data operation:
// a byte range that starts below zero or ends past MaxInt64 is counted as
// skipped. Stored unchecked, an End past MaxInt64 wraps negative and the
// interval conflicts with nothing — not even rank 1's write to the same
// last bytes of the offset space below.
func TestImpossibleRangeSkipped(t *testing.T) {
	const maxOff = "9223372036854775807"
	cases := []struct {
		name string
		recs [][]string // rank 0, after its open of "f" as fd 3
	}{
		{"pwrite wraps past MaxInt64", [][]string{{"0", "pwrite", "3", "8", "9223372036854775803"}}},
		{"write after lseek to MaxInt64", [][]string{
			{"0", "lseek", "3", maxOff, "SEEK_SET", maxOff},
			{"0", "write", "3", "8"}}},
		{"pread at a negative offset", [][]string{{"0", "pread", "3", "16", "-8"}}},
		{"ftruncate to a negative size", [][]string{{"0", "ftruncate", "3", "-1"}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			recs := [][]string{{"0", "open", "f", "rw|creat", "3"}}
			recs = append(recs, tc.recs...)
			recs = append(recs,
				[]string{"1", "open", "f", "rw", "3"},
				[]string{"1", "pwrite", "3", "8", "0"},
				[]string{"1", "pwrite", "3", "4", "9223372036854775803"}) // [Max-4, Max): legitimate
			res, err := Detect(buildTrace(2, recs...))
			if err != nil {
				t.Fatal(err)
			}
			if res.Skipped != 1 {
				t.Errorf("skipped = %d, want 1", res.Skipped)
			}
			if len(res.Ops) != 2 || res.Pairs != 0 {
				t.Errorf("ops = %+v, pairs = %d; want rank 1's two writes and no pair", res.Ops, res.Pairs)
			}
			for _, op := range res.Ops {
				if op.Start < 0 || op.End <= op.Start {
					t.Errorf("nonsense range in the interval index: %+v", op)
				}
			}
		})
	}

	// A skipped ftruncate leaves the EOF estimate alone.
	res, err := Detect(buildTrace(1,
		[]string{"0", "open", "f", "rw|creat", "3"},
		[]string{"0", "pwrite", "3", "10", "0"}, // EOF=10
		[]string{"0", "ftruncate", "3", "-1"},
		[]string{"0", "lseek", "3", "0", "SEEK_END"},
		[]string{"0", "write", "3", "4"}, // [10,14)
	))
	if err != nil {
		t.Fatal(err)
	}
	if last := res.Ops[len(res.Ops)-1]; res.Skipped != 1 || last.Start != 10 || last.End != 14 {
		t.Errorf("skipped = %d, write after SEEK_END = [%d,%d); want 1 and [10,14)", res.Skipped, last.Start, last.End)
	}
}
