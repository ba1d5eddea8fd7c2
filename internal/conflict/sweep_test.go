package conflict

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"verifyio/internal/obs"
	"verifyio/internal/trace"
)

// resultFingerprint serializes every byte of a Result the sweep is
// responsible for — ops, files, syncs, the pair count, and the full CSR
// group content — so equality of fingerprints is equality of Results.
func resultFingerprint(t *testing.T, res *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := func(vs ...int64) {
		for _, v := range vs {
			if err := binary.Write(&buf, binary.LittleEndian, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	w(int64(len(res.Ops)), int64(len(res.Files)), int64(len(res.Syncs)),
		res.Pairs, int64(len(res.Groups)), int64(res.Skipped))
	for i := range res.Ops {
		op := &res.Ops[i]
		wr := int64(0)
		if op.Write {
			wr = 1
		}
		w(int64(op.Ref.Rank), int64(op.Ref.Seq), int64(op.FID), wr, op.Start, op.End)
	}
	for _, f := range res.Files {
		buf.WriteString(f)
		buf.WriteByte(0)
	}
	for i := range res.Syncs {
		sp := &res.Syncs[i]
		w(int64(sp.Ref.Rank), int64(sp.Ref.Seq), int64(sp.FID))
		buf.WriteString(sp.Func)
		buf.WriteByte(0)
	}
	for i := range res.Groups {
		g := &res.Groups[i]
		w(int64(g.X), int64(len(g.ys)), int64(len(g.runs)))
		for _, y := range g.ys {
			w(int64(y))
		}
		for _, r := range g.runs {
			w(int64(r))
		}
	}
	return buf.Bytes()
}

// bruteCheck rebuilds every conflict group from the O(n²) definition —
// independent of sorting, slicing, and the counting transpose — and
// requires the sweep's CSR output to match it exactly: group set, y order,
// run boundaries, pair count.
func bruteCheck(t *testing.T, res *Result) {
	t.Helper()
	n := len(res.Ops)
	adj := make([][]int32, n)
	var pairs int64
	for i := 0; i < n; i++ {
		I := &res.Ops[i]
		for j := i + 1; j < n; j++ {
			J := &res.Ops[j]
			if I.FID != J.FID || I.Ref.Rank == J.Ref.Rank || (!I.Write && !J.Write) {
				continue
			}
			if I.Start < J.End && J.Start < I.End {
				adj[i] = append(adj[i], int32(j))
				adj[j] = append(adj[j], int32(i))
				pairs++
			}
		}
	}
	if res.Pairs != pairs {
		t.Errorf("pairs = %d, brute force = %d", res.Pairs, pairs)
	}
	gi := 0
	for x := 0; x < n; x++ {
		if len(adj[x]) == 0 {
			continue
		}
		slices.Sort(adj[x])
		if gi >= len(res.Groups) {
			t.Fatalf("no group for op %d (have %d groups)", x, len(res.Groups))
		}
		g := &res.Groups[gi]
		gi++
		if g.X != x || !slices.Equal(g.ys, adj[x]) {
			t.Fatalf("group %d: X=%d ys=%v; brute x=%d ys=%v", gi-1, g.X, g.ys, x, adj[x])
		}
		var runs []int32
		prev := -1
		for k, y := range adj[x] {
			if r := res.Ops[y].Ref.Rank; r != prev {
				runs = append(runs, int32(k))
				prev = r
			}
		}
		runs = append(runs, int32(len(adj[x])))
		if !slices.Equal(g.runs, runs) {
			t.Fatalf("group X=%d: runs=%v, brute=%v", g.X, g.runs, runs)
		}
	}
	if gi != len(res.Groups) {
		t.Errorf("sweep produced %d groups, brute force %d", len(res.Groups), gi)
	}
}

// sweepShapes are the adversarial interval distributions the
// full-adjacency property test covers. Every shape but the last is big
// enough to cut its file into several slices, so the carry-in sets and the
// slice-ownership rule are on the hook, not just the per-file split.
var sweepShapes = []struct {
	name     string
	nranks   int
	ops      int // total, spread over the ranks
	nfiles   int
	window   int64
	width    int64
	pctWrite int
	rankSkew bool // concentrate most ops on rank 0
}{
	{name: "overlap-heavy", nranks: 4, ops: 1600, nfiles: 1, window: 1 << 8, width: 48, pctWrite: 60},
	{name: "same-rank-heavy", nranks: 2, ops: 2200, nfiles: 1, window: 1 << 10, width: 16, pctWrite: 50, rankSkew: true},
	{name: "multi-file", nranks: 4, ops: 2600, nfiles: 3, window: 1 << 9, width: 24, pctWrite: 40},
	{name: "zero-write", nranks: 4, ops: 900, nfiles: 1, window: 1 << 8, width: 32, pctWrite: 0},
}

// genShapeTrace builds a trace realizing one sweepShapes entry.
func genShapeTrace(si int, seed int64) *trace.Trace {
	sh := sweepShapes[si]
	rng := rand.New(rand.NewSource(seed))
	tr := trace.New(sh.nranks)
	for rank := 0; rank < sh.nranks; rank++ {
		tick := int64(0)
		emit := func(fn string, args ...string) {
			tick += 2
			tr.Append(trace.Record{Rank: rank, Func: fn, Layer: trace.LayerPOSIX,
				Args: args, Tick: tick, Ret: tick + 1})
		}
		for fi := 0; fi < sh.nfiles; fi++ {
			emit("open", fmt.Sprintf("f%d", fi), "rw|creat", fmt.Sprint(3+fi))
		}
		nops := sh.ops / sh.nranks
		if sh.rankSkew {
			if rank == 0 {
				nops = sh.ops * 4 / 5
			} else {
				nops = sh.ops / 5 / (sh.nranks - 1)
			}
		}
		for i := 0; i < nops; i++ {
			fn := "pread"
			if rng.Intn(100) < sh.pctWrite {
				fn = "pwrite"
			}
			n := 1 + rng.Int63n(sh.width)
			emit(fn, fmt.Sprint(3+rng.Intn(sh.nfiles)), fmt.Sprint(n), fmt.Sprint(rng.Int63n(sh.window)))
		}
	}
	return tr
}

// TestPropertySweepFullAdjacency checks the sliced, pair-free sweep against
// the brute-force definition — full group content, not just pair counts —
// and requires byte-identical Results across worker counts on every shape.
func TestPropertySweepFullAdjacency(t *testing.T) {
	for si := range sweepShapes {
		sh := sweepShapes[si]
		t.Run(sh.name, func(t *testing.T) {
			for seed := int64(0); seed < 3; seed++ {
				tr := genShapeTrace(si, seed)
				var base []byte
				for _, workers := range []int{1, 2, 7} {
					res, err := DetectOpts(tr, Options{Workers: workers})
					if err != nil {
						t.Fatalf("seed %d workers %d: %v", seed, workers, err)
					}
					if workers == 1 {
						bruteCheck(t, res)
						if sh.pctWrite == 0 && res.Pairs != 0 {
							t.Fatalf("seed %d: read-only shape produced %d pairs", seed, res.Pairs)
						}
						base = resultFingerprint(t, res)
						continue
					}
					if fp := resultFingerprint(t, res); !bytes.Equal(fp, base) {
						t.Fatalf("seed %d: workers=%d Result differs from workers=1", seed, workers)
					}
				}
			}
		})
	}
}

// TestSweepShardsWithinSingleFile pins the intra-file fan-out and the sweep's
// memory contract on a dense single-shared-file trace (443 739 pairs): more
// than one sweep task and slice, transient scratch within 12 bytes per
// conflicting pair, and no per-pair or per-group allocation. Workers is
// pinned, never GOMAXPROCS: the transpose histogram is 4·K·n bytes with one
// op range per worker (K = Workers), so bytes per pair grow with the worker
// count (9.2 at 1, 9.6 at 4, over 12 past ~20) and a host-sized run would
// gate on the runner's core count instead of on the code.
func TestSweepShardsWithinSingleFile(t *testing.T) {
	tr := synthTrace(8, 2048, 1<<13, 99)
	for _, workers := range []int{1, 4} {
		reg := obs.NewRegistry()
		res, err := DetectOpts(tr, Options{Workers: workers, Obs: obs.Ctx{R: reg}})
		if err != nil {
			t.Fatal(err)
		}
		if res.Pairs == 0 {
			t.Fatal("dense trace produced no conflicts")
		}
		snap := reg.Snapshot()
		if tasks := snap.Stable.Counters["par.detect-sweep.tasks_submitted"]; tasks <= 1 {
			t.Errorf("workers=%d: par.detect-sweep.tasks_submitted = %d, want > 1", workers, tasks)
		}
		if s := snap.Stable.Gauges["conflict.sweep_slices"]; s <= 1 {
			t.Errorf("workers=%d: conflict.sweep_slices = %d, want > 1", workers, s)
		}
		if b := snap.Stable.Gauges["conflict.sweep_scratch_bytes"]; b <= 0 || b > 12*res.Pairs {
			t.Errorf("workers=%d: conflict.sweep_scratch_bytes = %d, want in (0, 12·%d pairs]", workers, b, res.Pairs)
		}
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := DetectOpts(tr, Options{Workers: 1}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 700 {
		t.Errorf("%.0f allocs per detection at Workers=1, want <= 700", allocs)
	}
}

// TestStreamDetectorMatchesMaterialized feeds one trace through the
// streaming detector in ragged batch partitionings and requires the exact
// Result the materialized path produces, at several worker counts — the
// streaming path rides the same sliced sweep through finishShards.
func TestStreamDetectorMatchesMaterialized(t *testing.T) {
	tr := synthTrace(3, 700, 1<<10, 11)
	base, err := DetectOpts(tr, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := resultFingerprint(t, base)
	for _, workers := range []int{1, 2, 7} {
		sd := NewStreamDetector(len(tr.Ranks))
		for rank, recs := range tr.Ranks {
			for lo := 0; lo < len(recs); {
				hi := lo + 1 + lo%97
				if hi > len(recs) {
					hi = len(recs)
				}
				sd.Feed(rank, recs[lo:hi])
				lo = hi
			}
		}
		res, err := sd.Finish(Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		if fp := resultFingerprint(t, res); !bytes.Equal(fp, want) {
			t.Errorf("workers=%d: streamed Result differs from materialized", workers)
		}
	}
}
