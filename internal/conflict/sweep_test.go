package conflict

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"verifyio/internal/obs"
	"verifyio/internal/trace"
)

// resultFingerprint serializes every byte of a Result — ops and their
// signatures, files, syncs, the pair count, and the full CSR group content —
// so equality of fingerprints is equality of Results.
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
		w(int64(op.Ref.Rank), int64(op.Ref.Seq), int64(op.FID), wr, op.Start, op.End, int64(res.OpSig[i]))
	}
	for _, sg := range res.Sigs {
		fmt.Fprintf(&buf, "%q %d %q %q\x00", sg.Func, sg.Layer, sg.Site, sg.Chain)
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
// count (9.9 at 1, 10.4 at 4, over 12 past 15) and a host-sized run would
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

// feedDetect runs tr through a Detector, each rank fed in batches whose end
// the caller picks from the rank and the batch's start: the ranks in the
// given order (nil: ascending) on this goroutine, or, with concurrent set,
// every rank from a goroutine of its own.
func feedDetect(tr *trace.Trace, workers int, order []int, concurrent bool, batchEnd func(rank, lo int) int) (*Result, error) {
	d := NewDetector(len(tr.Ranks))
	feed := func(rank int) {
		recs := tr.Ranks[rank]
		for lo := 0; lo < len(recs); {
			hi := min(batchEnd(rank, lo), len(recs))
			d.Feed(rank, recs[lo:hi])
			lo = hi
		}
	}
	if order == nil {
		for rank := range tr.Ranks {
			order = append(order, rank)
		}
	}
	var wg sync.WaitGroup
	for _, rank := range order {
		if !concurrent {
			feed(rank)
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			feed(rank)
		}()
	}
	wg.Wait()
	return d.Finish(Options{Workers: workers})
}

// TestStreamDetectorMatchesMaterialized is the Detector's feeding contract:
// one trace fed in ragged batch partitionings, with the ranks ascending,
// descending, shuffled, and each from its own goroutine (under -race a Feed
// that shared state between ranks fails here), gives at several worker
// counts the exact Result of feeding every rank whole.
func TestStreamDetectorMatchesMaterialized(t *testing.T) {
	// The second trace puts its ranks' op counts on either side of a storage
	// block boundary (and one rank at none), with two signatures alternating
	// so a misplaced OpSig shows.
	straddle := trace.New(4)
	for rank, nops := range []int{opBlockLen - 1, opBlockLen, opBlockLen + 1, 0} {
		straddle.Append(trace.Record{Rank: rank, Func: "open", Layer: trace.LayerPOSIX,
			Args: []string{"f", "rw|creat", "3"}, Tick: 1, Ret: 2})
		for i := 0; i < nops; i++ {
			fn := []string{"pwrite", "pread"}[i%2]
			straddle.Append(trace.Record{Rank: rank, Func: fn, Layer: trace.LayerPOSIX,
				Args: []string{"3", "16", fmt.Sprint(i * 8 % 1024)},
				Tick: int64(2*i + 3), Ret: int64(2*i + 4)})
		}
	}
	for name, tr := range map[string]*trace.Trace{
		"random":         synthTrace(3, 700, 1<<10, 11),
		"block-straddle": straddle,
	} {
		base, err := DetectOpts(tr, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if base.Pairs == 0 {
			t.Fatalf("%s: no conflicts", name)
		}
		want := resultFingerprint(t, base)
		ragged := func(rank, lo int) int { return lo + 1 + (lo+rank)%97 }
		descending := rand.New(rand.NewSource(5)).Perm(len(tr.Ranks))
		slices.SortFunc(descending, func(a, b int) int { return b - a })
		for _, workers := range []int{1, 2, 7} {
			for how, feed := range map[string]func() (*Result, error){
				"ascending":  func() (*Result, error) { return feedDetect(tr, workers, nil, false, ragged) },
				"descending": func() (*Result, error) { return feedDetect(tr, workers, descending, false, ragged) },
				"shuffled": func() (*Result, error) {
					return feedDetect(tr, workers, rand.New(rand.NewSource(5)).Perm(len(tr.Ranks)), false, ragged)
				},
				"concurrent": func() (*Result, error) { return feedDetect(tr, workers, nil, true, ragged) },
			} {
				res, err := feed()
				if err != nil {
					t.Fatalf("%s workers %d: %v", name, workers, err)
				}
				if fp := resultFingerprint(t, res); !bytes.Equal(fp, want) {
					t.Errorf("%s workers=%d, ranks fed %s: Result differs from feeding each rank whole", name, workers, how)
				}
			}
		}
	}
}

// TestSortByStartMatchesReference holds the radix sort to a comparison sort
// on (Start, op index) that lives here: files of every awkward size and
// distribution, several sharing one index and scratch arena the way
// detectPairs lays them out. Ties are everywhere, so a pass that is not
// stable fails.
func TestSortByStartMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	gen := func(n int, start func(i int) int64) []int64 {
		f := make([]int64, n)
		for i := range f {
			f[i] = start(i)
		}
		return f
	}
	narrow := func(int) int64 { return rng.Int63n(1 << 12) }
	anywhere := func(int) int64 { return int64(rng.Uint64()) }
	extremes := []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64}
	cases := map[string][][]int64{
		"all-equal":  {gen(1000, func(int) int64 { return 42 })},
		"ascending":  {gen(1000, func(i int) int64 { return int64(3 * i) })},
		"descending": {gen(1000, func(i int) int64 { return int64(-3 * i) })},
		"extremes":   {gen(5000, func(int) int64 { return extremes[rng.Intn(len(extremes))] })},
		"any-int64":  {gen(5000, anywhere)},
		"min-max":    {{math.MaxInt64, math.MinInt64, math.MaxInt64, math.MinInt64}},
		// One pass for the first file, eight for the second, none for the
		// third, out of one arena.
		"mixed-spans": {gen(3000, func(int) int64 { return rng.Int63n(16) }), gen(700, anywhere), {5}},
	}
	for _, n := range []int{0, 1, 2, 255, 256, 257, 100000} {
		cases[fmt.Sprintf("n=%d", n)] = [][]int64{gen(n, narrow), gen(n, anywhere)}
	}
	for name, files := range cases {
		// Interleave the files' ops so every index window ascends with gaps.
		var ops []Op
		for i, more := 0, true; more; i++ {
			more = false
			for f, starts := range files {
				if i < len(starts) {
					ops = append(ops, Op{FID: f, Start: starts[i]})
					more = true
				}
			}
		}
		idx := make([][]int32, len(files))
		for i := range ops {
			idx[ops[i].FID] = append(idx[ops[i].FID], int32(i))
		}
		n := len(ops)
		arena, idx1, k0, k1 := make([]int32, 0, n), make([]int32, n), make([]uint64, n), make([]uint64, n)
		for f := range files {
			lo := len(arena)
			arena = append(arena, idx[f]...)
			hi := len(arena)
			w := arena[lo:hi]
			sortByStart(ops, w, idx1[lo:hi], k0[lo:hi], k1[lo:hi])
			want := slices.Clone(idx[f])
			slices.SortFunc(want, func(a, b int32) int {
				if c := cmp.Compare(ops[a].Start, ops[b].Start); c != 0 {
					return c
				}
				return cmp.Compare(a, b)
			})
			if !slices.Equal(w, want) {
				t.Errorf("%s: file %d (%d ops) is not in (Start, index) order", name, f, len(w))
			}
		}
	}
}

// TestDetectOpStorageNotDoubled bounds the bytes a detection allocates, by
// what it has to hold: each op once where the replay writes it and once in
// the Result, the sweep's published scratch, and the retained group arenas.
// A replay that grows its op slices by doubling allocates about twice that.
// Ops are stored the same way however a rank is batched, so feeding in
// batches must allocate like feeding each rank whole.
func TestDetectOpStorageNotDoubled(t *testing.T) {
	tr := synthTrace(8, 32768, 32<<20, 1)
	reg := obs.NewRegistry()
	res, err := DetectOpts(tr, Options{Workers: 1, Obs: obs.Ctx{R: reg}})
	if err != nil {
		t.Fatal(err)
	}
	size := func(v any) int64 { return int64(reflect.TypeOf(v).Size()) }
	opBytes := int64(len(res.Ops)) * (size(Op{}) + 4)
	retained := int64(len(res.Groups)) * size(Group{})
	for i := range res.Groups {
		retained += 4 * int64(len(res.Groups[i].ys)+len(res.Groups[i].runs))
	}
	budget := opBytes*5/2 + reg.Snapshot().Stable.Gauges["conflict.sweep_scratch_bytes"] + retained + 2<<20

	allocated := func(detect func() (*Result, error)) int64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := detect(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return int64(after.TotalAlloc - before.TotalAlloc)
	}
	mat := allocated(func() (*Result, error) { return DetectOpts(tr, Options{Workers: 1}) })
	str := allocated(func() (*Result, error) {
		return feedDetect(tr, 1, nil, false, func(_, lo int) int { return lo + 4096 })
	})
	t.Logf("ops+sigs %d B, budget %d B, DetectOpts %d B, batched %d B", opBytes, budget, mat, str)
	if mat > budget || str > budget {
		t.Errorf("allocated %d B (DetectOpts) and %d B (batched), want <= %d", mat, str, budget)
	}
	if d := mat - str; d > mat/20 || -d > mat/20 {
		t.Errorf("whole ranks allocate %d B and batches %d B, more than 5%% apart", mat, str)
	}
}
