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
	"time"

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

// bruteCheck holds the sweep's CSR output to the O(n²) definition —
// independent of sorting, slicing and bucket order — as the each-pair-once
// contract states it: every conflicting pair (i < j) appears exactly once, as
// j among group i's Ys() and never as i among group j's; the groups ascend by
// X and are exactly the ops with a later partner; every y exceeds its X;
// Σ len(Ys) is Result.Pairs; and a group's runs tile its Ys with one rank
// each, ranks ascending above X's.
func bruteCheck(t *testing.T, res *Result) {
	t.Helper()
	n := len(res.Ops)
	later := make([][]int32, n) // later[i]: the j > i conflicting with i, ascending
	var pairs int64
	for i := 0; i < n; i++ {
		I := &res.Ops[i]
		for j := i + 1; j < n; j++ {
			J := &res.Ops[j]
			if I.FID != J.FID || I.Ref.Rank == J.Ref.Rank || (!I.Write && !J.Write) {
				continue
			}
			if I.Start < J.End && J.Start < I.End {
				later[i] = append(later[i], int32(j))
				pairs++
			}
		}
	}
	if res.Pairs != pairs {
		t.Errorf("pairs = %d, brute force = %d", res.Pairs, pairs)
	}
	var stored int64
	gi := 0
	for x := 0; x < n; x++ {
		if len(later[x]) == 0 {
			continue // heads no group: a stray one fails the X match below or the final count
		}
		if gi >= len(res.Groups) || res.Groups[gi].X != x {
			t.Fatalf("group %d of %d is not op %d's, which conflicts with later ops %v", gi, len(res.Groups), x, later[x])
		}
		g := &res.Groups[gi]
		gi++
		ys := g.Ys()
		stored += int64(len(ys))
		// Equal to the ascending reference list: each later partner once,
		// nothing else — in particular no y at or below X.
		if !slices.Equal(ys, later[x]) {
			t.Fatalf("group X=%d: ys=%v; brute force %v", x, ys, later[x])
		}
		at, rank := 0, res.Ops[x].Ref.Rank
		for k := 0; k < g.NumRuns(); k++ {
			run := g.RunAt(k)
			if len(run) == 0 || &run[0] != &ys[at] {
				t.Fatalf("group X=%d: run %d does not continue Ys at %d", x, k, at)
			}
			at += len(run)
			r := res.Ops[run[0]].Ref.Rank
			if r <= rank {
				t.Fatalf("group X=%d: run %d on rank %d follows rank %d", x, k, r, rank)
			}
			rank = r
			for _, y := range run {
				if res.Ops[y].Ref.Rank != rank {
					t.Fatalf("group X=%d: run %d mixes ranks %d and %d", x, k, rank, res.Ops[y].Ref.Rank)
				}
			}
		}
		if at != len(ys) {
			t.Fatalf("group X=%d: runs cover %d of %d ys", x, at, len(ys))
		}
	}
	if gi != len(res.Groups) {
		t.Errorf("sweep produced %d groups, brute force %d", len(res.Groups), gi)
	}
	if stored != res.Pairs {
		t.Errorf("groups hold %d ys, Pairs = %d", stored, res.Pairs)
	}
}

// sweepShapes are the adversarial interval distributions the
// each-pair-once property test covers. Every shape but the last is big
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

// TestPropertySweepEachPairOnce checks the sliced, pair-free sweep against
// the brute-force definition — full group content, not just pair counts —
// and requires byte-identical Results across worker counts on every shape.
func TestPropertySweepEachPairOnce(t *testing.T) {
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
// memory contract on a dense single-shared-file trace (443 739 pairs on
// 16 384 ops): more than one sweep task and slice, no per-pair or per-group
// allocation, and transient scratch that is O(n) tables only — the pairs are
// written straight into the retained ys arena, so Result.ScratchBytes (the
// ledger's detect bytes) does not grow with the pair count and is the same at
// every worker count. What the sweep
// holds is 40 bytes per op (index, sort ping-pong, degree, offset and rank
// tables), 4 per carried position and 40 per slice; the gate is that sum
// plus a fixed allowance for the per-file tables.
func TestSweepShardsWithinSingleFile(t *testing.T) {
	tr := synthTrace(8, 2048, 1<<13, 99)
	var scratch int64
	for _, workers := range []int{1, 4} {
		res, err := DetectOpts(tr, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if res.Pairs < 20*int64(len(res.Ops)) {
			t.Fatalf("%d pairs on %d ops: not a dense trace", res.Pairs, len(res.Ops))
		}
		// One sweep task per slice: more than one slice is more than one task.
		slicesN := int64(res.slices)
		if slicesN <= 1 {
			t.Errorf("workers=%d: %d sweep slices, want > 1", workers, slicesN)
		}
		limit := 40*int64(len(res.Ops)) + 4*res.carryOps + 40*slicesN + 64
		b := res.ScratchBytes
		if b <= 0 || b > limit {
			t.Errorf("workers=%d: sweep scratch = %d B, want in (0, %d]", workers, b, limit)
		}
		if workers == 1 {
			scratch = b
			t.Logf("%d ops, %d pairs, %d slices: scratch %d B, limit %d B", len(res.Ops), res.Pairs, slicesN, b, limit)
		} else if b != scratch {
			t.Errorf("sweep scratch = %d B at workers=%d, %d B at workers=1", b, workers, scratch)
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

// TestHotOpBucketSortedAtEveryWorkerCount puts two hot ops in one file — the
// first op of the trace and the last, each a write over 51 000 one-byte reads
// on the three ranks between them. The first op's bucket takes one entry from
// every sweep slice (it is carried into all of them), so concurrent fills
// leave it in an order no two runs share, and every reader's bucket holds the
// last op alone. The expected groups follow from the construction, no O(n²)
// pass; the Result must be byte-identical at workers 1, 2 and 7, and each
// detection must finish within 5 s — orders of magnitude above the in-place
// sort's cost, a guard against a bucket pass that is not O(d log d).
func TestHotOpBucketSortedAtEveryWorkerCount(t *testing.T) {
	const readers, perRank = 3, 17000
	tr := trace.New(readers + 2)
	emit := func(rank int, fn string, args ...string) {
		tick := int64(2 * len(tr.Ranks[rank]))
		tr.Append(trace.Record{Rank: rank, Func: fn, Layer: trace.LayerPOSIX,
			Args: args, Tick: tick, Ret: tick + 1})
	}
	for rank := 0; rank < readers+2; rank++ {
		emit(rank, "open", "f", "rw|creat", "3")
	}
	emit(0, "pwrite", "3", fmt.Sprint(readers*perRank), "0")
	for rank := 1; rank <= readers; rank++ {
		for i := 0; i < perRank; i++ {
			// Descending offsets: start order is the reverse of op order.
			emit(rank, "pread", "3", "1", fmt.Sprint(rank*perRank-1-i))
		}
	}
	emit(readers+1, "pwrite", "3", fmt.Sprint(readers*perRank), "0")

	var base []byte
	for _, workers := range []int{1, 2, 7} {
		start := time.Now()
		res, err := DetectOpts(tr, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d > 5*time.Second {
			t.Errorf("workers=%d: detection took %v, want <= 5s", workers, d)
		}
		if workers > 1 {
			if !bytes.Equal(resultFingerprint(t, res), base) {
				t.Errorf("workers=%d Result differs from workers=1", workers)
			}
			continue
		}
		base = resultFingerprint(t, res)
		n := len(res.Ops)
		if n != readers*perRank+2 || res.Pairs != int64(2*readers*perRank+1) || len(res.Groups) != n-1 {
			t.Fatalf("%d ops, %d pairs, %d groups; want %d, %d, %d",
				n, res.Pairs, len(res.Groups), readers*perRank+2, 2*readers*perRank+1, n-1)
		}
		hot := &res.Groups[0]
		if hot.X != 0 || len(hot.Ys()) != n-1 || hot.NumRuns() != readers+1 {
			t.Fatalf("first group: X=%d, %d ys, %d runs; want 0, %d, %d", hot.X, len(hot.Ys()), hot.NumRuns(), n-1, readers+1)
		}
		for i, y := range hot.Ys() {
			if int(y) != i+1 {
				t.Fatalf("first group: ys[%d] = %d, want %d", i, y, i+1)
			}
		}
		for gi := 1; gi < len(res.Groups); gi++ {
			g := &res.Groups[gi]
			if ys := g.Ys(); g.X != gi || len(ys) != 1 || int(ys[0]) != n-1 || g.NumRuns() != 1 {
				t.Fatalf("group %d: X=%d ys=%v, want X=%d ys=[%d]", gi, g.X, ys, gi, n-1)
			}
		}
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
			trace.Steps(recs[lo:hi], func(steps []trace.Step) { d.Feed(rank, steps) })
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

// TestSortByStartMatchesReference holds the merge's offset partition and its
// bucket sorts to a comparison sort on (Start, op index) that lives here:
// files of every awkward size and distribution, their ops spread over ranks,
// through mergeShards and sweepIndex.sortFile at several worker counts.
// Every bucket must arrive in index order, and every file window must list
// its ops in (Start, index) order, each interval carrying its op's range,
// rank and kind. Ties are everywhere, and they span ranks, so a scatter out
// of rank order, or a sort that breaks a tie by anything but the index,
// fails.
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
	// A case is one trace's files (each a list of Starts, in op order) over
	// nranks ranks (0: four); op i of file f goes to rank rankOf(f, i) (nil:
	// i mod nranks).
	type sortCase struct {
		files  [][]int64
		nranks int
		rankOf func(f, i int) int
	}
	plain := func(files ...[]int64) sortCase { return sortCase{files: files} }
	cases := map[string]sortCase{
		"all-equal":  plain(gen(1000, func(int) int64 { return 42 })),
		"ascending":  plain(gen(1000, func(i int) int64 { return int64(3 * i) })),
		"descending": plain(gen(1000, func(i int) int64 { return int64(-3 * i) })),
		"extremes":   plain(gen(5000, func(int) int64 { return extremes[rng.Intn(len(extremes))] })),
		"any-int64":  plain(gen(5000, anywhere)),
		"min-max":    plain([]int64{math.MaxInt64, math.MinInt64, math.MaxInt64, math.MinInt64}),
		// One bucket for the first file, several for the second, one op in
		// the third.
		"mixed-spans": plain(gen(3000, func(int) int64 { return rng.Int63n(16) }), gen(7000, anywhere), []int64{5}),
		// Skewed partitions: one bucket holding a file of many buckets'
		// worth, two clusters with empty buckets between them, spans of the
		// whole int64 range, a file of one rank among eight, a thousand
		// one-op files, ranks without an op.
		"skew/all-starts-equal": plain(gen(9000, func(int) int64 { return 1 << 40 })),
		"skew/clusters-2^60-apart": plain(gen(9000, func(i int) int64 {
			return int64(i%2)<<60 + rng.Int63n(1<<10)
		})),
		"skew/minint-maxint-spans": plain(gen(9000, func(i int) int64 {
			switch i % 3 {
			case 0:
				return math.MinInt64 + rng.Int63n(1<<10)
			case 1:
				return math.MaxInt64 - rng.Int63n(1<<10)
			}
			return anywhere(i)
		})),
		"skew/one-rank-of-eight": {
			files:  [][]int64{gen(6000, narrow), gen(6000, narrow)},
			nranks: 8,
			rankOf: func(f, i int) int { return []int{5, i % 8}[f] },
		},
		"skew/1024-one-op-files": {
			files:  onePerFile(1024, func() int64 { return rng.Int63n(4) }),
			nranks: 8,
			rankOf: func(f, _ int) int { return f % 8 },
		},
		"skew/idle-ranks": {
			files:  [][]int64{gen(5000, narrow), gen(40, narrow)},
			nranks: 8,
			rankOf: func(_, i int) int { return []int{2, 6}[i%2] },
		},
		// Small buckets whose ties span ranks: the insertion sort's order.
		"ties-across-ranks": {
			files:  [][]int64{gen(24, func(int) int64 { return rng.Int63n(3) }), gen(9, func(int) int64 { return 0 })},
			nranks: 8,
		},
	}
	for _, n := range []int{0, 1, 2, 255, 256, 257, 100000} {
		cases[fmt.Sprintf("n=%d", n)] = plain(gen(n, narrow), gen(n, anywhere))
	}
	for name, c := range cases {
		if c.nranks == 0 {
			c.nranks = 4
		}
		if c.rankOf == nil {
			c.rankOf = func(_, i int) int { return i % c.nranks }
		}
		// Interleave the files' ops within each rank; the ranks' op lists,
		// concatenated, are the Result's op order.
		perRank := make([][]Op, c.nranks)
		for i, more := 0, true; more; i++ {
			more = false
			for f, starts := range c.files {
				if i < len(starts) {
					r := c.rankOf(f, i)
					end := starts[i] + 1 + int64(i%5)
					if end < starts[i] {
						end = math.MaxInt64
					}
					perRank[r] = append(perRank[r], Op{
						Ref: trace.Ref{Rank: int32(r), Seq: int32(len(perRank[r]))},
						FID: int32(f), Write: (i+f)%3 == 0, Start: starts[i], End: end,
					})
					more = true
				}
			}
		}
		ops := slices.Concat(perRank...)
		want := make([][]int32, len(c.files))
		for i := range ops {
			want[ops[i].FID] = append(want[ops[i].FID], int32(i))
		}
		for f := range want {
			slices.SortFunc(want[f], func(a, b int32) int {
				if c := cmp.Compare(ops[a].Start, ops[b].Start); c != 0 {
					return c
				}
				return cmp.Compare(a, b)
			})
		}
		for _, workers := range []int{1, 2, 7} {
			shards := make([]*rankShard, c.nranks)
			for r := range shards {
				sh := &rankShard{}
				for f := range c.files {
					sh.files = append(sh.files, localFile{key: localKey{path: fmt.Sprint("f", f)}})
				}
				sig := sh.sigs.intern(&trace.Record{Func: "pwrite"})
				for _, op := range perRank[r] {
					sh.push(op, sig)
				}
				shards[r] = sh
			}
			res, ix, err := mergeShards(shards, workers)
			if err != nil {
				t.Fatal(err)
			}
			for g := 0; g < ix.buckets; g++ {
				b := ix.iv[ix.off[g]:ix.off[g+1]]
				if !slices.IsSortedFunc(b, func(x, y interval) int { return cmp.Compare(x.idx, y.idx) }) {
					t.Fatalf("%s workers=%d: bucket %d of %d does not arrive in index order", name, workers, g, ix.buckets)
				}
			}
			for f := range c.files {
				ix.sortFile(f, workers)
			}
			if !slices.Equal(res.Ops, ops) {
				t.Fatalf("%s workers=%d: merged ops differ from the ranks' ops in rank order", name, workers)
			}
			for f := range c.files {
				w := ix.iv[ix.fileOff[f]:ix.fileOff[f+1]]
				got := make([]int32, len(w))
				for k := range w {
					got[k] = w[k].idx
					op := &ops[w[k].idx]
					rw := int32(op.Ref.Rank) << 1
					if op.Write {
						rw |= 1
					}
					if w[k].start != op.Start || w[k].end != op.End || w[k].rw != rw {
						t.Fatalf("%s workers=%d: file %d position %d is %+v, op %d is %+v", name, workers, f, k, w[k], w[k].idx, *op)
					}
				}
				if !slices.Equal(got, want[f]) {
					t.Errorf("%s workers=%d: file %d (%d ops, %d buckets in the trace) is not in (Start, index) order",
						name, workers, f, len(w), ix.buckets)
				}
			}
		}
	}
}

// onePerFile returns n files of one op each, starting where start says.
func onePerFile(n int, start func() int64) [][]int64 {
	files := make([][]int64, n)
	for f := range files {
		files[f] = []int64{start()}
	}
	return files
}

// TestDetectOpStorageNotDoubled bounds the bytes a detection allocates, by
// what it has to hold: each op once where the replay writes it and once in
// the Result, the sweep's scratch (Result.ScratchBytes), and the retained
// group arenas.
// A replay that grows its op slices by doubling allocates about twice that.
// Ops are stored the same way however a rank is batched, so feeding in
// batches must allocate like feeding each rank whole.
func TestDetectOpStorageNotDoubled(t *testing.T) {
	tr := synthTrace(8, 32768, 32<<20, 1)
	res, err := DetectOpts(tr, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	size := func(v any) int64 { return int64(reflect.TypeOf(v).Size()) }
	opBytes := int64(len(res.Ops)) * (size(Op{}) + 4)
	retained := int64(len(res.Groups)) * size(Group{})
	for i := range res.Groups {
		retained += 4 * int64(len(res.Groups[i].ys)+len(res.Groups[i].runs))
	}
	budget := opBytes*5/2 + res.ScratchBytes + retained + 2<<20

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
