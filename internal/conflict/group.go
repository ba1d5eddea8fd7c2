package conflict

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"sync/atomic"

	"verifyio/internal/obs"
	"verifyio/internal/par"
)

// Group is a conflict group (X, ζ) in a flat CSR-style layout: X and the
// operations conflicting with it that come after it in Result.Ops. A
// conflicting pair is unordered (Def. 7 asks for no properly-synchronized
// order in either direction), so it is stored once, in the group of its lower
// op index. The partners' indices form one ascending []int32 view into a
// Result-wide arena, with per-rank runs delimited by offset views into a
// second arena. Because Result.Ops is ordered by (rank, seq), ascending op
// index is program order, each rank's conflicting operations form one
// contiguous run, and every run lies on a rank above X's: ranks ascending,
// and an op of the last rank heads no group.
type Group struct {
	// X indexes Result.Ops.
	X int
	// ys are the conflicting op indices above X, ascending.
	ys []int32
	// runs holds NumRuns()+1 offsets into ys: run k is
	// ys[runs[k]:runs[k+1]], a maximal same-rank span.
	runs []int32
}

// Ys returns the indices (into Result.Ops) of the operations after X that
// conflict with it, ascending — which is (rank, seq) program order. The slice
// is a view; callers must not modify it.
func (g *Group) Ys() []int32 { return g.ys }

// NumRuns returns the number of per-rank runs in the group.
func (g *Group) NumRuns() int {
	if len(g.runs) == 0 {
		return 0
	}
	return len(g.runs) - 1
}

// RunAt returns the k-th run: the indices of the conflicting operations on
// one rank, in program order. Runs are ordered by ascending rank. The slice
// is a view; callers must not modify it.
func (g *Group) RunAt(k int) []int32 {
	return g.ys[g.runs[k]:g.runs[k+1]]
}

// Intra-file sharding parameters. Slice boundaries are a function of the op
// count alone — never of the worker count — so the task list, the spans it
// emits, and every byte of the merged output are determined by the trace.
const (
	// sliceTargetOps is the aimed-for number of sorted intervals per
	// intra-file sweep slice.
	sliceTargetOps = 1024
	// maxFileSlices caps how many slices one file is cut into.
	maxFileSlices = 128
)

// numSlices is the slice plan for a file with m data operations.
func numSlices(m int) int {
	if m == 0 {
		return 0
	}
	s := (m + sliceTargetOps - 1) / sliceTargetOps
	if s > maxFileSlices {
		s = maxFileSlices
	}
	return s
}

// sweepSlice is one intra-file sweep task: positions [lo, hi) of its file's
// start-sorted interval list, plus the carry-in positions from the left
// whose intervals straddle the slice's boundary. A pair is owned by the
// slice of its later sorted position — the one holding max(I.Start,
// J.Start) — so the task list partitions the pair set exactly: no pair is
// emitted twice, none is missed.
type sweepSlice struct {
	fid    int32
	sub    int32   // slice ordinal within the file
	lo, hi int32   // file-local sorted positions
	carry  []int32 // file-local positions < lo with End > start of position lo
}

func (t *sweepSlice) lane() string {
	return fmt.Sprintf("detect/sweep-%d.%d", t.fid, t.sub)
}

// interval is one data operation as the sweep reads it, packed into 24
// bytes: its byte range, its index into Result.Ops, and rank<<1 | write.
type interval struct {
	start, end int64
	idx        int32
	rw         int32
}

// conflicts reports whether two overlapping intervals conflict: at least one
// writes, and they lie on different ranks.
func conflicts(a, b *interval) bool {
	return (a.rw|b.rw)&1 != 0 && (a.rw^b.rw)>>1 != 0
}

// sweepIndex is what the merge hands the sweep: every data operation as a
// packed interval, file by file, each file's window tiled by its offset
// buckets in offset order.
type sweepIndex struct {
	iv      []interval
	fileOff []int32 // file f's window is iv[fileOff[f]:fileOff[f+1]]
	// Bucket g is iv[off[g]:off[g+1]]; off is the sweep's offset table,
	// lent to the partition until the pair count needs it.
	off     []int64
	buckets int
	// deg is the sweep's degree table; its first entries hold the merge's
	// (rank, bucket) slot cursors until the sweep clears them.
	deg     []int32
	entries int
}

// insertionMax is the largest bucket, or radix digit run, sorted by
// insertion.
const insertionMax = 32

// sortFile puts file f's window in (Start, index) order, one task per
// bucket of the file. Its buckets are those starting inside its window (an
// empty one at a border may be counted to either neighbour; it needs no
// sorting).
func (ix *sweepIndex) sortFile(f, workers int) {
	lo, hi := int64(ix.fileOff[f]), int64(ix.fileOff[f+1])
	g0 := sort.Search(ix.buckets, func(g int) bool { return ix.off[g] >= lo })
	g1 := sort.Search(ix.buckets, func(g int) bool { return ix.off[g] >= hi })
	par.Do(workers, g1-g0, func(k int) {
		g := g0 + k
		sortBucket(ix.iv[ix.off[g]:ix.off[g+1]])
	})
}

// sortBucket orders one bucket by (Start, index). The merge scatters ranks in
// rank order and each rank's ops in index order, so a bucket arrives
// ascending by index: a stable insertion on Start alone orders a small one.
// A larger one takes an in-place radix sort on Start − its least Start.
func sortBucket(b []interval) {
	if len(b) <= insertionMax {
		for i := 1; i < len(b); i++ {
			for j := i; j > 0 && b[j].start < b[j-1].start; j-- {
				b[j], b[j-1] = b[j-1], b[j]
			}
		}
		return
	}
	lo, hi := b[0].start, b[0].start
	for i := range b {
		lo, hi = min(lo, b[i].start), max(hi, b[i].start)
	}
	radixSort(b, uint64(lo), bits.Len64(uint64(hi)-uint64(lo)))
}

// radixSort orders b, whose keys Start − base (unsigned) lie below 2^width,
// by (Start, index): one in-place MSD pass over the top 8 key bits (an
// American flag sort: count the digits, then swap each element into its
// digit's run), then each run on its own. The swaps do not keep arrival
// order, so ties are broken by index explicitly: a small run is finished by
// insertion on the whole key, a run of equal starts by a sort on the index.
func radixSort(b []interval, base uint64, width int) {
	switch {
	case len(b) <= insertionMax:
		for i := 1; i < len(b); i++ {
			for j := i; j > 0 && less(&b[j], &b[j-1]); j-- {
				b[j], b[j-1] = b[j-1], b[j]
			}
		}
		return
	case width == 0:
		slices.SortFunc(b, func(x, y interval) int { return cmp.Compare(x.idx, y.idx) })
		return
	}
	shift := max(width-8, 0)
	digit := func(x *interval) int { return int(uint8((uint64(x.start) - base) >> shift)) }
	var next, end [256]int32
	for i := range b {
		end[digit(&b[i])]++
	}
	at := int32(0)
	for d := range end {
		next[d], at = at, at+end[d]
		end[d] = at
	}
	for d := range next {
		for i := next[d]; i < end[d]; i = next[d] {
			if e := digit(&b[i]); e == d {
				next[d]++
			} else {
				b[i], b[next[e]] = b[next[e]], b[i]
				next[e]++
			}
		}
	}
	from := int32(0)
	for d := range end {
		radixSort(b[from:end[d]], base+uint64(d)<<shift, shift)
		from = end[d]
	}
}

// less orders intervals by (Start, index).
func less(x, y *interval) bool {
	return x.start < y.start || x.start == y.start && x.idx < y.idx
}

// sliceFile fills out (one entry per slice) with the file's fixed slice
// plan and computes each slice's carry-in set. w is the file's window,
// already sorted by (Start, index).
func sliceFile(w []interval, fid int, out []sweepSlice) {
	m, S := len(w), len(out)
	for s := 0; s < S; s++ {
		out[s] = sweepSlice{
			fid: int32(fid), sub: int32(s),
			lo: int32(s * m / S), hi: int32((s + 1) * m / S),
		}
	}
	if S == 1 {
		return
	}
	// bStart[s] is the start offset at slice s's left boundary; it ascends
	// with s because w is start-sorted.
	bStart := make([]int64, S)
	for s := 0; s < S; s++ {
		bStart[s] = w[out[s].lo].start
	}
	// Interval i straddles into every later slice whose boundary start it
	// covers: exactly the slices t > sliceOf(i) with End_i > bStart[t].
	// Ascending boundary starts make those a contiguous run (sliceOf(i), t]
	// found by binary search. The carry lists are built as views into one
	// exactly-sized arena — a diff-array counting pass sizes them — and
	// filling in ascending i keeps each list in the order the serial scan
	// would visit it.
	straddle := func(visit func(i, first, last int)) {
		s := 0
		for i := 0; i < m; i++ {
			for s+1 < S && i >= int(out[s+1].lo) {
				s++
			}
			end := w[i].end
			if s+1 >= S || end <= bStart[s+1] {
				continue
			}
			k := sort.Search(S-s-2, func(q int) bool { return bStart[s+2+q] >= end })
			visit(i, s+1, s+1+k)
		}
	}
	diff := make([]int64, S+1)
	straddle(func(i, first, last int) {
		diff[first]++
		diff[last+1]--
	})
	carryOff := make([]int64, S+1)
	run := int64(0)
	for q := 0; q < S; q++ {
		run += diff[q]
		carryOff[q+1] = carryOff[q] + run
		diff[q] = carryOff[q] // reuse as the fill cursor
	}
	arena := make([]int32, carryOff[S])
	straddle(func(i, first, last int) {
		for q := first; q <= last; q++ {
			arena[diff[q]] = int32(i)
			diff[q]++
		}
	})
	for q := 0; q < S; q++ {
		out[q].carry = arena[carryOff[q]:carryOff[q+1]:carryOff[q+1]]
	}
}

// count sweeps the slice's share of the pairs, bumping the degree of each
// pair's lower op index — the group the pair will live in. Degrees are
// order-free sums, so the atomic adds from concurrently swept slices cannot
// perturb the result.
func (t *sweepSlice) count(w []interval, deg []int32) {
	lo, hi := int(t.lo), int(t.hi)
	for _, ci := range t.carry {
		I := &w[ci]
		for j := lo; j < hi; j++ {
			J := &w[j]
			if J.start >= I.end {
				break // sorted by start: no later interval overlaps I either
			}
			if conflicts(I, J) {
				atomic.AddInt32(&deg[min(I.idx, J.idx)], 1)
			}
		}
	}
	for i := lo; i < hi; i++ {
		I := &w[i]
		for j := i + 1; j < hi; j++ {
			J := &w[j]
			if J.start >= I.end {
				break
			}
			if conflicts(I, J) {
				atomic.AddInt32(&deg[min(I.idx, J.idx)], 1)
			}
		}
	}
}

// fill re-runs the slice's sweep, writing each pair's higher op index into
// the bucket of its lower one: bucket x is ys[off[x]:off[x+1]], and the
// degrees count back down to zero as the cursors. The intra-bucket order is
// scheduling-dependent; detectPairs sorts every bucket afterwards.
func (t *sweepSlice) fill(w []interval, off []int64, deg, ys []int32) {
	lo, hi := int(t.lo), int(t.hi)
	put := func(a, b int32) {
		x, y := min(a, b), max(a, b)
		ys[off[x]+int64(atomic.AddInt32(&deg[x], -1))] = y
	}
	for _, ci := range t.carry {
		I := &w[ci]
		for j := lo; j < hi; j++ {
			J := &w[j]
			if J.start >= I.end {
				break
			}
			if conflicts(I, J) {
				put(I.idx, J.idx)
			}
		}
	}
	for i := lo; i < hi; i++ {
		I := &w[i]
		for j := i + 1; j < hi; j++ {
			J := &w[j]
			if J.start >= I.end {
				break
			}
			if conflicts(I, J) {
				put(I.idx, J.idx)
			}
		}
	}
}

// rangeBounds splits the op index space [0, n) into K contiguous ranges
// balanced by entry count, by binary search on the offset table.
func rangeBounds(off []int64, n, K int) []int {
	total := off[n]
	bounds := make([]int, K+1)
	bounds[K] = n
	for k := 1; k < K; k++ {
		target := total * int64(k) / int64(K)
		bounds[k] = sort.Search(n, func(v int) bool { return off[v] >= target })
	}
	return bounds
}

// detectPairs runs the sort-and-sweep over per-file interval lists (the
// paper's conflict_detection pseudocode) and builds the conflict groups
// without ever materializing a pair list.
//
// Parallel structure: the merge has already partitioned every file's packed
// intervals into offset buckets, so the per-file start-offset sort is one
// task per bucket (sortFile) and runs on every core even when every rank
// targets one shared file — the canonical N-ranks-to-one-file HPC pattern.
// Each file's sorted window is then cut into contiguous slices sized by op
// count (sliceFile), so the sweep scales within a file too. The sweep runs
// twice over the (file, slice) tasks: a counting pass accumulates per op the
// number of later ops it conflicts with, a prefix sum turns those degrees
// into bucket offsets into the Result-wide ys arena, and a fill pass writes
// each pair once, as its higher index in the bucket of its lower one. Each
// bucket is then sorted in place, which lands every group's ys ascending —
// the CSR layout — whatever order the slices filled it in, and the per-rank
// runs fall out of one rank-monotone walk. Groups emerge already sorted by X.
// Every output byte is a function of the trace alone: the Result is identical
// at every worker count.
func detectPairs(res *Result, ix *sweepIndex, workers int, oc obs.Ctx) {
	sc, sweepSpan := oc.Start("sweep", obs.Int("files", len(res.Files)))
	defer sweepSpan.End()

	ops := res.Ops
	n := len(ops)
	nfiles := len(res.Files)
	if n == 0 || nfiles == 0 {
		return
	}
	iv, fileOff := ix.iv, ix.fileOff

	taskOff := make([]int32, nfiles+1)
	for f := 0; f < nfiles; f++ {
		taskOff[f+1] = taskOff[f] + int32(numSlices(int(fileOff[f+1]-fileOff[f])))
	}
	tasks := make([]sweepSlice, taskOff[nfiles])

	// One task per file, whose bucket sorts fan out again: a file of many
	// buckets — one shared file — sorts on every core.
	_, sortSpan := sc.Start("sweep-sort", obs.Int("tasks", len(tasks)))
	par.Do(workers, nfiles, func(f int) {
		if lo, hi := fileOff[f], fileOff[f+1]; lo < hi {
			ix.sortFile(f, workers)
			sliceFile(iv[lo:hi], f, tasks[taskOff[f]:taskOff[f+1]])
		}
	})
	sortSpan.End()

	var carryOps int64
	for i := range tasks {
		carryOps += int64(len(tasks[i].carry))
	}

	deg := ix.deg
	clear(deg[:ix.entries])
	countCtx, countSpan := sc.Start("sweep-count", obs.Int("slices", len(tasks)))
	par.Do(workers, len(tasks), func(ti int) {
		t := &tasks[ti]
		w := iv[fileOff[t.fid]:fileOff[t.fid+1]]
		// Single-op files cannot conflict; skip their spans so traces on
		// wide file sets stay readable. The Enabled guard keeps the lane
		// name and attrs from being built on uninstrumented runs.
		if len(w) > 1 && countCtx.Enabled() {
			_, sp := countCtx.StartLane(t.lane(), "sweep-slice",
				obs.Int("fid", int(t.fid)), obs.Int("ops", int(t.hi-t.lo)),
				obs.Int("carry", len(t.carry)))
			defer sp.End()
		}
		t.count(w, deg)
	})
	countSpan.End()

	off := ix.off[:n+1]
	for i := 0; i < n; i++ {
		off[i+1] = off[i] + int64(deg[i])
	}
	res.Pairs = off[n]

	// The transient footprint of the sweep, O(n) tables whatever the pair
	// count: packed intervals + slice plan + degree / offset / rank tables.
	// The partition's (rank, bucket) counts lived in deg and its bucket
	// bounds in off, and the bucket sorts work in place, so they add nothing.
	// The output arenas (ys — filled in place — runs, groups) are retained
	// and excluded. A tier-1 test gates this against the op count.
	res.slices, res.carryOps = len(tasks), carryOps
	res.ScratchBytes = 24*int64(n) /* iv */ + 4*int64(2*nfiles+2) /* fileOff, taskOff */ +
		40*int64(len(tasks)) /* tasks */ +
		4*carryOps + 4*int64(n) /* deg */ + 8*int64(n+2) /* off */
	if res.Pairs == 0 {
		return
	}
	res.ScratchBytes += 4 * int64(n) /* rankOf */

	ys := make([]int32, res.Pairs)
	fillCtx, fillSpan := sc.Start("sweep-fill", obs.Int("entries", len(ys)))
	par.Do(workers, len(tasks), func(ti int) {
		t := &tasks[ti]
		w := iv[fileOff[t.fid]:fileOff[t.fid+1]]
		if len(w) > 1 && fillCtx.Enabled() {
			_, sp := fillCtx.StartLane(t.lane(), "fill-slice", obs.Int("fid", int(t.fid)))
			defer sp.End()
		}
		t.fill(w, off, deg, ys)
	})
	fillSpan.End()

	// Sort the buckets and build groups and per-rank runs over K op ranges
	// balanced by entry count: a pass that sorts each bucket and sizes the
	// runs arena exactly, a prefix sum that places each range, and a fill
	// that writes group-relative run offsets in one rank-monotone walk per
	// group. Ops with nonzero degree ascend, so the group list is born
	// sorted by X.
	K := workers
	bounds := rangeBounds(off, n, K)
	rankOf := make([]int32, n)
	for i := range ops {
		rankOf[i] = int32(ops[i].Ref.Rank)
	}
	ngr := make([]int64, K+1)
	nrn := make([]int64, K+1)
	_, compactSpan := sc.Start("sweep-compact", obs.Int("ranges", K))
	par.Do(workers, K, func(k int) {
		var g, rn int64
		for v := bounds[k]; v < bounds[k+1]; v++ {
			bucket := ys[off[v]:off[v+1]]
			if len(bucket) == 0 {
				continue
			}
			slices.Sort(bucket)
			g++
			runs := int64(1)
			prev := rankOf[bucket[0]]
			for _, y := range bucket[1:] {
				if r := rankOf[y]; r != prev {
					runs++
					prev = r
				}
			}
			rn += runs + 1
		}
		ngr[k+1], nrn[k+1] = g, rn
	})
	compactSpan.End()
	for k := 0; k < K; k++ {
		ngr[k+1] += ngr[k]
		nrn[k+1] += nrn[k]
	}
	groups := make([]Group, ngr[K])
	runsArena := make([]int32, nrn[K])
	_, groupsSpan := sc.Start("sweep-groups")
	par.Do(workers, K, func(k int) {
		gi, rp := ngr[k], nrn[k]
		for v := bounds[k]; v < bounds[k+1]; v++ {
			lo, hi := off[v], off[v+1]
			if lo == hi {
				continue
			}
			rlo := rp
			prev := int32(-1)
			for p := lo; p < hi; p++ {
				if r := rankOf[ys[p]]; r != prev {
					runsArena[rp] = int32(p - lo) // run offsets are group-relative
					rp++
					prev = r
				}
			}
			runsArena[rp] = int32(hi - lo)
			rp++
			groups[gi] = Group{X: v, ys: ys[lo:hi:hi], runs: runsArena[rlo:rp:rp]}
			gi++
		}
	})
	groupsSpan.End()
	res.Groups = groups
}
