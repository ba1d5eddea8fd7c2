package conflict

import (
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

// sortByStart orders a file's interval index w by (Start, op index) with a
// stable LSD radix sort, 8 bits per pass, over key = Start − min Start of the
// file (exact as an unsigned subtraction for any int64 pair, spans ≥ 2⁶³
// included). w is ascending on entry — the counting partition fills it in op
// order — so stability alone yields the index tie-break, and only the
// bits.Len64(max − min) low key bits are visited. k0, k1 and w1 are scratch
// windows of len(w).
func sortByStart(ops []Op, w, w1 []int32, k0, k1 []uint64) {
	if len(w) < 2 {
		return
	}
	lo, hi := ops[w[0]].Start, ops[w[0]].Start
	for i, oi := range w {
		s := ops[oi].Start
		k0[i] = uint64(s)
		lo, hi = min(lo, s), max(hi, s)
	}
	for i := range k0 {
		k0[i] -= uint64(lo)
	}
	nbits := bits.Len64(uint64(hi) - uint64(lo))
	src, dst := w, w1
	for shift := 0; shift < nbits; shift += 8 {
		var pos [256]int32
		for _, k := range k0 {
			pos[uint8(k>>shift)]++
		}
		at := int32(0)
		for d, c := range pos {
			pos[d], at = at, at+c
		}
		for i, k := range k0 {
			p := pos[uint8(k>>shift)]
			pos[uint8(k>>shift)] = p + 1
			k1[p], dst[p] = k, src[i]
		}
		k0, k1, src, dst = k1, k0, dst, src
	}
	if (nbits+7)/8%2 == 1 {
		copy(w, w1) // an odd number of passes leaves the order in w1
	}
}

// sliceFile fills out (one entry per slice) with the file's fixed slice
// plan and computes each slice's carry-in set. w is the file's interval
// index, already sorted by (Start, index).
func sliceFile(ops []Op, w []int32, fid int, out []sweepSlice) {
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
		bStart[s] = ops[w[out[s].lo]].Start
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
			end := ops[w[i]].End
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
func (t *sweepSlice) count(ops []Op, w []int32, deg []int32) {
	lo, hi := int(t.lo), int(t.hi)
	for _, ci := range t.carry {
		I := &ops[w[ci]]
		for j := lo; j < hi; j++ {
			J := &ops[w[j]]
			if J.Start >= I.End {
				break // sorted by start: no later interval overlaps I either
			}
			if (!I.Write && !J.Write) || I.Ref.Rank == J.Ref.Rank {
				continue
			}
			atomic.AddInt32(&deg[min(w[ci], w[j])], 1)
		}
	}
	for i := lo; i < hi; i++ {
		I := &ops[w[i]]
		for j := i + 1; j < hi; j++ {
			J := &ops[w[j]]
			if J.Start >= I.End {
				break
			}
			if (!I.Write && !J.Write) || I.Ref.Rank == J.Ref.Rank {
				continue
			}
			atomic.AddInt32(&deg[min(w[i], w[j])], 1)
		}
	}
}

// fill re-runs the slice's sweep, writing each pair's higher op index into
// the bucket of its lower one: bucket x is ys[off[x]:off[x+1]], and the
// degrees count back down to zero as the cursors. The intra-bucket order is
// scheduling-dependent; detectPairs sorts every bucket afterwards.
func (t *sweepSlice) fill(ops []Op, w []int32, off []int64, deg, ys []int32) {
	lo, hi := int(t.lo), int(t.hi)
	put := func(a, b int32) {
		x, y := min(a, b), max(a, b)
		ys[off[x]+int64(atomic.AddInt32(&deg[x], -1))] = y
	}
	for _, ci := range t.carry {
		I := &ops[w[ci]]
		for j := lo; j < hi; j++ {
			J := &ops[w[j]]
			if J.Start >= I.End {
				break
			}
			if (!I.Write && !J.Write) || I.Ref.Rank == J.Ref.Rank {
				continue
			}
			put(w[ci], w[j])
		}
	}
	for i := lo; i < hi; i++ {
		I := &ops[w[i]]
		for j := i + 1; j < hi; j++ {
			J := &ops[w[j]]
			if J.Start >= I.End {
				break
			}
			if (!I.Write && !J.Write) || I.Ref.Rank == J.Ref.Rank {
				continue
			}
			put(w[i], w[j])
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
// Parallel structure: after the per-file start-offset sort, each file's
// interval list is partitioned into contiguous slices sized by op count
// (sliceFile), so the sweep scales within a single shared file — the
// canonical N-ranks-to-one-file HPC pattern — not just across files. The
// sweep runs twice over the (file, slice) tasks: a counting pass accumulates
// per op the number of later ops it conflicts with, a prefix sum turns those
// degrees into bucket offsets into the Result-wide ys arena, and a fill pass
// writes each pair once, as its higher index in the bucket of its lower one.
// Each bucket is then sorted in place, which lands every group's ys ascending
// — the CSR layout — whatever order the slices filled it in, and the per-rank
// runs fall out of one rank-monotone walk. Groups emerge already sorted by X.
// Every output byte is a function of the trace alone: the Result is identical
// at every worker count.
func detectPairs(res *Result, workers int, oc obs.Ctx) {
	sc, sweepSpan := oc.Start("sweep", obs.Int("files", len(res.Files)))
	defer sweepSpan.End()

	ops := res.Ops
	n := len(ops)
	nfiles := len(res.Files)
	if n == 0 || nfiles == 0 {
		return
	}

	// Per-file interval index arena, built by counting so the partition
	// costs two passes and three allocations however many files there are;
	// likewise the sort's ping-pong scratch, windowed by fileOff.
	fileOff := make([]int32, nfiles+1)
	for i := range ops {
		fileOff[ops[i].FID+1]++
	}
	for f := 0; f < nfiles; f++ {
		fileOff[f+1] += fileOff[f]
	}
	idx := make([]int32, n)
	next := append([]int32(nil), fileOff[:nfiles]...)
	for i := range ops {
		f := ops[i].FID
		idx[next[f]] = int32(i)
		next[f]++
	}

	taskOff := make([]int32, nfiles+1)
	for f := 0; f < nfiles; f++ {
		taskOff[f+1] = taskOff[f] + int32(numSlices(int(fileOff[f+1]-fileOff[f])))
	}
	tasks := make([]sweepSlice, taskOff[nfiles])
	idx1, keys0, keys1 := make([]int32, n), make([]uint64, n), make([]uint64, n)

	_, sortSpan := sc.Start("sweep-sort", obs.Int("tasks", len(tasks)))
	par.Do(workers, nfiles, func(f int) {
		lo, hi := fileOff[f], fileOff[f+1]
		if lo == hi {
			return
		}
		w := idx[lo:hi]
		sortByStart(ops, w, idx1[lo:hi], keys0[lo:hi], keys1[lo:hi])
		sliceFile(ops, w, f, tasks[taskOff[f]:taskOff[f+1]])
	})
	sortSpan.End()

	var carryOps int64
	for i := range tasks {
		carryOps += int64(len(tasks[i].carry))
	}

	deg := make([]int32, n)
	countCtx, countSpan := sc.Start("sweep-count", obs.Int("slices", len(tasks)))
	par.Do(workers, len(tasks), func(ti int) {
		t := &tasks[ti]
		w := idx[fileOff[t.fid]:fileOff[t.fid+1]]
		// Single-op files cannot conflict; skip their spans so traces on
		// wide file sets stay readable. The Enabled guard keeps the lane
		// name and attrs from being built on uninstrumented runs.
		if len(w) > 1 && countCtx.Enabled() {
			_, sp := countCtx.StartLane(t.lane(), "sweep-slice",
				obs.Int("fid", int(t.fid)), obs.Int("ops", int(t.hi-t.lo)),
				obs.Int("carry", len(t.carry)))
			defer sp.End()
		}
		t.count(ops, w, deg)
	})
	countSpan.End()

	off := make([]int64, n+1)
	for i := 0; i < n; i++ {
		off[i+1] = off[i] + int64(deg[i])
	}
	res.Pairs = off[n]

	// The transient footprint of the sweep, O(n) tables whatever the pair
	// count: index + sort scratch + slice plan + degree / offset / rank
	// tables. The output arenas (ys — filled in place — runs, groups) are
	// retained and excluded. A tier-1 test gates this against the op count.
	res.slices, res.carryOps = len(tasks), carryOps
	res.ScratchBytes = 4*int64(n) /* idx */ + 20*int64(n) /* idx1, keys0, keys1 */ +
		4*int64(3*nfiles+2) /* fileOff, next, taskOff */ +
		40*int64(len(tasks)) /* tasks */ +
		4*carryOps + 4*int64(n) /* deg */ + 8*int64(n+1) /* off */
	if res.Pairs == 0 {
		return
	}
	res.ScratchBytes += 4 * int64(n) /* rankOf */

	ys := make([]int32, res.Pairs)
	fillCtx, fillSpan := sc.Start("sweep-fill", obs.Int("entries", len(ys)))
	par.Do(workers, len(tasks), func(ti int) {
		t := &tasks[ti]
		w := idx[fileOff[t.fid]:fileOff[t.fid+1]]
		if len(w) > 1 && fillCtx.Enabled() {
			_, sp := fillCtx.StartLane(t.lane(), "fill-slice", obs.Int("fid", int(t.fid)))
			defer sp.End()
		}
		t.fill(ops, w, off, deg, ys)
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
