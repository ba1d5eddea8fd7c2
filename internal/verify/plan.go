package verify

import (
	"cmp"
	"math"
	"slices"

	"verifyio/internal/conflict"
	"verifyio/internal/hbgraph"
	"verifyio/internal/semantics"
)

// Resolved query plan: the verification hot path asks the oracle about the
// same operands over and over — every conflict op, every sync candidate on
// the conflicting file. Resolving an operand means mapping its ref onto the
// skeleton fringe (hbgraph.Graph.Resolve); doing that per query is pure
// overhead, so the plan does it once per run. A cross-rank query is then a
// single Oracle.Probe (for the production oracle one clock compare), and a
// same-rank query is a sequence compare.
//
// The op plan is model independent: Analyze builds it once and every model
// pass of VerifyAll shares it. The sync index depends on the model's sync-op
// classes and is built once per model pass.

// opPlan carries the resolved conflict-op operands and the batch plan for one
// analysis.
type opPlan struct {
	// res holds one resolved operand per op, aligned with Conflicts.Ops.
	res []hbgraph.Coord
	// write has bit i set when Ops[i] is a write, so the group walk reads an
	// op's kind without touching the op.
	write []uint64
	// rankEnd[r] is one past the last op index of rank r: Ops is rank-major,
	// so a rank is an index range.
	rankEnd []int32
	// batches partitions the conflict groups (planBatches).
	batches []groupSpan
}

func (p *opPlan) isWrite(i int32) bool { return p.write[i>>6]&(1<<(uint(i)&63)) != 0 }

// rankOf returns the rank owning op index i, searching ranks from and up. It
// runs once per run of every group: a plain loop, measurably cheaper there
// than slices.BinarySearch.
func (p *opPlan) rankOf(i int32, from int) int {
	lo, hi := from, len(p.rankEnd)-1
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); p.rankEnd[m] <= i {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// groupSpan is one batch of the verification plan: groups [lo, hi).
type groupSpan struct{ lo, hi int }

// batchUnit scales the batch weight: a batch closes once its run length
// reaches ⌈√(batchUnit·W)⌉ of the total W, so a trace has about √(W/batchUnit)
// batches and the carry-over and the parallel slack both grow with it.
const batchUnit = 128

// planBatches partitions the conflict groups into contiguous batches: the
// unit a worker claims, along which the verifier carries its class scratch.
// Batches are weighted by run length, the quantity verification cost tracks,
// so a heavy group closes its batch at once. The plan is a function of the
// conflicts alone — never of Workers.
func planBatches(conf *conflict.Result) []groupSpan {
	target := int(math.Ceil(math.Sqrt(float64(conf.Pairs) * batchUnit)))
	var batches []groupSpan
	lo, w := 0, 0
	for gi := range conf.Groups {
		if w += len(conf.Groups[gi].Ys()); w >= target {
			batches = append(batches, groupSpan{lo, gi + 1})
			lo, w = gi+1, 0
		}
	}
	if lo < len(conf.Groups) {
		batches = append(batches, groupSpan{lo, len(conf.Groups)})
	}
	return batches
}

// newOpPlan resolves every conflict op of a, whose graph is built, and cuts
// the batch plan.
func newOpPlan(a *Analysis) *opPlan {
	p := &opPlan{}
	ops := a.Conflicts.Ops
	p.res = make([]hbgraph.Coord, len(ops))
	p.write = make([]uint64, (len(ops)+63)/64)
	p.rankEnd = make([]int32, a.NumRanks())
	for i := range ops {
		p.res[i] = a.Graph.Resolve(ops[i].Ref)
		if ops[i].Write {
			p.write[i>>6] |= 1 << (uint(i) & 63)
		}
		p.rankEnd[ops[i].Ref.Rank] = int32(i + 1)
	}
	for r := 1; r < len(p.rankEnd); r++ {
		p.rankEnd[r] = max(p.rankEnd[r], p.rankEnd[r-1]) // a rank without ops
	}
	p.batches = planBatches(a.Conflicts)
	return p
}

// syncIndex organizes the trace's synchronization points for MSC lookup,
// pre-resolved into the plan's coordinate space: for each MSC op class, per
// (file, rank) seq-sorted candidate lists.
type syncIndex struct {
	// files[class][fid] are the class's candidates on file fid.
	files [][]fileCands
}

// fileCands are one MSC op class's candidates on one file: ranks holds the
// ranks that have any, ascending — the deterministic iteration order for
// per-rank witness searches — and cands[i] rank ranks[i]'s, ascending by seq.
type fileCands struct {
	ranks []int
	cands [][]hbgraph.Coord
}

// on returns rank q's candidates; nil when it has none.
func (f *fileCands) on(q int) []hbgraph.Coord {
	if i, ok := slices.BinarySearch(f.ranks, q); ok {
		return f.cands[i]
	}
	return nil
}

func buildSyncIndex(conf *conflict.Result, model semantics.Model, g *hbgraph.Graph) *syncIndex {
	k := model.MSC.K()
	idx := &syncIndex{files: make([][]fileCands, k)}
	// conflict.Result.Syncs is produced rank-major in seq order, so a stable
	// placement by file leaves every file's candidates in (rank, seq) order;
	// the guard keeps the invariant cheap to hold and safe if a future
	// producer violates it.
	byRankSeq := func(a, b hbgraph.Coord) int {
		return cmp.Or(cmp.Compare(a.Rank, b.Rank), cmp.Compare(a.Seq, b.Seq))
	}
	var sel []int32
	for c := range k {
		sel = sel[:0]
		end := make([]int, len(conf.Files)+1) // end[fid+1]: where file fid's candidates end
		for i, sp := range conf.Syncs {
			if model.MSC.Ops[c].Contains(sp.Func) {
				sel = append(sel, int32(i))
				end[sp.FID+1]++
			}
		}
		for fid := range conf.Files {
			end[fid+1] += end[fid]
		}
		flat := make([]hbgraph.Coord, len(sel))
		next := slices.Clone(end[:len(conf.Files)])
		for _, i := range sel {
			sp := &conf.Syncs[i]
			flat[next[sp.FID]] = g.Resolve(sp.Ref)
			next[sp.FID]++
		}
		files := make([]fileCands, len(conf.Files))
		for fid := range files {
			cands := flat[end[fid]:end[fid+1]]
			if !slices.IsSortedFunc(cands, byRankSeq) {
				slices.SortFunc(cands, byRankSeq)
			}
			f := &files[fid]
			for lo := 0; lo < len(cands); {
				hi := lo + 1
				for hi < len(cands) && cands[hi].Rank == cands[lo].Rank {
					hi++
				}
				f.ranks = append(f.ranks, int(cands[lo].Rank))
				f.cands = append(f.cands, cands[lo:hi:hi])
				lo = hi
			}
		}
		idx.files[c] = files
	}
	return idx
}

// seqBound returns the first index of cands (ascending seq) whose seq is at
// least s: cands[seqBound(s+1)] is the earliest candidate after s,
// cands[seqBound(s)-1] the latest before it.
func seqBound(cands []hbgraph.Coord, s int32) int {
	i, _ := slices.BinarySearchFunc(cands, s, func(c hbgraph.Coord, s int32) int { return cmp.Compare(c.Seq, s) })
	return i
}
