package verify

import (
	"cmp"
	"slices"
	"sort"

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
// The op plan is model independent and shared by every model pass of
// VerifyAll (and every warm/dirty vcache chunk); the sync index depends on
// the model's sync-op classes and is built once per model pass.

// opPlan carries the resolved conflict-op operands and the chunk/batch plan
// for one analysis.
type opPlan struct {
	// res holds one resolved operand per op, aligned with Conflicts.Ops.
	res []hbgraph.Coord
	// write has bit i set when Ops[i] is a write, so the group walk reads an
	// op's kind without touching the op.
	write []uint64
	// rankEnd[r] is one past the last op index of rank r: Ops is rank-major,
	// so a rank is an index range.
	rankEnd []int32
	// chunks partitions the conflict groups (planChunks); batches partitions
	// the chunks, as index spans into chunks (planBatches).
	chunks, batches []chunkSpan
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

// queryPlan returns the memoized resolved op plan, computing it on first
// use. Model passes running concurrently in VerifyAll share one plan.
func (a *Analysis) queryPlan() *opPlan {
	a.planMu.Lock()
	defer a.planMu.Unlock()
	if a.plan != nil {
		return a.plan
	}
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
	p.chunks = planChunks(a.Conflicts)
	p.batches = planBatches(len(p.chunks))
	a.plan = p
	return p
}

// syncIndex organizes the trace's synchronization points for MSC lookup,
// pre-resolved into the plan's coordinate space: for each MSC op class, per
// (file, rank) seq-sorted candidate lists.
type syncIndex struct {
	// perRank[class][fid][rank] = candidates in ascending seq order.
	perRank []map[int]map[int][]hbgraph.Coord
	// ranks[class][fid] = the ranks present in perRank, ascending — the
	// deterministic iteration order for per-rank witness searches.
	ranks []map[int][]int
}

func buildSyncIndex(conf *conflict.Result, model semantics.Model, g *hbgraph.Graph) *syncIndex {
	k := model.MSC.K()
	idx := &syncIndex{perRank: make([]map[int]map[int][]hbgraph.Coord, k)}
	for c := 0; c < k; c++ {
		idx.perRank[c] = make(map[int]map[int][]hbgraph.Coord)
	}
	for _, sp := range conf.Syncs {
		for c := 0; c < k; c++ {
			if !model.MSC.Ops[c].Contains(sp.Func) {
				continue
			}
			rr := g.Resolve(sp.Ref)
			byRank, ok := idx.perRank[c][sp.FID]
			if !ok {
				byRank = make(map[int][]hbgraph.Coord)
				idx.perRank[c][sp.FID] = byRank
			}
			byRank[sp.Ref.Rank] = append(byRank[sp.Ref.Rank], rr)
		}
	}
	// conflict.Result.Syncs is produced rank-major in seq order, so the
	// per-rank lists are already sorted; the guard keeps the invariant
	// cheap to hold and safe if a future producer violates it.
	bySeq := func(a, b hbgraph.Coord) int { return int(a.Seq) - int(b.Seq) }
	idx.ranks = make([]map[int][]int, k)
	for c := 0; c < k; c++ {
		idx.ranks[c] = make(map[int][]int)
		for fid, byRank := range idx.perRank[c] {
			ranks := make([]int, 0, len(byRank))
			for rank, cands := range byRank {
				if !slices.IsSortedFunc(cands, bySeq) {
					slices.SortFunc(cands, bySeq)
				}
				ranks = append(ranks, rank)
			}
			sort.Ints(ranks)
			idx.ranks[c][fid] = ranks
		}
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
