package verify

import (
	"cmp"
	"math"
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
// VerifyAll; the sync index depends on the model's sync-op classes and is
// built once per model pass.

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

// chunkSpan is one unit of the verification plan: groups [lo, hi).
type chunkSpan struct{ lo, hi int }

// Chunk plan geometry. Chunks are sized by total run length (the quantity
// verification cost tracks), not group count, and boundaries are content
// defined — a group becomes a boundary when the hash of its X ref selects it
// — so the plan is a pure function of the conflict content, identical at
// every worker count.
const (
	// chunkMinWeight is the minimum accumulated run length before a content
	// boundary may cut; with chunkCutMask accepting 1 in 4 groups, expected
	// chunk weight is chunkMinWeight plus a few groups.
	chunkMinWeight = 128
	// chunkMaxWeight forces a cut regardless of the boundary hash, and any
	// single group at least this heavy is isolated into its own chunk so a
	// dense group cannot straggle the neighbors sharing its chunk.
	chunkMaxWeight = 4096
	// chunkCutMask selects boundary groups: cut when hash&mask == 0.
	chunkCutMask = 3
)

// chunkBoundary hashes the group's X record identity (FNV-1a). The
// boundaries stay as they are because batches are cut from the chunk plan:
// re-cutting it would move the class and hb counters every report carries
// (Classes, ClassHits, HBQueries), which depend on that batch geometry.
func chunkBoundary(conf *conflict.Result, gi int) bool {
	x := &conf.Ops[conf.Groups[gi].X]
	h := uint32(2166136261)
	mix := func(v uint32) {
		for i := 0; i < 4; i++ {
			h ^= v & 0xff
			h *= 16777619
			v >>= 8
		}
	}
	mix(uint32(x.Ref.Rank))
	mix(uint32(x.Ref.Seq))
	return h&chunkCutMask == 0
}

// planChunks partitions the conflict groups into contiguous weight-balanced
// chunks — the work unit of parallel verification.
func planChunks(conf *conflict.Result) []chunkSpan {
	n := len(conf.Groups)
	var plan []chunkSpan
	lo, w := 0, 0
	for gi := 0; gi < n; gi++ {
		gw := len(conf.Groups[gi].Ys())
		if gw >= chunkMaxWeight {
			if lo < gi {
				plan = append(plan, chunkSpan{lo, gi})
			}
			plan = append(plan, chunkSpan{gi, gi + 1})
			lo, w = gi+1, 0
			continue
		}
		w += gw
		if w >= chunkMaxWeight || (w >= chunkMinWeight && chunkBoundary(conf, gi)) {
			plan = append(plan, chunkSpan{lo, gi + 1})
			lo, w = gi+1, 0
		}
	}
	if lo < n {
		plan = append(plan, chunkSpan{lo, n})
	}
	return plan
}

// planBatches partitions nchunks chunks into contiguous batches, as index
// spans: the unit a worker claims, along which the verifier carries its
// class scratch (a position class usually spans several chunks). ⌈√n⌉ chunks
// per batch leaves about as many batches as a batch has chunks, so the
// carry-over and the parallel slack both grow with the trace. A function of
// the chunk count alone — never of Workers.
func planBatches(nchunks int) []chunkSpan {
	per := int(math.Ceil(math.Sqrt(float64(nchunks))))
	var batches []chunkSpan
	for lo := 0; lo < nchunks; lo += per {
		batches = append(batches, chunkSpan{lo, min(lo+per, nchunks)})
	}
	return batches
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
