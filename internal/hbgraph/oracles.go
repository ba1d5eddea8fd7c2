package hbgraph

import (
	"sort"

	"verifyio/internal/match"
	"verifyio/internal/par"
	"verifyio/internal/trace"
)

// All oracles are immutable once constructed (per-query scratch is local to
// the call), so they are safe for concurrent Probe calls. The parallel
// verifier (internal/verify) relies on this contract.
//
// The graph-based oracles compute over the sync skeleton (skeleton.go) and
// are probed at skeleton coordinates, so their state is O(S·P) / O(S²)
// instead of O(V·P) / O(V²). The transitive closure of §IV-D3 is SegOracle
// (segreach.go).

// ---------------------------------------------------------------------------
// 1. Vector clocks (§IV-D1)

// VCOracle answers hb queries from precomputed skeleton vector clocks: the
// clock entry (v, r) is the highest sequence index on rank r that
// happens-before-or-equals skeleton node v. Clocks live in one flat
// node-major []int32 — a single allocation instead of one slice per node,
// and adjacent nodes' clocks share cache lines.
type VCOracle struct {
	nranks int
	clocks []int32 // len S*nranks; clocks[skelID*nranks+r] (-1 = nothing known)
}

// VCOptions configures vector-clock construction.
type VCOptions struct {
	// Workers bounds the column-block tasks; 0 means GOMAXPROCS, 1 forces
	// the serial pass. The clocks are identical at every worker count: a
	// clock column depends only on the same column of the predecessors.
	Workers int
}

// vcBlock is the column-block width of the clock pass: the int32 entries of
// one 64-byte cache line.
const vcBlock = 64 / 4

// VectorClocksOpts computes skeleton vector clocks — O(S·P + E·P) once,
// O(1) per query — in one walk of the topological order (the Kahn levels,
// each followed by the joins it fires). Clock entry (v, r) depends only on
// entry r of v's predecessors, so the P columns split into blocks of vcBlock
// and up to Workers tasks walk the whole order at once, each over its own
// run of blocks, with no barrier between levels. At P ≤ vcBlock that is one
// task: the serial pass.
func (g *Graph) VectorClocksOpts(opts VCOptions) (*VCOracle, error) {
	s := &g.skel
	if s.cycleErr != nil {
		return nil, s.cycleErr
	}
	nranks := s.nranks
	clocks := make([]int32, s.n*nranks)
	// Join clocks are scratch: targets read them one level later and no
	// query ever does, so they are dropped with this call.
	joinClocks := make([]int32, s.joins*nranks)
	// cols returns columns [lo, hi) of v's clock row.
	cols := func(v int32, lo, hi int) []int32 {
		arena, off := clocks, int(v)*nranks
		if int(v) >= s.n {
			arena, off = joinClocks, (int(v)-s.n)*nranks
		}
		return arena[off+lo : off+hi]
	}
	// fill computes columns [lo, hi) of v's clock from its po predecessor
	// (if any) and its sync predecessors, whose columns are final by the
	// time v's turn comes in the walk: a copy of the first, max-merged with
	// the rest.
	fill := func(v int32, lo, hi int) {
		c, preds := cols(v, lo, hi), s.pred(v)
		switch {
		case int(v) < s.n && v > s.base[s.rankOf[v]]:
			copy(c, cols(v-1, lo, hi))
		case len(preds) > 0:
			copy(c, cols(preds[0], lo, hi))
			preds = preds[1:]
		default:
			for r := range c {
				c[r] = -1
			}
		}
		for _, p := range preds {
			mergeClock(c, cols(p, lo, hi))
		}
		if int(v) < s.n {
			if r, sq := int(s.rankOf[v]), s.seqs[v]; r >= lo && r < hi && sq > c[r-lo] {
				c[r-lo] = sq
			}
		}
	}
	blocks := (nranks + vcBlock - 1) / vcBlock
	tasks := min(par.Resolve(opts.Workers), blocks)
	par.Do(tasks, tasks, func(t int) {
		lo, hi := t*blocks/tasks*vcBlock, min((t+1)*blocks/tasks*vcBlock, nranks)
		for l := 0; l+1 < len(s.levelOff); l++ {
			for _, v := range s.levelOrder[s.levelOff[l]:s.levelOff[l+1]] {
				fill(v, lo, hi)
			}
			for _, j := range s.joinsAfter(l) {
				fill(j, lo, hi)
			}
		}
	})
	return &VCOracle{nranks: nranks, clocks: clocks}, nil
}

// mergeClock folds src into dst entrywise by max.
func mergeClock(dst, src []int32) {
	for r, v := range src {
		if v > dst[r] {
			dst[r] = v
		}
	}
}

// Probe answers a cross-rank query in one clock compare: the skeleton clock
// of prev(b) already folds in every path into b's segment, so next(a) is not
// needed.
func (o *VCOracle) Probe(a, b Coord) bool {
	return o.clocks[int(b.Prev)*o.nranks+int(a.Rank)] >= a.Seq
}

// ArenaBytes returns the size of the clock arena — 4·S·P bytes, versus the
// 4·V·P a full-graph clock table would need.
func (o *VCOracle) ArenaBytes() int { return 4 * len(o.clocks) }

// Name identifies the algorithm.
func (o *VCOracle) Name() string { return "vector-clock" }

// ---------------------------------------------------------------------------
// 2. Graph reachability (§IV-D2)

// BFSOracle answers each hb query with one forward breadth-first search over
// the sync skeleton. It is the plain reference implementation of §IV-D2 —
// no precomputation, no state between queries — kept for the ablation
// benchmark and as a cross-check of the production oracle.
type BFSOracle struct {
	g *Graph
}

// Reachability returns the BFS-based oracle.
func (g *Graph) Reachability() *BFSOracle { return &BFSOracle{g: g} }

// Probe answers a cross-rank query by skeleton reachability: a reaches b in
// the full graph iff next(a) reaches prev(b) in the skeleton (the path enters
// and leaves the endpoint ranks through skeleton nodes; see skeleton.go).
func (o *BFSOracle) Probe(a, b Coord) bool {
	s := &o.g.skel
	dst := b.Prev
	seen := make([]uint64, (s.n+s.joins+63)/64) // joins are walked like any node
	queue := []int32{a.Next}
	// visit enqueues w once; it reports whether w is the target.
	visit := func(w int32) bool {
		if w == dst {
			return true
		}
		if word, mask := int(w)/64, uint64(1)<<(uint(w)%64); seen[word]&mask == 0 {
			seen[word] |= mask
			queue = append(queue, w)
		}
		return false
	}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		if w := s.poSucc(v); w >= 0 && visit(w) {
			return true
		}
		for _, w := range s.succ(v) {
			if visit(w) {
				return true
			}
		}
	}
	return false
}

// Name identifies the algorithm.
func (o *BFSOracle) Name() string { return "reachability" }

// ---------------------------------------------------------------------------
// 4. On-the-fly (§IV-D4)

// OTFOracle answers hb queries straight from the matched synchronization
// edges, with no state derived from the happens-before graph: per query it
// propagates a per-rank "earliest reachable sequence" frontier across the
// edge list until fixpoint, reading only the operands' (Rank, Seq). Like
// BFSOracle it is a plain reference implementation; it knows nothing of join
// nodes and works on the pairwise expansion.
type OTFOracle struct {
	// edgesByRank[r] holds the sync edges originating on rank r, sorted
	// by source sequence.
	edgesByRank [][]match.Edge
}

// NewOnTheFly builds the on-the-fly oracle from the matcher output alone.
func NewOnTheFly(tr *trace.Trace, edges []match.Edge) *OTFOracle {
	return NewOnTheFlyCounts(rankCounts(tr), edges)
}

// NewOnTheFlyCounts builds the oracle from per-rank record counts, for
// streaming callers that never materialize the trace.
func NewOnTheFlyCounts(counts []int, edges []match.Edge) *OTFOracle {
	o := &OTFOracle{edgesByRank: make([][]match.Edge, len(counts))}
	for _, e := range match.Pairwise(edges) {
		if e.From.Rank >= 0 && int(e.From.Rank) < len(counts) {
			o.edgesByRank[e.From.Rank] = append(o.edgesByRank[e.From.Rank], e)
		}
	}
	for _, es := range o.edgesByRank {
		sort.Slice(es, func(i, j int) bool {
			if es[i].From.Seq != es[j].From.Seq {
				return es[i].From.Seq < es[j].From.Seq
			}
			return es[i].To.Less(es[j].To)
		})
	}
	return o
}

// Probe answers a cross-rank query by the frontier fixpoint.
func (o *OTFOracle) Probe(a, b Coord) bool {
	nranks := len(o.edgesByRank)
	// earliest[r]: smallest sequence on rank r known to be hb-after a
	// (math.MaxInt when none).
	const inf = int(^uint(0) >> 1)
	earliest := make([]int, nranks)
	for i := range earliest {
		earliest[i] = inf
	}
	earliest[a.Rank] = int(a.Seq)
	// Relax sync edges to fixpoint: an edge (u → v) applies when u is at
	// or after the frontier on its rank, and pulls v's rank's frontier
	// down to v's sequence. Program order is implicit in the ≥ test, so
	// only the sorted suffix starting at the frontier can apply.
	for changed := true; changed; {
		changed = false
		for r := 0; r < nranks; r++ {
			if earliest[r] == inf {
				continue
			}
			es := o.edgesByRank[r]
			at := earliest[r]
			i := sort.Search(len(es), func(i int) bool { return int(es[i].From.Seq) >= at })
			for _, e := range es[i:] {
				if int(e.To.Seq) < earliest[e.To.Rank] {
					earliest[e.To.Rank] = int(e.To.Seq)
					changed = true
				}
			}
		}
	}
	return earliest[b.Rank] <= int(b.Seq)
}

// Name identifies the algorithm.
func (o *OTFOracle) Name() string { return "on-the-fly" }
