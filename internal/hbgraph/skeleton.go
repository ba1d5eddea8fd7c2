package hbgraph

import (
	"fmt"
	"math/bits"

	"verifyio/internal/match"
	"verifyio/internal/trace"
)

// skeleton is the sync skeleton of the happens-before graph: the records
// that are endpoints of synchronization edges, plus the first and last
// record of every non-empty rank as sentinels. Clocks and reachability
// bitsets only change at these nodes — between two consecutive skeleton
// nodes on a rank lies a pure program-order run with no incident sync edge —
// so the graph-based oracles compute on S = skeleton nodes instead of
// V = all records, and map arbitrary refs onto the skeleton at query time.
//
// Query mapping (the fringe argument): for any record b, every cross-rank
// path into b enters b's rank at a sync-edge target w with seq(w) ≤ seq(b);
// w is a skeleton node, so w po-precedes-or-equals prev(b), the last
// skeleton node at-or-before b. Hence b's full vector clock equals prev(b)'s
// skeleton clock on every rank except b's own. Symmetrically, every
// cross-rank path out of a leaves through a sync source at-or-after a,
// which po-follows-or-equals next(a), the first skeleton node at-or-after a.
// So for a.Rank ≠ b.Rank:
//
//	HB(a, b) ⇔ skeleton clock of prev(b) on a.Rank ≥ a.Seq  (vector clocks)
//	HB(a, b) ⇔ next(a) reaches prev(b) in the skeleton      (BFS / closure)
//
// The sentinels guarantee prev and next always exist for in-range refs.
// Same-rank queries never touch the skeleton (program order answers them).
//
// Join nodes — the matcher's O(P) encoding of a barrier-like collective —
// get the ids S … S+joins−1, after every record node. They are not records:
// no ref resolves to one, prev/next never return one, and no path starts or
// ends at one, so the fringe argument and every query coordinate range over
// the S record nodes exactly as if each join were spelled out as its
// source × target edges. They are also transparent to the schedule: a join
// takes no level (it fires the moment its last source is placed and releases
// its targets into the next level, where the pairwise edges would have put
// them), and its clock or reachability row exists only while an oracle is
// being built.
type skeleton struct {
	nranks int
	n      int     // skeleton record nodes S
	joins  int     // join nodes, ids n … n+joins−1
	base   []int32 // len nranks+1: skeleton-id offset per rank
	seqs   []int32 // len S, rank-major, strictly ascending within a rank
	rankOf []int32 // len S

	// prev maps every full node id to the skeleton id of the last skeleton
	// record at-or-before it on the same rank — O(1) ref resolution, O(V)
	// int32s once per BuildCounts instead of a binary search per query.
	prev []int32

	// CSR sync adjacency over skeleton and join ids; program order is
	// implicit (skeleton ids on one rank are consecutive and po-chained).
	succOff []int32
	succAdj []int32
	predOff []int32
	predAdj []int32

	// Kahn level schedule: levelOrder[levelOff[l]:levelOff[l+1]] holds the
	// skeleton nodes of level l; every node's predecessors sit in earlier
	// levels, so walking the levels in order is a topological order.
	levelOrder []int32
	levelOff   []int32
	// joinOrder[joinOff[l]:joinOff[l+1]] holds the joins that fire once
	// level l is placed: every source sits in a level ≤ l, every target in
	// a level > l.
	joinOrder []int32
	joinOff   []int32
	cycleErr  error // set when po ∪ so is cyclic; reported by clock/closure construction
}

// buildSkeleton populates g.skel and g.syncPairs from the range-checked edge
// list, whose join nodes are numbered below joins. Called once from
// BuildCounts.
func (g *Graph) buildSkeleton(edges []match.Edge, joins int) error {
	s := &g.skel
	nranks := len(g.counts)
	s.nranks = nranks
	s.joins = joins

	// Membership: one bit per record, set for the first/last sentinels and
	// every sync endpoint that is a record.
	member := make([]uint64, (g.n+63)/64)
	mark := func(id int) { member[id/64] |= 1 << (id % 64) }
	for r, cnt := range g.counts {
		if cnt > 0 {
			mark(g.base[r])
			mark(g.base[r] + cnt - 1)
		}
	}
	for _, e := range edges {
		for _, ref := range [2]trace.Ref{e.From, e.To} {
			if ref.Rank != joinRank {
				mark(g.base[ref.Rank] + int(ref.Seq))
			}
		}
	}
	// Each rank's members in seq order, and the prev map, in one pass.
	total := 0
	for _, w := range member {
		total += bits.OnesCount64(w)
	}
	s.n = total
	s.base = make([]int32, nranks+1)
	s.seqs = make([]int32, 0, total)
	s.rankOf = make([]int32, 0, total)
	s.prev = make([]int32, g.n)
	for r, cnt := range g.counts {
		for j := range cnt {
			if id := g.base[r] + j; member[id/64]&(1<<(id%64)) != 0 {
				s.seqs = append(s.seqs, int32(j))
				s.rankOf = append(s.rankOf, int32(r))
			}
			s.prev[g.base[r]+j] = int32(len(s.seqs) - 1)
		}
		s.base[r+1] = int32(len(s.seqs))
	}

	// Sync CSR over skeleton and join ids. Record endpoints are skeleton
	// members, so prev resolves them exactly.
	id := func(ref trace.Ref) int32 {
		if ref.Rank == joinRank {
			return int32(s.n) + ref.Seq
		}
		return s.prev[g.base[ref.Rank]+int(ref.Seq)]
	}
	ids := s.n + joins
	s.succOff = make([]int32, ids+1)
	s.predOff = make([]int32, ids+1)
	for _, e := range edges {
		s.succOff[id(e.From)]++
		s.predOff[id(e.To)]++
	}
	for i := 0; i < ids; i++ {
		s.succOff[i+1] += s.succOff[i]
		s.predOff[i+1] += s.predOff[i]
	}
	// Each offset now ends its node's run; placing the edges back to front
	// moves it to the run's start and keeps every run in edge order.
	s.succAdj = make([]int32, len(edges))
	s.predAdj = make([]int32, len(edges))
	for i := len(edges) - 1; i >= 0; i-- {
		from, to := id(edges[i].From), id(edges[i].To)
		s.succOff[from]--
		s.succAdj[s.succOff[from]] = to
		s.predOff[to]--
		s.predAdj[s.predOff[to]] = from
	}

	// Joins: each needs a way in and a way out (this is also what makes the
	// numbering dense), and stands for its source × target pairs on
	// different ranks.
	g.syncPairs = len(edges)
	onRank := make([]int, nranks) // sources of the current join per rank
	for j := s.n; j < ids; j++ {
		srcs, dsts := s.pred(int32(j)), s.succ(int32(j))
		if len(srcs) == 0 || len(dsts) == 0 {
			return fmt.Errorf("hbgraph: join node %d has %d edges in and %d out; need both",
				j-s.n, len(srcs), len(dsts))
		}
		for _, v := range srcs {
			onRank[s.rankOf[v]]++
		}
		sameRank := 0
		for _, v := range dsts {
			sameRank += onRank[s.rankOf[v]]
		}
		for _, v := range srcs {
			onRank[s.rankOf[v]] = 0
		}
		// The join's own edges give way to the pairs they stand for.
		g.syncPairs += len(srcs)*len(dsts) - sameRank - (len(srcs) + len(dsts))
	}

	s.computeLevels()
	return nil
}

// succ and pred return v's sync neighbours (v a skeleton or join id).
func (s *skeleton) succ(v int32) []int32 { return s.succAdj[s.succOff[v]:s.succOff[v+1]] }
func (s *skeleton) pred(v int32) []int32 { return s.predAdj[s.predOff[v]:s.predOff[v+1]] }

// poSucc returns the program-order successor of skeleton node v, or -1 at
// the end of its rank and for a join node.
func (s *skeleton) poSucc(v int32) int32 {
	if int(v) < s.n && v+1 < s.base[s.rankOf[v]+1] {
		return v + 1
	}
	return -1
}

// forEachSkelSucc visits v's successors in the skeleton graph: the po
// successor (if any) and the sync successors.
func (s *skeleton) forEachSkelSucc(v int32, visit func(int32)) {
	if w := s.poSucc(v); w >= 0 {
		visit(w)
	}
	for _, w := range s.succ(v) {
		visit(w)
	}
}

// computeLevels runs a level-synchronized Kahn pass: level l holds the nodes
// whose longest incoming path has length l. Any cycle in po ∪ so involves at
// least two sync edges, so all its records are skeleton nodes and the cycle
// surfaces here as an incomplete order. Join nodes take no level: a join
// fires when its last source is placed and releases its targets into the
// next level — the level the pairwise edges it stands for would give them.
func (s *skeleton) computeLevels() {
	indeg := make([]int32, s.n+s.joins)
	for v := int32(0); int(v) < len(indeg); v++ {
		if int(v) < s.n && v > s.base[s.rankOf[v]] {
			indeg[v]++ // po predecessor v-1
		}
		indeg[v] += s.predOff[v+1] - s.predOff[v]
	}
	s.levelOrder = make([]int32, 0, s.n)
	s.levelOff = append(s.levelOff[:0], 0)
	s.joinOrder = make([]int32, 0, s.joins)
	s.joinOff = append(s.joinOff[:0], 0)
	frontier := make([]int32, 0, s.nranks)
	for v := int32(0); int(v) < s.n; v++ {
		if indeg[v] == 0 {
			frontier = append(frontier, v)
		}
	}
	var next []int32
	// release drops one incoming edge of w; reports whether it was the last.
	release := func(w int32) bool {
		indeg[w]--
		return indeg[w] == 0
	}
	for len(frontier) > 0 {
		s.levelOrder = append(s.levelOrder, frontier...)
		s.levelOff = append(s.levelOff, int32(len(s.levelOrder)))
		next = next[:0]
		for _, v := range frontier {
			s.forEachSkelSucc(v, func(w int32) {
				if !release(w) {
					return
				}
				if int(w) < s.n {
					next = append(next, w)
					return
				}
				// w is a join and v was its last source: it fires now.
				s.joinOrder = append(s.joinOrder, w)
				for _, t := range s.succ(w) {
					if release(t) {
						next = append(next, t)
					}
				}
			})
		}
		s.joinOff = append(s.joinOff, int32(len(s.joinOrder)))
		frontier, next = next, frontier
	}
	if len(s.levelOrder) != s.n {
		s.cycleErr = fmt.Errorf("hbgraph: po ∪ so contains a cycle (%d of %d skeleton nodes ordered)",
			len(s.levelOrder), s.n)
		s.levelOrder = s.levelOrder[:0]
		s.levelOff = s.levelOff[:1]
		s.joinOrder = s.joinOrder[:0]
		s.joinOff = s.joinOff[:1]
	}
}

// joinsAfter returns the joins that fire once level l is placed.
func (s *skeleton) joinsAfter(l int) []int32 {
	return s.joinOrder[s.joinOff[l]:s.joinOff[l+1]]
}
