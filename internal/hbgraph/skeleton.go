package hbgraph

import (
	"fmt"
	"slices"

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
type skeleton struct {
	nranks int
	n      int     // skeleton nodes S
	base   []int32 // len nranks+1: skeleton-id offset per rank
	seqs   []int32 // len S, rank-major, strictly ascending within a rank
	rankOf []int32 // len S

	// prev maps every full node id to the skeleton id of the last skeleton
	// record at-or-before it on the same rank — O(1) ref resolution, O(V)
	// int32s once per Build instead of a binary search per query.
	prev []int32

	// CSR sync adjacency over skeleton ids; program order is implicit
	// (skeleton ids on one rank are consecutive and po-chained).
	succOff []int32
	succAdj []int32
	predOff []int32
	predAdj []int32

	// Kahn wavefront schedule: levelOrder[levelOff[l]:levelOff[l+1]] holds
	// the skeleton nodes of level l; every node's predecessors sit in
	// earlier levels, so one level's clocks can be computed concurrently.
	levelOrder []int32
	levelOff   []int32
	maxWidth   int
	cycleErr   error // set when po ∪ so is cyclic; reported by clock/closure construction
}

// buildSkeleton populates g.skel from the range-checked edge list. Called
// once from BuildCounts.
func (g *Graph) buildSkeleton(edges []match.Edge) {
	s := &g.skel
	nranks := len(g.counts)
	s.nranks = nranks

	// Membership: first/last sentinels plus all sync endpoints, deduplicated
	// per rank.
	perRank := make([][]int32, nranks)
	for r, cnt := range g.counts {
		if cnt > 0 {
			perRank[r] = append(perRank[r], 0)
			if cnt > 1 {
				perRank[r] = append(perRank[r], int32(cnt-1))
			}
		}
	}
	for _, e := range edges {
		perRank[e.From.Rank] = append(perRank[e.From.Rank], int32(e.From.Seq))
		perRank[e.To.Rank] = append(perRank[e.To.Rank], int32(e.To.Seq))
	}
	s.base = make([]int32, nranks+1)
	total := 0
	for r := range perRank {
		slices.Sort(perRank[r])
		perRank[r] = slices.Compact(perRank[r])
		total += len(perRank[r])
		s.base[r+1] = int32(total)
	}
	s.n = total
	s.seqs = make([]int32, 0, total)
	s.rankOf = make([]int32, 0, total)
	for r, seqs := range perRank {
		s.seqs = append(s.seqs, seqs...)
		for range seqs {
			s.rankOf = append(s.rankOf, int32(r))
		}
	}

	// prev map: walk each rank once, advancing a cursor over its skeleton
	// seqs.
	s.prev = make([]int32, g.n)
	for r := 0; r < nranks; r++ {
		seqs := s.seqs[s.base[r]:s.base[r+1]]
		cur := 0
		for j := 0; j < g.counts[r]; j++ {
			for cur+1 < len(seqs) && int(seqs[cur+1]) <= j {
				cur++
			}
			s.prev[g.base[r]+j] = s.base[r] + int32(cur)
		}
	}

	// Sync CSR over skeleton ids. Edge endpoints are skeleton members, so
	// prev resolves them exactly.
	s.succOff = make([]int32, s.n+1)
	s.predOff = make([]int32, s.n+1)
	for _, e := range edges {
		from := s.prev[g.base[e.From.Rank]+e.From.Seq]
		to := s.prev[g.base[e.To.Rank]+e.To.Seq]
		s.succOff[from+1]++
		s.predOff[to+1]++
	}
	for i := 0; i < s.n; i++ {
		s.succOff[i+1] += s.succOff[i]
		s.predOff[i+1] += s.predOff[i]
	}
	s.succAdj = make([]int32, len(edges))
	s.predAdj = make([]int32, len(edges))
	scur := make([]int32, s.n)
	pcur := make([]int32, s.n)
	copy(scur, s.succOff[:s.n])
	copy(pcur, s.predOff[:s.n])
	for _, e := range edges {
		from := s.prev[g.base[e.From.Rank]+e.From.Seq]
		to := s.prev[g.base[e.To.Rank]+e.To.Seq]
		s.succAdj[scur[from]] = to
		scur[from]++
		s.predAdj[pcur[to]] = from
		pcur[to]++
	}

	s.computeLevels()
}

// poSucc returns the program-order successor of skeleton node v, or -1 at
// the end of its rank.
func (s *skeleton) poSucc(v int32) int32 {
	if v+1 < s.base[s.rankOf[v]+1] {
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
	for _, w := range s.succAdj[s.succOff[v]:s.succOff[v+1]] {
		visit(w)
	}
}

// computeLevels runs a level-synchronized Kahn pass: level l holds the nodes
// whose longest incoming path has length l. Any cycle in po ∪ so involves at
// least two sync edges, so all its nodes are skeleton nodes and the cycle
// surfaces here as an incomplete order.
func (s *skeleton) computeLevels() {
	indeg := make([]int32, s.n)
	for v := int32(0); v < int32(s.n); v++ {
		if v > s.base[s.rankOf[v]] {
			indeg[v]++ // po predecessor v-1
		}
		indeg[v] += s.predOff[v+1] - s.predOff[v]
	}
	s.levelOrder = make([]int32, 0, s.n)
	s.levelOff = append(s.levelOff[:0], 0)
	frontier := make([]int32, 0, s.nranks)
	for v := int32(0); v < int32(s.n); v++ {
		if indeg[v] == 0 {
			frontier = append(frontier, v)
		}
	}
	var next []int32
	for len(frontier) > 0 {
		s.levelOrder = append(s.levelOrder, frontier...)
		s.levelOff = append(s.levelOff, int32(len(s.levelOrder)))
		if len(frontier) > s.maxWidth {
			s.maxWidth = len(frontier)
		}
		next = next[:0]
		for _, v := range frontier {
			s.forEachSkelSucc(v, func(w int32) {
				indeg[w]--
				if indeg[w] == 0 {
					next = append(next, w)
				}
			})
		}
		frontier, next = next, frontier
	}
	if len(s.levelOrder) != s.n {
		s.cycleErr = fmt.Errorf("hbgraph: po ∪ so contains a cycle (%d of %d skeleton nodes ordered)",
			len(s.levelOrder), s.n)
		s.levelOrder = s.levelOrder[:0]
		s.levelOff = s.levelOff[:1]
		s.maxWidth = 0
	}
}

// skelPrev returns the skeleton id governing ref on the program-order fringe
// before it: the last skeleton record at-or-before ref on its rank. Caller
// guarantees ref is in range.
func (g *Graph) skelPrev(ref trace.Ref) int32 {
	return g.skel.prev[g.base[ref.Rank]+ref.Seq]
}

// skelNext returns the first skeleton record at-or-after ref on its rank.
// Caller guarantees ref is in range; the last-record sentinel guarantees
// existence.
func (g *Graph) skelNext(ref trace.Ref) int32 {
	p := g.skelPrev(ref)
	if int(g.skel.seqs[p]) == ref.Seq {
		return p
	}
	return p + 1
}
