// Package hbgraph builds the happens-before graph (Def. 3) of an execution —
// the transitive closure of program order and synchronization order — and
// answers reachability (hb) queries with the four algorithms of §IV-D:
//
//  1. Vector clocks: a topological sort propagates one clock entry per rank
//     through the graph; queries are O(1) afterwards (VCOracle).
//  2. Graph reachability: one breadth-first search per query (BFSOracle).
//  3. Transitive closure: reverse-topological bitset union; O(1) queries
//     (SegOracle).
//  4. On-the-fly: one frontier fixpoint over the matched synchronization
//     edges per query, with no state derived from the graph (OTFOracle).
//
// Production runs use 1; 2, 3 and 4 are references for the ablation and the
// tests.
//
// Nodes are trace records, identified by (rank, seq). Program-order edges
// are implicit: record (r, k) always precedes (r, k+1). Synchronization
// edges come from the MPI matcher, which stores a barrier-like collective as
// a join node (a virtual endpoint with Rank == -1, see internal/match) —
// O(P) edges standing for O(P²) ordered pairs.
//
// The graph-based oracles do not operate on all V records: clocks and
// bitsets only change at synchronization endpoints, so they are computed on
// the sync skeleton (see skeleton.go) — the records that are endpoints of
// sync edges plus per-rank first/last sentinels. Every query goes through a
// Coord (Graph.Resolve) and returns exactly the full-graph answer; Graph.HB
// is the one ref-level query.
package hbgraph

import (
	"fmt"

	"verifyio/internal/match"
	"verifyio/internal/trace"
)

// Graph is the happens-before graph: the positional node space (per-rank
// record counts) plus the sync skeleton every graph-based oracle computes on.
type Graph struct {
	counts []int // records per rank
	base   []int // node-id offset per rank (prefix sums)
	n      int   // total nodes

	syncPairs int // sync-order pairs the edge list stands for, joins expanded

	skel skeleton // sync skeleton; built once in BuildCounts
}

// joinRank marks an edge endpoint as a join node (match's encoding of a
// barrier-like collective) rather than a record.
const joinRank = -1

// rankCounts returns the per-rank record counts of a materialized trace.
func rankCounts(tr *trace.Trace) []int {
	counts := make([]int, tr.NumRanks())
	for rank, recs := range tr.Ranks {
		counts[rank] = len(recs)
	}
	return counts
}

// BuildCounts constructs the graph from per-rank record counts alone — the
// graph's node space is positional, so the record contents are never needed.
// This is the entry point for streaming ingestion, where no materialized
// trace exists. Edges referencing records outside the counts are rejected,
// and so are malformed join nodes: their Seq must be dense from 0, each needs
// at least one edge in and one out, and no edge may connect two joins.
func BuildCounts(counts []int, edges []match.Edge) (*Graph, error) {
	g := &Graph{
		counts: make([]int, len(counts)),
		base:   make([]int, len(counts)+1),
	}
	for rank, n := range counts {
		g.counts[rank] = n
		g.base[rank+1] = g.base[rank] + n
	}
	g.n = g.base[len(g.counts)]
	joins := 0
	for _, e := range edges {
		for _, ref := range [2]trace.Ref{e.From, e.To} {
			if ref.Rank != joinRank {
				if !g.inRange(ref) {
					return nil, fmt.Errorf("hbgraph: edge %v→%v references records outside the trace", e.From, e.To)
				}
				continue
			}
			// A dense numbering leaves every join at least two edges, which
			// bounds Seq before anything is sized by it.
			if ref.Seq < 0 || ref.Seq >= len(edges)/2 {
				return nil, fmt.Errorf("hbgraph: edge %v→%v: join nodes are not numbered densely", e.From, e.To)
			}
			joins = max(joins, ref.Seq+1)
		}
		if e.From.Rank == joinRank && e.To.Rank == joinRank {
			return nil, fmt.Errorf("hbgraph: edge %v→%v connects two join nodes", e.From, e.To)
		}
	}
	if err := g.buildSkeleton(edges, joins); err != nil {
		return nil, err
	}
	return g, nil
}

// Nodes returns the number of nodes.
func (g *Graph) Nodes() int { return g.n }

// SyncEdges returns the number of synchronization-order pairs the edge list
// stands for: every plain edge, plus for every join node its source × target
// pairs on different ranks (what match.Pairwise would list, counted without
// listing it). A prefix collective (MPI_Scan/MPI_Exscan) is stored as a chain
// of plain edges, so it counts its P-1 links, not the P(P-1)/2 pairs of its
// closure.
func (g *Graph) SyncEdges() int { return g.syncPairs }

// SkeletonNodes returns the size S of the sync skeleton the graph-based
// oracles operate on (sync-edge endpoints plus per-rank sentinels).
func (g *Graph) SkeletonNodes() int { return g.skel.n }

// SkeletonLevels returns the number of topological levels in the skeleton's
// Kahn wavefront schedule (0 for an empty or cyclic skeleton).
func (g *Graph) SkeletonLevels() int {
	if g.skel.cycleErr != nil {
		return 0
	}
	return len(g.skel.levelOff) - 1
}

// SkeletonMaxLevelWidth returns the widest wavefront level — the available
// parallelism of the level-synchronized vector-clock pass. It is bounded by
// the rank count: skeleton nodes on one rank are chained by program order,
// so each level holds at most one node per rank.
func (g *Graph) SkeletonMaxLevelWidth() int { return g.skel.maxWidth }

// inRange reports whether ref names a record of the trace; queries outside
// the trace are never hb-related.
func (g *Graph) inRange(ref trace.Ref) bool {
	return ref.Rank >= 0 && ref.Rank < len(g.counts) &&
		ref.Seq >= 0 && ref.Seq < g.counts[ref.Rank]
}

// Coord is a query operand resolved onto the graph (Graph.Resolve): the
// record's identity plus its skeleton fringe — Prev, the last skeleton node
// at-or-before it on its rank, and Next, the first at-or-after.
type Coord struct {
	Rank, Seq  int32
	Prev, Next int32
}

// Resolve maps an in-range ref onto its Coord. The per-rank sentinels
// guarantee that both fringe nodes exist.
func (g *Graph) Resolve(ref trace.Ref) Coord {
	c := Coord{Rank: int32(ref.Rank), Seq: int32(ref.Seq)}
	c.Prev = g.skel.prev[g.base[ref.Rank]+ref.Seq]
	c.Next = c.Prev
	if int(g.skel.seqs[c.Prev]) != ref.Seq {
		c.Next++
	}
	return c
}

// Oracle answers happens-before queries over resolved operands: Probe(a, b)
// reports whether a happens-before b, for a.Rank ≠ b.Rank and both resolved
// by the graph the oracle was built on. Same-rank queries are program order
// and never reach an oracle (see Graph.HB).
//
// Implementations must be safe for concurrent Probe calls once constructed —
// the parallel verifier shares one oracle across all its workers and model
// passes.
type Oracle interface {
	Probe(a, b Coord) bool
	Name() string
}

// HB reports whether a happens-before b under o (strictly: a ≠ b and there
// is a path a → b): program order on one rank, never for a ref outside the
// trace, and otherwise one Probe of the resolved operands.
func (g *Graph) HB(o Oracle, a, b trace.Ref) bool {
	if a.Rank == b.Rank {
		return a.Seq < b.Seq
	}
	if !g.inRange(a) || !g.inRange(b) {
		return false
	}
	return o.Probe(g.Resolve(a), g.Resolve(b))
}
