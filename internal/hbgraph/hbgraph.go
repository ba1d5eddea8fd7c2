// Package hbgraph builds the happens-before graph (Def. 3) of an execution —
// the transitive closure of program order and synchronization order — and
// answers reachability (hb) queries with the four algorithms of §IV-D:
//
//  1. Vector clocks: a topological sort propagates one clock entry per rank
//     through the graph; queries are O(1) afterwards (VCOracle).
//  2. Graph reachability: one breadth-first search per query (BFSOracle).
//  3. Transitive closure: reverse-topological bitset union; O(1) queries
//     (SegOracle).
//  4. On-the-fly: answers queries directly from the matched synchronization
//     edges without building the graph (OTFOracle).
//
// Production runs use 3, falling back to 1 when the closure exceeds its byte
// budget; 2 and 4 are plain references for the ablation and the tests.
//
// Nodes are trace records, identified by (rank, seq). Program-order edges
// are implicit: record (r, k) always precedes (r, k+1). Synchronization
// edges come from the MPI matcher.
//
// The graph-based oracles do not operate on all V records: clocks and
// bitsets only change at synchronization endpoints, so they are computed on
// the sync skeleton (see skeleton.go) — the records that are endpoints of
// sync edges plus per-rank first/last sentinels. Queries on arbitrary refs
// map through the skeleton index and return exactly the full-graph answers.
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

	edgeCount int

	skel skeleton // sync skeleton; built once in Build
}

// Build constructs the graph for tr with the matcher's synchronization
// edges. Edges referencing records outside the trace are rejected.
func Build(tr *trace.Trace, edges []match.Edge) (*Graph, error) {
	return BuildCounts(rankCounts(tr), edges)
}

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
// trace exists. Edges referencing records outside the counts are rejected.
func BuildCounts(counts []int, edges []match.Edge) (*Graph, error) {
	g := &Graph{
		counts:    make([]int, len(counts)),
		base:      make([]int, len(counts)+1),
		edgeCount: len(edges),
	}
	for rank, n := range counts {
		g.counts[rank] = n
		g.base[rank+1] = g.base[rank] + n
	}
	g.n = g.base[len(g.counts)]
	for _, e := range edges {
		if !g.inRange(e.From) || !g.inRange(e.To) {
			return nil, fmt.Errorf("hbgraph: edge %v→%v references records outside the trace", e.From, e.To)
		}
	}
	g.buildSkeleton(edges)
	return g, nil
}

// Nodes returns the number of nodes.
func (g *Graph) Nodes() int { return g.n }

// SyncEdges returns the number of synchronization edges.
func (g *Graph) SyncEdges() int { return g.edgeCount }

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

// inRange reports whether ref names a record of the trace. All oracles share
// this bounds check; queries outside the trace are never hb-related.
func (g *Graph) inRange(ref trace.Ref) bool {
	return ref.Rank >= 0 && ref.Rank < len(g.counts) &&
		ref.Seq >= 0 && ref.Seq < g.counts[ref.Rank]
}

// Oracle answers happens-before queries. HB(a, b) reports whether a
// happens-before b (strictly: a ≠ b and there is a path a → b).
//
// Implementations must be safe for concurrent HB calls once constructed —
// the parallel verifier shares one oracle across all its workers and model
// passes.
type Oracle interface {
	HB(a, b trace.Ref) bool
	Name() string
}

// sameRankHB answers the trivial program-order case; returns handled=false
// for cross-rank queries.
func sameRankHB(a, b trace.Ref) (result, handled bool) {
	if a.Rank == b.Rank {
		return a.Seq < b.Seq, true
	}
	return false, false
}
