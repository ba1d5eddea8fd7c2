package hbgraph

import (
	"fmt"

	"verifyio/internal/obs"
	"verifyio/internal/par"
)

// Segment-reachability oracle: the dense S×S transitive closure of the sync
// skeleton, probed in O(1). Every record belongs to a program-order segment
// delimited by two skeleton nodes (its prev/next fringe, see skeleton.go),
// and a cross-rank HB query is exactly one bit of the segment×segment
// reachability matrix: a hb b ⇔ bit(next(a), prev(b)). On sync-sparse
// traces S ≪ V, so the whole matrix is a few kilobytes — cheap enough to
// precompute once and share across every model pass and verification chunk.
//
// This is the transitive closure of §IV-D3, and the only S×S bitset builder
// in the package. It is bounded by an explicit byte budget and its rows are
// filled level-parallel: the reverse wavefront processes one topological
// level at a time, and within a level no node's row depends on another's
// (every skeleton edge goes to a strictly later level), so the rows fill
// concurrently via internal/par.

// DefaultSegReachBudget bounds the S²-bit reachability matrix (64 MiB ≈ 23k
// skeleton nodes). Callers over budget fall back to the vector-clock oracle.
const DefaultSegReachBudget = 64 << 20

// segMinParallelWidth is the level width below which the wavefront stays on
// the calling goroutine (a level holds at most one node per rank, so narrow
// levels never amortize the handoff) — same threshold as the vector-clock
// wavefront.
const segMinParallelWidth = 8

// SegOptions configures segment-reachability construction.
type SegOptions struct {
	// Workers bounds the wavefront parallelism; 0 means GOMAXPROCS, 1 forces
	// the serial path. The matrix is identical at every worker count: rows
	// within a level are independent, and bitwise OR is order-independent.
	Workers int
	// ByteBudget caps the closure matrix; 0 means DefaultSegReachBudget,
	// negative disables the cap. Construction fails (and the caller falls
	// back to another oracle) when S²/8 bytes exceed the budget.
	ByteBudget int
	// Obs carries telemetry: pool stats for the wavefront
	// ("par.seg-wavefront.*") and the hbgraph.segreach_bytes gauge.
	Obs obs.Ctx
}

// SegOracle answers hb queries from the precomputed segment×segment
// reachability matrix — one AND and one compare per cross-rank query.
type SegOracle struct {
	words int
	bits  []uint64 // S * words
}

// SegReachability materializes the skeleton's segment-reachability matrix.
// It refuses graphs whose matrix would exceed the byte budget; callers fall
// back to another oracle (the dynamic selection of §VII).
func (g *Graph) SegReachability(opts SegOptions) (*SegOracle, error) {
	s := &g.skel
	if s.cycleErr != nil {
		return nil, s.cycleErr
	}
	budget := opts.ByteBudget
	if budget == 0 {
		budget = DefaultSegReachBudget
	}
	words := (s.n + 63) / 64
	size := s.n * words * 8
	if budget > 0 && size > budget {
		return nil, fmt.Errorf("hbgraph: segment reachability over %d skeleton nodes needs %d bytes, over the %d-byte budget",
			s.n, size, budget)
	}
	bits := make([]uint64, s.n*words)
	// Join rows are scratch, like join clocks: sources read them one level
	// earlier, no probe ever does, and keeping them out of the matrix keeps
	// it S×S (a join per barrier is one id per P records — squared, that
	// would be a 1.6–2.2× matrix at 2–4 ranks).
	joinBits := make([]uint64, s.joins*words)
	row := func(v int32) []uint64 {
		if int(v) < s.n {
			return bits[int(v)*words : (int(v)+1)*words]
		}
		j := int(v) - s.n
		return joinBits[j*words : (j+1)*words]
	}
	// fill computes v's row from its successors' rows, all final by the
	// time v's turn comes. Columns are record nodes only.
	fill := func(v int32) {
		r := row(v)
		s.forEachSkelSucc(v, func(sc int32) {
			if int(sc) < s.n {
				r[sc/64] |= 1 << (uint(sc) % 64)
			}
			for w, b := range row(sc) {
				r[w] |= b
			}
		})
	}
	// Reverse level-synchronized wavefront: levelOrder is a topological order
	// (every successor — po and sync — sits in a strictly later level), so
	// walking levels back to front guarantees every successor row is final,
	// and the rows within one level share no data. The joins that fire after
	// level l go first: their targets lie behind, their sources in level ≤ l.
	// One closure is reused across levels; levels run strictly in sequence.
	var nodes []int32
	step := func(i int) { fill(nodes[i]) }
	workers := par.Resolve(opts.Workers)
	for l := len(s.levelOff) - 2; l >= 0; l-- {
		for _, j := range s.joinsAfter(l) {
			fill(j)
		}
		nodes = s.levelOrder[s.levelOff[l]:s.levelOff[l+1]]
		if workers > 1 && len(nodes) >= segMinParallelWidth {
			par.DoObs(opts.Obs, "seg-wavefront", workers, len(nodes), step)
		} else {
			for i := range nodes {
				step(i)
			}
		}
	}
	if r := opts.Obs.R; r != nil {
		r.Gauge("hbgraph.segreach_bytes").Set(int64(8 * len(bits)))
	}
	return &SegOracle{words: words, bits: bits}, nil
}

// Probe answers a cross-rank query in one bit probe.
func (o *SegOracle) Probe(a, b Coord) bool {
	return o.bits[int(a.Next)*o.words+int(b.Prev)/64]&(1<<(uint(b.Prev)%64)) != 0
}

// Name identifies the algorithm.
func (o *SegOracle) Name() string { return "segment" }

// ArenaBytes returns the size of the reachability matrix — S²/8 bytes.
func (o *SegOracle) ArenaBytes() int { return 8 * len(o.bits) }
