package hbgraph

import "fmt"

// Segment-reachability oracle: the dense S×S transitive closure of the sync
// skeleton, probed in O(1). Every record belongs to a program-order segment
// delimited by two skeleton nodes (its prev/next fringe, see skeleton.go),
// and a cross-rank HB query is exactly one bit of the segment×segment
// reachability matrix: a hb b ⇔ bit(next(a), prev(b)).
//
// This is the transitive closure of §IV-D3, kept as a reference oracle for
// the equivalence tests and the ablation benchmark; production runs on
// vector clocks. It is built serially, in one reverse topological sweep.

// segReachBudget bounds the S²-bit reachability matrix (64 MiB ≈ 23k
// skeleton nodes); SegReachability refuses larger skeletons.
const segReachBudget = 64 << 20

// SegOptions configures segment-reachability construction.
type SegOptions struct {
	// Workers is ignored: the reference closure is always built serially.
	// The field stays only while benchmark/traced.go still sets it.
	Workers int
}

// SegOracle answers hb queries from the precomputed segment×segment
// reachability matrix — one AND and one compare per cross-rank query.
type SegOracle struct {
	words int
	bits  []uint64 // S * words
}

// SegReachability materializes the skeleton's segment-reachability matrix.
// It refuses graphs whose matrix would exceed segReachBudget.
func (g *Graph) SegReachability(SegOptions) (*SegOracle, error) {
	s := &g.skel
	if s.cycleErr != nil {
		return nil, s.cycleErr
	}
	words := (s.n + 63) / 64
	if size := s.n * words * 8; size > segReachBudget {
		return nil, fmt.Errorf("hbgraph: segment reachability over %d skeleton nodes needs %d bytes, over the %d-byte budget",
			s.n, size, segReachBudget)
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
	// levelOrder is a topological order (every successor — po and sync —
	// sits in a strictly later level), so walking it back to front finds
	// every successor row final. The joins that fire after level l go
	// first: their targets lie behind, their sources in level ≤ l.
	for l := len(s.levelOff) - 2; l >= 0; l-- {
		for _, j := range s.joinsAfter(l) {
			fill(j)
		}
		for _, v := range s.levelOrder[s.levelOff[l]:s.levelOff[l+1]] {
			fill(v)
		}
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
