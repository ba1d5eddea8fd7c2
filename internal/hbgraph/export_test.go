package hbgraph

// SkeletonMembers exposes the skeleton's membership to the external tests:
// rank r's members are seqs[base[r]:base[r+1]], and rankOf names each one's
// rank.
func SkeletonMembers(g *Graph) (base, seqs, rankOf []int32) {
	return g.skel.base, g.skel.seqs, g.skel.rankOf
}

// Clocks exposes the oracle's clock arena, row by skeleton id.
func Clocks(o *VCOracle) []int32 { return o.clocks }
