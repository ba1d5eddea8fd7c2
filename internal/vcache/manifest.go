package vcache

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"hash/crc32"
	"os"
)

// The incremental manifest records what a past verification run looked like,
// in just enough detail to map a changed trace onto the minimal set of dirty
// chunks. The mapping works in two steps:
//
//  1. Per-rank stable prefixes. Each rank's records are digested into
//     chained blocks (trace.ChainBuilder); the common chain prefix between the
//     manifest and the new run certifies a byte-identical record prefix, and
//     the initial cut is that prefix length.
//
//  2. Edge closure. Happens-before must agree on the stable region, so the
//     cuts shrink until the region is closed under synchronization edges:
//     any edge present in only one of the two runs is expelled entirely
//     (both endpoints at or above the cuts), and no surviving edge may
//     straddle a cut. Within the closed region, program order and every sync
//     edge — hence every HB query and every MSC instance the verifier can
//     find — are identical across the two runs, so a chunk whose ops all lie
//     below the cuts may reuse its old-epoch verdict.
//
// One hazard remains: file identity. Canonical fids distinguish same-path
// generations separated by unlinks, and a rank's unlink total shifts the
// generation numbering seen by every later rank (conflict.mergeShards
// accumulates them). An unlink outside the stable region can therefore
// change sync-point cohorts for ops inside it without changing a single
// digested byte. UnlinkSafe guards the promotion: it requires every unlink
// of both runs to lie inside the stable region, which the caller proves by
// counting below-cut unlinks in the new trace.

// Edge is a synchronization-order edge by record identity. The matcher's
// join nodes never reach the manifest: the verifier records each as a star
// over its record endpoints, which connects what the join connects — all the
// closure below asks of an edge. Edges are kept sorted by (from, to).
type Edge struct {
	FromRank, FromSeq int32
	ToRank, ToSeq     int32
}

// RankManifest describes one rank of the recorded run.
type RankManifest struct {
	// Records is the rank's record count.
	Records int
	// Unlinks is the rank's total unlink count (fid-generation bumps).
	Unlinks int
	// Blocks is the chained block digest sequence (trace.ChainBuilder).
	Blocks []Digest
}

// Manifest is the persisted incremental state for one logical trace.
type Manifest struct {
	// CodeVersion pins the digest encodings the manifest was written with.
	CodeVersion string
	// Epoch is the sync-epoch digest of the recorded run — the epoch under
	// which its chunk verdicts were sealed.
	Epoch Digest
	// Skeleton is the recorded run's sync-skeleton digest (diagnostic: it
	// identifies the HB build artifact the verdicts were computed against).
	Skeleton Digest
	Ranks    []RankManifest
	Edges    []Edge
}

// DigestBlock mirrors trace.DigestBlock (vcache must not import the trace
// layer); the cache session asserts the two agree.
const DigestBlock = 64

// Cuts maps the recorded run onto a new run and returns per-rank record
// cuts delimiting the stable region: records [0, cuts[r]) of rank r are
// byte-identical in both runs and the region is closed under the sync edges
// of both. Returns nil when no region can be certified (rank count or code
// version mismatch).
func (m *Manifest) Cuts(ranks []RankManifest, edges []Edge) []int {
	if m.CodeVersion != CodeVersion || len(ranks) != len(m.Ranks) {
		return nil
	}
	nranks := len(ranks)
	cuts := make([]int, nranks)
	for r := range ranks {
		old, cur := &m.Ranks[r], &ranks[r]
		// Compare chains over full blocks only: a final partial block
		// digests a different record range at different lengths, so it is
		// only conclusive when both runs agree on everything.
		limit := min(len(old.Blocks), len(cur.Blocks))
		full := min(old.Records/DigestBlock, cur.Records/DigestBlock)
		if full < limit {
			limit = full
		}
		p := 0
		for p < limit && old.Blocks[p] == cur.Blocks[p] {
			p++
		}
		cuts[r] = p * DigestBlock
		if old.Records == cur.Records && len(old.Blocks) == len(cur.Blocks) {
			if p == full && chainTailEqual(old.Blocks, cur.Blocks, p) {
				cuts[r] = cur.Records // identical rank
			}
		}
	}
	// Edge closure: expel differing edges, then forbid straddling, to a
	// fixpoint (cuts only decrease, so termination is immediate).
	lower := func(rank, seq int32) bool {
		if rank < 0 || int(rank) >= nranks {
			return false
		}
		if int(seq) < cuts[rank] {
			if seq < 0 {
				seq = 0
			}
			cuts[rank] = int(seq)
			return true
		}
		return false
	}
	diff := edgeDiff(m.Edges, edges)
	for {
		changed := false
		for _, e := range diff {
			changed = lower(e.FromRank, e.FromSeq) || changed
			changed = lower(e.ToRank, e.ToSeq) || changed
		}
		for _, set := range [2][]Edge{m.Edges, edges} {
			for _, e := range set {
				fIn := inRegion(cuts, e.FromRank, e.FromSeq)
				tIn := inRegion(cuts, e.ToRank, e.ToSeq)
				if fIn != tIn {
					if fIn {
						changed = lower(e.FromRank, e.FromSeq) || changed
					} else {
						changed = lower(e.ToRank, e.ToSeq) || changed
					}
				}
			}
		}
		if !changed {
			return cuts
		}
	}
}

func inRegion(cuts []int, rank, seq int32) bool {
	return rank >= 0 && int(rank) < len(cuts) && seq >= 0 && int(seq) < cuts[rank]
}

func chainTailEqual(a, b []Digest, from int) bool {
	for i := from; i < len(a); i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// edgeDiff returns the symmetric difference of the two edge multisets by a
// linear merge: both lists are sorted by (from, to), as the verifier writes
// them. Lists that are not — a damaged manifest — only make it report more,
// which lowers cuts: the safe direction.
func edgeDiff(a, b []Edge) []Edge {
	var out []Edge
	for len(a) > 0 && len(b) > 0 {
		switch c := compareEdges(a[0], b[0]); {
		case c < 0:
			out, a = append(out, a[0]), a[1:]
		case c > 0:
			out, b = append(out, b[0]), b[1:]
		default:
			a, b = a[1:], b[1:]
		}
	}
	return append(append(out, a...), b...)
}

func compareEdges(a, b Edge) int {
	return cmp.Or(cmp.Compare(a.FromRank, b.FromRank), cmp.Compare(a.FromSeq, b.FromSeq),
		cmp.Compare(a.ToRank, b.ToRank), cmp.Compare(a.ToSeq, b.ToSeq))
}

// UnlinkSafe reports whether fid generations are provably identical across
// the stable region: every unlink of the recorded run and of the new run
// must lie below the cuts. newBelowCut[r] counts the new trace's unlinks at
// seq < cuts[r] (which, records being identical there, equals the old run's
// below-cut count); newTotal is the new run's per-rank totals.
func (m *Manifest) UnlinkSafe(cuts []int, newBelowCut, newTotal []int) bool {
	if len(cuts) != len(m.Ranks) || len(newBelowCut) != len(m.Ranks) || len(newTotal) != len(m.Ranks) {
		return false
	}
	for r := range m.Ranks {
		if m.Ranks[r].Unlinks != newBelowCut[r] || newTotal[r] != newBelowCut[r] {
			return false
		}
	}
	return true
}

func (m *Manifest) equal(o *Manifest) bool {
	if m.CodeVersion != o.CodeVersion || m.Epoch != o.Epoch || m.Skeleton != o.Skeleton ||
		len(m.Ranks) != len(o.Ranks) || len(m.Edges) != len(o.Edges) {
		return false
	}
	for i := range m.Ranks {
		a, b := &m.Ranks[i], &o.Ranks[i]
		if a.Records != b.Records || a.Unlinks != b.Unlinks || len(a.Blocks) != len(b.Blocks) {
			return false
		}
		for j := range a.Blocks {
			if a.Blocks[j] != b.Blocks[j] {
				return false
			}
		}
	}
	for i := range m.Edges {
		if m.Edges[i] != o.Edges[i] {
			return false
		}
	}
	return true
}

var manifestMagic = [5]byte{'V', 'I', 'O', 'M', 1}

func (m *Manifest) encode(buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.CodeVersion)))
	buf = append(buf, m.CodeVersion...)
	buf = append(buf, m.Epoch[:]...)
	buf = append(buf, m.Skeleton[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.Ranks)))
	for i := range m.Ranks {
		r := &m.Ranks[i]
		buf = binary.LittleEndian.AppendUint32(buf, uint32(r.Records))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(r.Unlinks))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Blocks)))
		for _, d := range r.Blocks {
			buf = append(buf, d[:]...)
		}
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.Edges)))
	for _, e := range m.Edges {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.FromRank))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.FromSeq))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.ToRank))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.ToSeq))
	}
	return buf
}

// decodeManifest parses a manifest payload; every length is bounds-checked
// against the remaining input before allocation.
func decodeManifest(p []byte) (*Manifest, bool) {
	m := &Manifest{}
	cv, p, ok := decodeString(p)
	if !ok {
		return nil, false
	}
	m.CodeVersion = cv
	if len(p) < 2*sha256.Size+4 {
		return nil, false
	}
	copy(m.Epoch[:], p[:sha256.Size])
	copy(m.Skeleton[:], p[sha256.Size:2*sha256.Size])
	p = p[2*sha256.Size:]
	nranks := binary.LittleEndian.Uint32(p)
	p = p[4:]
	if nranks > 1<<20 {
		return nil, false
	}
	m.Ranks = make([]RankManifest, nranks)
	for i := range m.Ranks {
		if len(p) < 12 {
			return nil, false
		}
		m.Ranks[i].Records = int(int32(binary.LittleEndian.Uint32(p[0:4])))
		m.Ranks[i].Unlinks = int(int32(binary.LittleEndian.Uint32(p[4:8])))
		nblocks := binary.LittleEndian.Uint32(p[8:12])
		p = p[12:]
		if m.Ranks[i].Records < 0 || m.Ranks[i].Unlinks < 0 {
			return nil, false
		}
		if int64(nblocks)*sha256.Size > int64(len(p)) {
			return nil, false
		}
		m.Ranks[i].Blocks = make([]Digest, nblocks)
		for j := range m.Ranks[i].Blocks {
			copy(m.Ranks[i].Blocks[j][:], p[:sha256.Size])
			p = p[sha256.Size:]
		}
	}
	if len(p) < 4 {
		return nil, false
	}
	nedges := binary.LittleEndian.Uint32(p)
	p = p[4:]
	if int64(nedges)*16 != int64(len(p)) {
		return nil, false
	}
	m.Edges = make([]Edge, nedges)
	for i := range m.Edges {
		m.Edges[i] = Edge{
			FromRank: int32(binary.LittleEndian.Uint32(p[0:4])),
			FromSeq:  int32(binary.LittleEndian.Uint32(p[4:8])),
			ToRank:   int32(binary.LittleEndian.Uint32(p[8:12])),
			ToSeq:    int32(binary.LittleEndian.Uint32(p[12:16])),
		}
		p = p[16:]
	}
	return m, true
}

func decodeString(p []byte) (string, []byte, bool) {
	if len(p) < 4 {
		return "", nil, false
	}
	n := binary.LittleEndian.Uint32(p)
	p = p[4:]
	if n > 1<<16 || int(n) > len(p) {
		return "", nil, false
	}
	return string(p[:n]), p[n:], true
}

// loadManifest reads and validates a manifest file; any malformed content
// yields nil (recompute) rather than an error.
func loadManifest(path string) *Manifest {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	if len(data) < len(manifestMagic) || [5]byte(data[:5]) != manifestMagic {
		return nil
	}
	data = data[len(manifestMagic):]
	if len(data) < 8 {
		return nil
	}
	length := binary.LittleEndian.Uint32(data[0:4])
	sum := binary.LittleEndian.Uint32(data[4:8])
	data = data[8:]
	if int64(length) != int64(len(data)) || length > frameMaxLen {
		return nil
	}
	if crc32.ChecksumIEEE(data) != sum {
		return nil
	}
	m, ok := decodeManifest(data)
	if !ok {
		return nil
	}
	return m
}
