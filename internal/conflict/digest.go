package conflict

import "encoding/binary"

// AppendGroupKey appends a canonical binary encoding of group gi to buf and
// returns the extended slice. The encoding names everything a group's
// verification verdict can depend on at the conflict layer:
//
//   - the conflicting file, both by path (content identity) and by fid
//     (generation identity — two same-path fids separated by an unlink are
//     distinct files, and their sync-point cohorts differ);
//   - every contributing op — X first, then the ys in CSR order, i.e. the
//     partners after X, which are the pairs the group's verdict covers — as
//     (rank, seq, write, [start, end)).
//
// Op arena indices deliberately do not appear: they shift when the trace
// grows, while refs and extents of an untouched group do not, which is what
// keeps a chunk digest stable across a suffix append. The encoding is a pure
// function of the Result content, so it is identical at every detector
// worker count.
func (r *Result) AppendGroupKey(buf []byte, gi int) []byte {
	g := &r.Groups[gi]
	x := &r.Ops[g.X]
	path := r.PathOf(x.FID)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(path)))
	buf = append(buf, path...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(x.FID))
	buf = appendOpKey(buf, x)
	ys := g.Ys()
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ys)))
	for _, yi := range ys {
		buf = appendOpKey(buf, &r.Ops[yi])
	}
	return buf
}

func appendOpKey(buf []byte, op *Op) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(op.Ref.Rank))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(op.Ref.Seq))
	w := byte(0)
	if op.Write {
		w = 1
	}
	buf = append(buf, w)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(op.Start))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(op.End))
	return buf
}
