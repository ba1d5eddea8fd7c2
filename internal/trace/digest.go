package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
)

// Content digests over trace records. The incremental verification cache
// (internal/vcache) identifies the reusable prefix of a re-recorded trace by
// comparing chained per-block record digests: block k's digest seeds with
// block k-1's, so two traces share a chain prefix exactly when they share
// the corresponding record prefix. The encoding below is the canonical
// record serialization those digests commit to; vcache.CodeVersion salts
// every cache key with the encoding generation, so changing this encoding
// requires bumping that constant or stale chains would alias.

// DigestBlock is the number of records one chain block covers. Smaller
// blocks localize a trace change more precisely (fewer falsely-dirty
// records ahead of the true divergence point) at the cost of a longer
// manifest; 64 keeps the manifest under a kilobyte per 2k records.
const DigestBlock = 64

// AppendRecordKey appends a canonical, self-delimiting binary encoding of
// the record to buf and returns the extended slice. Rank and Seq are
// deliberately excluded: they are positional (the chain index encodes them),
// and excluding them keeps the encoding reusable for positional and
// content-addressed digests alike.
func AppendRecordKey(buf []byte, rec *Record) []byte {
	buf = appendString(buf, rec.Func)
	buf = append(buf, byte(rec.Layer))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(rec.Depth))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rec.Args)))
	for _, a := range rec.Args {
		buf = appendString(buf, a)
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(rec.Tick))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(rec.Ret))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rec.Chain)))
	for _, f := range rec.Chain {
		buf = appendString(buf, f)
	}
	buf = appendString(buf, rec.Site)
	return buf
}

func appendString(buf []byte, s string) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
	return append(buf, s...)
}

// ChainBuilder digests one rank's records into chained blocks, one record
// batch at a time, in the pass that feeds the analysis: block k covers
// records [k*DigestBlock, min((k+1)*DigestBlock, n)) and its digest is
// H(prev-block digest ‖ canonical records of block k). Equal chain prefixes
// therefore certify byte-equal record prefixes, which is what lets the
// verdict cache trust an old verdict for work entirely below the first
// diverging block. The chain depends on the records alone, not on how they
// were batched. The zero value is ready to use.
type ChainBuilder struct {
	chain [][sha256.Size]byte
	prev  [sha256.Size]byte
	h     hash.Hash // open block; nil exactly when at a block boundary
	n     int       // records in the open block
	buf   []byte
}

// Add feeds the next records of the rank into the chain.
func (b *ChainBuilder) Add(recs []Record) {
	for i := range recs {
		if b.h == nil {
			b.h = sha256.New()
			b.h.Write(b.prev[:])
		}
		b.buf = AppendRecordKey(b.buf[:0], &recs[i])
		b.h.Write(b.buf)
		b.n++
		if b.n == DigestBlock {
			b.h.Sum(b.prev[:0])
			b.chain = append(b.chain, b.prev)
			b.h, b.n = nil, 0
		}
	}
}

// Chain returns the block chain of everything added so far, sealing a
// partial final block without disturbing the builder: Add may continue
// afterwards (a later Chain call re-seals the then-current partial block).
func (b *ChainBuilder) Chain() [][sha256.Size]byte {
	out := make([][sha256.Size]byte, len(b.chain), len(b.chain)+1)
	copy(out, b.chain)
	if b.n > 0 {
		var d [sha256.Size]byte
		b.h.Sum(d[:0]) // Sum appends without consuming the running state
		out = append(out, d)
	}
	return out
}
