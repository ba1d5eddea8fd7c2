package conflict

import (
	"hash/maphash"
	"slices"
	"strings"

	"verifyio/internal/trace"
)

// Sig is the call signature of a data operation: everything a race report
// says about the call besides its byte range — the function, its layer and
// call site, and the chain of enclosing calls (outermost first). A trace
// repeats a handful of signatures, so the detector keeps each once
// (Result.Sigs) and four bytes per operation (Result.OpSig); the verifier
// never needs the records again.
type Sig struct {
	Func  string
	Layer trace.Layer
	Site  string
	Chain []string
}

func (s *Sig) equal(o *Sig) bool {
	return s.Layer == o.Layer && s.Func == o.Func && s.Site == o.Site && slices.Equal(s.Chain, o.Chain)
}

// sigTable interns signatures in first-use order. A hit allocates nothing:
// the previous hit is compared first (runs of one call are the common case),
// then a hash of the strings finds the candidates.
type sigTable struct {
	sigs []Sig
	seed maphash.Seed
	head map[uint64]int32 // hash -> latest signature with that hash
	next []int32          // next[i]: an earlier signature sharing sigs[i]'s hash, or -1
	last int32            // the previous hit
}

func newSigTable() *sigTable {
	return &sigTable{seed: maphash.MakeSeed(), head: make(map[uint64]int32)}
}

// intern returns the index of sg, adding it when new. The table keeps copies
// of a new signature's strings, never the caller's: a signature interned from
// a streamed record must not hold the decoder's string table alive.
func (t *sigTable) intern(sg Sig) int32 {
	if len(t.sigs) > 0 && t.sigs[t.last].equal(&sg) {
		return t.last
	}
	var mh maphash.Hash
	mh.SetSeed(t.seed)
	mh.WriteString(sg.Func)
	mh.WriteByte(byte(sg.Layer))
	mh.WriteString(sg.Site)
	for _, c := range sg.Chain {
		mh.WriteByte(0)
		mh.WriteString(c)
	}
	h := mh.Sum64()
	i, ok := t.head[h]
	if !ok {
		i = -1
	}
	for j := i; j >= 0; j = t.next[j] {
		if t.sigs[j].equal(&sg) {
			t.last = j
			return j
		}
	}
	sg.Func, sg.Site = strings.Clone(sg.Func), strings.Clone(sg.Site)
	if len(sg.Chain) > 0 {
		kept := make([]string, len(sg.Chain))
		for k, c := range sg.Chain {
			kept[k] = strings.Clone(c)
		}
		sg.Chain = kept
	}
	t.last = int32(len(t.sigs))
	t.sigs = append(t.sigs, sg)
	t.next = append(t.next, i)
	t.head[h] = t.last
	return t.last
}
