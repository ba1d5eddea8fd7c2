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

// sigTable interns signatures by content in first-use order: the merge
// numbers the ranks' signatures through one. A hit allocates nothing: the
// previous hit is compared first, then a hash of the strings finds the
// candidates.
type sigTable struct {
	sigs []Sig
	seed maphash.Seed
	head map[uint64]int32 // hash -> latest signature with that hash
	next []int32          // next[i]: an earlier signature sharing sigs[i]'s hash, or -1
	last int32            // the previous hit
}

// rankSigs is one rank's signature table as the replay builds it: an entry
// per distinct (Func, Layer, Ctx) key, in first-use order. The records of a
// rank share interned Contexts (the decoder's and the recorder's), so the
// key names a signature by a string and a pointer, without reading the
// chain; a rank whose equal contexts were not interned together gets an
// entry per pointer, and the merge's content table (sigTable) gives them one
// index. Entries keep the records' strings — a few string-table chunks per
// signature — until the merge copies them into Result.Sigs.
type rankSigs struct {
	sigs    []Sig
	byKey   map[sigKey]int32
	lastKey sigKey // the previous record's key, and its index
	last    int32
}

type sigKey struct {
	fn    string
	layer trace.Layer
	ctx   *trace.Context
}

// intern returns the index of rec's signature, adding it when new. The
// previous record's key is compared first (runs of one call are the common
// case), then the map.
func (t *rankSigs) intern(rec *trace.Record) int32 {
	k := sigKey{fn: rec.Func, layer: rec.Layer, ctx: rec.Ctx}
	if len(t.sigs) > 0 && k == t.lastKey {
		return t.last
	}
	i, ok := t.byKey[k]
	if !ok {
		i = int32(len(t.sigs))
		t.sigs = append(t.sigs, Sig{Func: rec.Func, Layer: rec.Layer, Site: rec.Site(), Chain: rec.Chain()})
		if t.byKey == nil {
			t.byKey = make(map[sigKey]int32)
		}
		t.byKey[k] = i
	}
	t.lastKey, t.last = k, i
	return i
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
