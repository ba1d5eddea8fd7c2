package verify

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"io"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"verifyio/internal/conflict"
	"verifyio/internal/match"
	"verifyio/internal/obs"
	"verifyio/internal/trace"
	"verifyio/internal/vcache"
)

// Incremental verification: every chunk of the plan gets a content digest,
// and verdicts are memoized in a vcache.Store keyed by (chunk digest, model
// digest, sync epoch, code version). The digests factor the inputs a chunk
// verdict can depend on:
//
//   - chunk digest: the span's groups — contributing ops by record identity,
//     byte extents, and file identity (conflict.AppendGroupKey);
//   - model digest: the MSC specification plus every option that changes
//     what a verdict contains (pruning, detail cap);
//   - sync epoch: everything chunk-external — per-rank trace lengths, the
//     sync-point cohorts, and the happens-before relation via the skeleton
//     digest (hbgraph.SkeletonDigest). Every algorithm builds the graph, so
//     the epoch is shared by all of them and verdicts transfer between them
//     (they are oracle-independent).
//
// An unchanged trace re-verifies entirely from cache. A changed trace misses
// on the new epoch and falls back to the dirtiness pass: the store's
// manifest for the trace id maps the change onto per-rank stable-region cuts
// (vcache.Manifest.Cuts), and any chunk whose every op lies below the cuts
// promotes its old-epoch verdict instead of recomputing. Chunks above —
// the dirty set — are verified and sealed as usual.

// The block-chain geometry is shared between the trace digests and the
// manifest decoder; this fails to compile if the two constants drift apart.
var _ = [1]struct{}{}[vcache.DigestBlock-trace.DigestBlock]

// CacheStats reports verdict-cache effectiveness for one verification pass.
type CacheStats struct {
	// Hits counts chunks resolved from the cache, including verdicts
	// promoted across a trace change by the dirtiness pass.
	Hits int64
	// Misses counts chunks verified from scratch (and then sealed).
	Misses int64
	// DirtyChunks counts the misses charged to a trace change: chunks
	// re-verified while an incremental manifest for this trace was
	// available. Zero on a cold run (no manifest) and on a fully-warm run
	// (no misses).
	DirtyChunks int64
}

// chunkSpan is one unit of the verification plan: groups [lo, hi).
type chunkSpan struct{ lo, hi int }

// Chunk plan geometry. Chunks are sized by total run length (the quantity
// verification cost tracks), not group count, and boundaries are content
// defined — a group becomes a boundary when the hash of its X ref selects it
// — so the plan is a pure function of the conflict content: identical at
// every worker count, and self-resynchronizing after an insertion.
const (
	// chunkMinWeight is the minimum accumulated run length before a content
	// boundary may cut; with chunkCutMask accepting 1 in 4 groups, expected
	// chunk weight is chunkMinWeight plus a few groups.
	chunkMinWeight = 128
	// chunkMaxWeight forces a cut regardless of the boundary hash, and any
	// single group at least this heavy is isolated into its own chunk so a
	// dense group cannot straggle the neighbors sharing its chunk.
	chunkMaxWeight = 4096
	// chunkCutMask selects boundary groups: cut when hash&mask == 0.
	chunkCutMask = 3
)

// chunkBoundary hashes the group's X record identity (FNV-1a); content
// addressing keeps boundaries stable under trace growth elsewhere.
func chunkBoundary(conf *conflict.Result, gi int) bool {
	x := &conf.Ops[conf.Groups[gi].X]
	h := uint32(2166136261)
	mix := func(v uint32) {
		for i := 0; i < 4; i++ {
			h ^= v & 0xff
			h *= 16777619
			v >>= 8
		}
	}
	mix(uint32(x.Ref.Rank))
	mix(uint32(x.Ref.Seq))
	return h&chunkCutMask == 0
}

// planChunks partitions the conflict groups into contiguous weight-balanced
// chunks — the shared work unit of parallel verification and of the verdict
// cache.
func planChunks(conf *conflict.Result) []chunkSpan {
	n := len(conf.Groups)
	var plan []chunkSpan
	lo, w := 0, 0
	for gi := 0; gi < n; gi++ {
		gw := len(conf.Groups[gi].Ys())
		if gw >= chunkMaxWeight {
			if lo < gi {
				plan = append(plan, chunkSpan{lo, gi})
			}
			plan = append(plan, chunkSpan{gi, gi + 1})
			lo, w = gi+1, 0
			continue
		}
		w += gw
		if w >= chunkMaxWeight || (w >= chunkMinWeight && chunkBoundary(conf, gi)) {
			plan = append(plan, chunkSpan{lo, gi + 1})
			lo, w = gi+1, 0
		}
	}
	if lo < n {
		plan = append(plan, chunkSpan{lo, n})
	}
	return plan
}

// planBatches partitions nchunks chunks into contiguous batches, as index
// spans: the unit a worker claims, along which the verifier carries its
// class scratch (a position class usually spans several chunks). ⌈√n⌉ chunks
// per batch leaves about as many batches as a batch has chunks, so the
// carry-over and the parallel slack both grow with the trace. A function of
// the chunk count alone — never of Workers.
func planBatches(nchunks int) []chunkSpan {
	per := int(math.Ceil(math.Sqrt(float64(nchunks))))
	var batches []chunkSpan
	for lo := 0; lo < nchunks; lo += per {
		batches = append(batches, chunkSpan{lo, min(lo+per, nchunks)})
	}
	return batches
}

// cacheArtifacts are the model-independent digests of one Analysis, computed
// once and shared by every model pass (VerifyAll runs four).
type cacheArtifacts struct {
	// chunks holds one content digest per chunk of the query plan.
	chunks []vcache.Digest
	epoch  vcache.Digest
	// skel is the sync-skeleton digest.
	skel         vcache.Digest
	ranks        []vcache.RankManifest
	edges        []vcache.Edge
	unlinkTotals []int

	// Dirty-state memo, keyed by the (store, trace id) it was resolved
	// against; model passes share it.
	dirtyMu   sync.Mutex
	dirtyFor  *vcache.Store
	dirtyID   string
	dirtyDone bool
	dirty     *dirtyState
}

// dirtyState is the resolved incremental mapping against an old manifest.
type dirtyState struct {
	// cuts delimit the stable region (nil when none was certifiable).
	cuts []int
	// oldEpoch keys the verdicts sealed by the manifest's run.
	oldEpoch vcache.Digest
	// promote is true when the unlink guard passed and stable chunks may
	// reuse old-epoch verdicts.
	promote bool
	// stable[c] reports chunk c entirely below the cuts (promote only).
	stable []bool
}

// cacheArtifacts returns the memoized digests, computing them on first use.
func (a *Analysis) cacheArtifacts() *cacheArtifacts {
	a.cacheMu.Lock()
	defer a.cacheMu.Unlock()
	if a.cacheArt != nil {
		return a.cacheArt
	}
	conf := a.Conflicts
	art := &cacheArtifacts{}

	plan := a.queryPlan().chunks
	art.chunks = make([]vcache.Digest, len(plan))
	var buf []byte
	for ci, span := range plan {
		h := sha256.New()
		for gi := span.lo; gi < span.hi; gi++ {
			buf = conf.AppendGroupKey(buf[:0], gi)
			h.Write(buf)
		}
		h.Sum(art.chunks[ci][:0])
	}

	nranks := a.NumRanks()
	art.ranks = make([]vcache.RankManifest, nranks)
	art.unlinkTotals = make([]int, nranks)
	for r := 0; r < nranks; r++ {
		// The block chains and unlink positions were digested in the pass
		// that fed the analysis (rankDigest) — the records are gone.
		dg := &a.digests[r]
		art.unlinkTotals[r] = len(dg.unlinks)
		art.ranks[r] = vcache.RankManifest{
			Records: a.counts[r],
			Unlinks: art.unlinkTotals[r],
			Blocks:  dg.chain.Chain(),
		}
	}

	art.edges = starEdges(a.Match.Edges)

	eh := sha256.New()
	io.WriteString(eh, "verifyio-epoch-v1\x00")
	writeU32(eh, uint32(nranks))
	for r := 0; r < nranks; r++ {
		writeU32(eh, uint32(art.ranks[r].Records))
	}
	if a.salvaged() {
		// A salvaged trace is partial evidence: its verdicts must never
		// alias those of the intact (or repaired) trace, even when the
		// per-rank lengths and sync cohorts happen to coincide. Salt the
		// epoch with the exact salvage extents.
		io.WriteString(eh, "salvaged\x00")
		writeU32(eh, uint32(len(a.salvage.Ranks)))
		for _, rr := range a.salvage.Ranks {
			writeU32(eh, uint32(rr.Rank))
			writeU32(eh, uint32(rr.Salvaged))
			writeU32(eh, uint32(int32(rr.Dropped)))
		}
	}
	writeU32(eh, uint32(len(conf.Syncs)))
	for i := range conf.Syncs {
		sp := &conf.Syncs[i]
		writeU32(eh, uint32(sp.Ref.Rank))
		writeU32(eh, uint32(sp.Ref.Seq))
		writeU32(eh, uint32(sp.FID))
		writeString(eh, sp.Func)
	}
	a.Graph.AppendSkeletonDigest(eh)
	art.skel = a.Graph.SkeletonDigest()
	eh.Sum(art.epoch[:0])

	a.cacheArt = art
	return art
}

// starEdges turns the matcher's edge list into the manifest's: records only,
// sorted. The manifest needs its edges for one thing — no edge may straddle
// a stable-region cut (vcache.Manifest.Cuts) — so a join node is recorded as
// a star over its record endpoints, first source → every target and every
// other source → first target: as many edges as the join had, less one, and
// connecting exactly the endpoints its source × target pairs connect.
func starEdges(edges []match.Edge) []vcache.Edge {
	const joinRank = -1 // match's marker for a join node
	joins := 0
	for _, e := range edges {
		if e.From.Rank == joinRank {
			joins = max(joins, e.From.Seq+1)
		}
	}
	// Each join's first source and first target (every join has both — match
	// emits no other kind); walking backwards, the first in order wins.
	firstSrc, firstDst := make([]trace.Ref, joins), make([]trace.Ref, joins)
	for i := len(edges) - 1; i >= 0; i-- {
		switch e := edges[i]; {
		case e.To.Rank == joinRank:
			firstSrc[e.To.Seq] = e.From
		case e.From.Rank == joinRank:
			firstDst[e.From.Seq] = e.To
		}
	}
	out := make([]vcache.Edge, 0, len(edges))
	add := func(from, to trace.Ref) {
		out = append(out, vcache.Edge{
			FromRank: int32(from.Rank), FromSeq: int32(from.Seq),
			ToRank: int32(to.Rank), ToSeq: int32(to.Seq),
		})
	}
	for _, e := range edges {
		switch {
		case e.To.Rank == joinRank:
			if e.From != firstSrc[e.To.Seq] {
				add(e.From, firstDst[e.To.Seq])
			}
		case e.From.Rank == joinRank:
			add(firstSrc[e.From.Seq], e.To)
		default:
			add(e.From, e.To)
		}
	}
	slices.SortFunc(out, func(a, b vcache.Edge) int {
		return cmp.Or(cmp.Compare(a.FromRank, b.FromRank), cmp.Compare(a.FromSeq, b.FromSeq),
			cmp.Compare(a.ToRank, b.ToRank), cmp.Compare(a.ToSeq, b.ToSeq))
	})
	return out
}

func writeU32(h hash.Hash, v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	h.Write(b[:])
}

func writeString(h hash.Hash, s string) {
	writeU32(h, uint32(len(s)))
	io.WriteString(h, s)
}

// rankDigest is what the verdict cache needs of one rank's records, taken
// batch by batch in the pass that feeds the analysis: the chained block
// digests, and the positions of the unlinks — exactly the records
// conflict.Detector's replay counts as fid-generation bumps (non-empty path).
type rankDigest struct {
	chain   trace.ChainBuilder
	unlinks []int32
}

func (d *rankDigest) add(recs []trace.Record) {
	d.chain.Add(recs)
	for i := range recs {
		if recs[i].Func == "unlink" && recs[i].Arg(0) != "" {
			d.unlinks = append(d.unlinks, int32(recs[i].Seq))
		}
	}
}

// modelDigest commits to the consistency model and to every option that
// changes verdict content. The HB algorithm is deliberately excluded: the
// oracles are interchangeable (the oracle-equivalence suite pins it), so
// verdicts transfer across them.
func modelDigest(opts Options) vcache.Digest {
	h := sha256.New()
	io.WriteString(h, "verifyio-model-v1\x00")
	writeU32(h, uint32(opts.Model.ID))
	writeString(h, opts.Model.Name)
	writeU32(h, uint32(len(opts.Model.SyncSet)))
	for _, fn := range opts.Model.SyncSet {
		writeString(h, fn)
	}
	msc := opts.Model.MSC
	writeU32(h, uint32(len(msc.Edges)))
	for _, e := range msc.Edges {
		writeU32(h, uint32(e))
	}
	writeU32(h, uint32(len(msc.Ops)))
	for _, c := range msc.Ops {
		writeString(h, c.Name)
		writeU32(h, uint32(len(c.Funcs)))
		for _, fn := range c.Funcs {
			writeString(h, fn)
		}
	}
	flags := byte(0)
	if opts.DisablePruning {
		flags |= 1
	}
	h.Write([]byte{flags})
	writeU32(h, uint32(opts.MaxRaceDetails))
	var out vcache.Digest
	h.Sum(out[:0])
	return out
}

// cacheSession is the per-pass view of the store: one per (model, Verify)
// invocation, sharing the Analysis-wide artifacts.
type cacheSession struct {
	store *vcache.Store
	art   *cacheArtifacts
	a     *Analysis
	opts  Options
	model vcache.Digest
	id    string

	hits, misses, dirtied atomic.Int64
}

func newCacheSession(a *Analysis, opts Options, oc obs.Ctx) *cacheSession {
	_, sp := oc.Start("vcache")
	art := a.cacheArtifacts()
	cs := &cacheSession{
		store: opts.Cache,
		art:   art,
		a:     a,
		opts:  opts,
		model: modelDigest(opts),
		id:    cacheTraceID(opts, art),
	}
	sp.AddAttr(obs.Int("chunks", len(art.chunks)))
	sp.End()
	return cs
}

// cacheTraceID names the logical trace the manifest is stored under. The
// explicit Options.CacheID wins; the fallback derives a stable identity from
// each rank's first block digest, which survives a suffix append (the first
// DigestBlock records don't move). The id is a performance hint only — a
// collision can at worst fail to certify a stable region, never corrupt one:
// promotion safety rests on the block chains themselves.
func cacheTraceID(opts Options, art *cacheArtifacts) string {
	if opts.CacheID != "" {
		return opts.CacheID
	}
	h := sha256.New()
	io.WriteString(h, "verifyio-traceid-v1\x00")
	writeU32(h, uint32(len(art.ranks)))
	for i := range art.ranks {
		if len(art.ranks[i].Blocks) > 0 {
			h.Write(art.ranks[i].Blocks[0][:])
		}
	}
	return fmt.Sprintf("auto-%x", h.Sum(nil)[:12])
}

// dirtyState resolves (once per store and trace id) the incremental mapping:
// load the old manifest, compute the stable-region cuts, apply the unlink
// guard, and precompute per-chunk stability. Nil when the store holds no
// manifest for the id — a genuinely cold trace.
func (art *cacheArtifacts) dirtyState(store *vcache.Store, id string, a *Analysis) *dirtyState {
	art.dirtyMu.Lock()
	defer art.dirtyMu.Unlock()
	if art.dirtyDone && art.dirtyFor == store && art.dirtyID == id {
		return art.dirty
	}
	art.dirtyFor, art.dirtyID, art.dirtyDone = store, id, true
	art.dirty = nil
	old := store.Manifest(id)
	if old == nil {
		return nil
	}
	d := &dirtyState{oldEpoch: old.Epoch}
	art.dirty = d
	d.cuts = old.Cuts(art.ranks, art.edges)
	if d.cuts == nil {
		return d // manifest present but no certifiable region: all dirty
	}
	below := make([]int, len(d.cuts))
	for r, cut := range d.cuts {
		// The unlink positions below the cut (each rank's are ascending).
		seqs := a.digests[r].unlinks
		below[r] = sort.Search(len(seqs), func(i int) bool { return seqs[i] >= int32(cut) })
	}
	if !old.UnlinkSafe(d.cuts, below, art.unlinkTotals) {
		// An unlink outside the stable region can shift fid generations
		// for every later rank and silently change sync cohorts; no
		// promotion, everything not epoch-hit is dirty.
		return d
	}
	d.promote = true
	d.stable = make([]bool, len(art.chunks))
	conf := a.Conflicts
	opBelow := func(op *conflict.Op) bool {
		return op.Ref.Rank < len(d.cuts) && op.Ref.Seq < d.cuts[op.Ref.Rank]
	}
	for ci, span := range a.queryPlan().chunks {
		ok := true
	scan:
		for gi := span.lo; gi < span.hi; gi++ {
			g := &conf.Groups[gi]
			if !opBelow(&conf.Ops[g.X]) {
				ok = false
				break
			}
			for _, yi := range g.Ys() {
				if !opBelow(&conf.Ops[yi]) {
					ok = false
					break scan
				}
			}
		}
		d.stable[ci] = ok
	}
	return d
}

// tryApply resolves chunk c from the cache into sh, keeping need race
// pairs; false means the caller must verify (a miss, counted here).
func (cs *cacheSession) tryApply(c int, sh *tally, need int) bool {
	k := vcache.Key{Chunk: cs.art.chunks[c], Model: cs.model, Epoch: cs.art.epoch}
	if v, ok := cs.store.Get(k); ok && cs.apply(c, v, sh, need) {
		cs.hits.Add(1)
		cs.store.CountHit()
		return true
	}
	if cs.a.salvaged() {
		// Partial evidence: old-manifest verdicts were computed against
		// the intact trace's synchronization state and must not be
		// promoted into the salvaged epoch (nor vice versa — a salvaged
		// run publishes no manifest, see finish).
		cs.misses.Add(1)
		cs.store.CountMiss()
		return false
	}
	d := cs.art.dirtyState(cs.store, cs.id, cs.a)
	if d != nil && d.promote && d.stable[c] {
		old := vcache.Key{Chunk: cs.art.chunks[c], Model: cs.model, Epoch: d.oldEpoch}
		if v, ok := cs.store.Get(old); ok && cs.apply(c, v, sh, need) {
			cs.store.Put(k, v) // promote to the current epoch
			cs.hits.Add(1)
			cs.store.CountHit()
			return true
		}
	}
	if d != nil {
		cs.dirtied.Add(1)
		cs.store.CountDirty()
	}
	cs.misses.Add(1)
	cs.store.CountMiss()
	return false
}

// apply loads a cached verdict into chunk c's tally, resolving the first
// need pair refs to op indices. Every stored pair is checked in one forward
// walk over the chunk's groups: it must be a group's X and one of that
// group's Ys, in discovery order (group order, then ascending Y), and a
// sealed verdict holds min(Races, MaxRaceDetails) of them. Anything else
// rejects the verdict (treat as miss) rather than trusting it.
func (cs *cacheSession) apply(c int, v vcache.Verdict, sh *tally, need int) bool {
	if v.Checks < 0 || int64(len(v.Pairs)) != min(v.Races, int64(cs.opts.MaxRaceDetails)) {
		return false
	}
	conf, span := cs.a.Conflicts, cs.a.queryPlan().chunks[c]
	pairs := make([]racePair, 0, min(need, len(v.Pairs)))
	gi, k := span.lo, 0 // where the next pair may start: group gi, its k-th Y
	for _, p := range v.Pairs {
		x := trace.Ref{Rank: int(p.XRank), Seq: int(p.XSeq)}
		for gi < span.hi && conf.Ops[conf.Groups[gi].X].Ref != x {
			gi, k = gi+1, 0
		}
		if gi == span.hi {
			return false
		}
		y, ys := trace.Ref{Rank: int(p.YRank), Seq: int(p.YSeq)}, conf.Groups[gi].Ys()
		for k < len(ys) && conf.Ops[ys[k]].Ref != y {
			k++
		}
		if k == len(ys) {
			return false
		}
		if len(pairs) < need {
			pairs = append(pairs, racePair{x: int32(conf.Groups[gi].X), y: ys[k]})
		}
		k++
	}
	sh.checks, sh.raceCount, sh.pairs = v.Checks, v.Races, pairs
	return true
}

// seal stores the freshly computed verdict for chunk c.
func (cs *cacheSession) seal(c int, sh *tally) {
	var pairs []vcache.RefPair
	ops := cs.a.Conflicts.Ops
	for _, p := range sh.pairs {
		x, y := ops[p.x].Ref, ops[p.y].Ref
		pairs = append(pairs, vcache.RefPair{
			XRank: int32(x.Rank), XSeq: int32(x.Seq),
			YRank: int32(y.Rank), YSeq: int32(y.Seq),
		})
	}
	cs.store.Put(
		vcache.Key{Chunk: cs.art.chunks[c], Model: cs.model, Epoch: cs.art.epoch},
		vcache.Verdict{Checks: sh.checks, Races: sh.raceCount, Pairs: pairs},
	)
}

// finish publishes the incremental manifest for this trace id. Idempotent
// (the store dedups equal manifests), so the four concurrent model passes
// of VerifyAll write it once. A salvaged run publishes nothing: its chains
// describe the damaged prefix, and a later run on the repaired trace would
// otherwise certify that prefix as stable and promote verdicts sealed
// against the truncated synchronization state.
func (cs *cacheSession) finish() {
	if cs.a.salvaged() {
		return
	}
	cs.store.PutManifest(cs.id, &vcache.Manifest{
		CodeVersion: vcache.CodeVersion,
		Epoch:       cs.art.epoch,
		Skeleton:    cs.art.skel,
		Ranks:       cs.art.ranks,
		Edges:       cs.art.edges,
	})
}

// stats snapshots this pass's counters for the report.
func (cs *cacheSession) stats() *CacheStats {
	return &CacheStats{
		Hits:        cs.hits.Load(),
		Misses:      cs.misses.Load(),
		DirtyChunks: cs.dirtied.Load(),
	}
}
