// Package conflict implements step 2 of the VerifyIO workflow: detecting
// conflicting data operations in an execution trace (Def. 4 — overlapping
// byte ranges on the same file, at least one a write).
//
// Data operations are the POSIX-layer records. Many of them (read, write,
// fread, fwrite) carry no offset argument, so the detector replays each
// rank's metadata history to reconstruct access locations, exactly as §IV-B
// describes: it tracks a (FP, EOF) pair per open handle/file, updates it on
// every open/lseek/fseek/read/write/ftruncate, and assigns every file a
// unique identifier so that accesses through different handle types (an int
// descriptor from open and a FILE* stream from fopen) to the same file are
// compared against each other.
//
// The replay state is per-rank by construction, so the detector shards it:
// each rank replays independently with rank-local file identities, and a
// serial merge canonicalizes those identities into exactly the ids a
// rank-major serial scan would assign, then moves each rank's ops on a task
// of its own (see mergeShards). The sort-and-sweep over per-file interval
// lists is likewise sharded — the sort per offset bucket, the sweep per file
// and within a file into contiguous offset-range slices — so detection
// scales even when every rank targets one shared file (see detectPairs).
// Every sharding is exact — the result is identical at every worker count.
//
// The detector reports conflict groups (X, ζ): for each data operation X,
// the operations on higher ranks that conflict with X, partitioned by rank
// and sorted in program order — the structure the verifier's pruning
// (Fig. 3) operates on. A conflicting pair is unordered, so it appears once,
// under its lower operation. Only cross-rank pairs are conflicts:
// same-process operations are totally ordered by program order. Groups use
// a flat CSR-style layout (see Group).
package conflict

import (
	"fmt"
	"math"
	"math/bits"
	"strings"

	"verifyio/internal/obs"
	"verifyio/internal/par"
	"verifyio/internal/trace"
)

// Op is one data operation with its resolved byte range. A trace holds
// millions, so it is kept to 32 bytes.
type Op struct {
	// Ref locates the trace record.
	Ref trace.Ref
	// FID is the unique file identifier.
	FID int32
	// Write is true for write-type operations.
	Write bool
	// Start and End delimit the accessed byte range [Start, End).
	Start, End int64
}

// SyncPoint is a synchronization-relevant record (open/close/fsync at the
// POSIX layer, MPI_File_open/close/sync at the MPI-IO layer) resolved to its
// file. The verifier uses these to instantiate the minimum synchronization
// constructs of Table I.
type SyncPoint struct {
	Ref  trace.Ref
	Func string
	FID  int32
}

// Result is the detector's output.
type Result struct {
	// Ops are all data operations, ordered by (rank, seq).
	Ops []Op
	// Sigs holds each distinct call signature of a data operation once, in
	// order of first use (rank-major); OpSig[i] indexes the signature of
	// Ops[i].
	Sigs  []Sig
	OpSig []int32
	// Files maps fid -> path.
	Files []string
	// Syncs are the synchronization-relevant records, ordered by
	// (rank, seq).
	Syncs []SyncPoint
	// Pairs is the number of conflicting cross-rank pairs (each unordered
	// pair counted once).
	Pairs int64
	// Groups holds, for each op index with at least one conflicting op
	// after it, the conflict group (X, ζ), sorted by X: every pair once, in
	// the group of its lower index.
	Groups []Group
	// Skipped counts records that looked like data operations but could
	// not be interpreted (missing arguments, unknown handles) — tolerated
	// the way VerifyIO tolerates partial legacy traces.
	Skipped int
	// ScratchBytes is the transient footprint of the pair sweep: O(n)
	// tables whatever the pair count (see detectPairs).
	ScratchBytes int64

	// slices and carryOps are the sweep's task count and the positions its
	// slices carried over from earlier ones: the terms ScratchBytes is
	// bounded by.
	slices   int
	carryOps int64
}

// Options configures the detector.
type Options struct {
	// Workers bounds the goroutines used for the merge's per-rank passes,
	// the bucket sorts and the conflict sweep. 0 means GOMAXPROCS; 1 forces
	// the serial path. The result is identical at every worker count.
	Workers int
	// Obs carries the tracer; the zero Ctx disables tracing.
	Obs obs.Ctx
}

// handleState is the per-handle replay state: which file, and the handle's
// file pointer.
type handleState struct {
	fid int
	pos int64
}

// Detect scans the trace with a GOMAXPROCS-wide worker pool; see
// DetectOpts.
func Detect(tr *trace.Trace) (*Result, error) {
	return DetectOpts(tr, Options{})
}

// DetectOpts scans the trace and returns all data operations,
// synchronization points, and conflict groups: a Detector fed every rank.
func DetectOpts(tr *trace.Trace, opts Options) (*Result, error) {
	d := NewDetector(len(tr.Ranks))
	for rank := range tr.Ranks {
		tr.ReadRank(rank, func(steps []trace.Step) { d.Feed(rank, steps) })
	}
	return d.Finish(opts)
}

// Detector runs detection over records as they arrive: the per-rank metadata
// replay consumes each batch at once (so no rank's records need to stay
// resident), and Finish runs the cross-rank merge and pair sweep. The replay
// is a left-to-right fold per rank and touches no other rank's state, so a
// rank's records in order — in any batch partitioning, ranks in any order or
// fed from concurrent goroutines — give one Result.
type Detector struct {
	replayers []*rankReplayer
}

// NewDetector prepares replay state for nranks ranks.
func NewDetector(nranks int) *Detector {
	d := &Detector{replayers: make([]*rankReplayer, nranks)}
	for i := range d.replayers {
		d.replayers[i] = newRankReplayer()
	}
	return d
}

// Feed replays the next records of one rank, as steps (see trace.Source).
// Records must arrive in program order per rank; the batch is not retained.
// Safe for distinct ranks concurrently.
func (d *Detector) Feed(rank int, steps []trace.Step) {
	rp := d.replayers[rank]
	for i := range steps {
		rp.step(&steps[i])
	}
}

// Finish completes detection over everything fed: canonicalize file
// identities, sweep for conflicting pairs. It consumes the
// detector — the merge releases each rank's op storage as it copies it out.
func (d *Detector) Finish(opts Options) (*Result, error) {
	workers := par.Resolve(opts.Workers)
	oc, span := opts.Obs.StartLane("detect", "detect", obs.Int("ranks", len(d.replayers)))
	span.SetCat("detect")
	defer span.End()

	shards := make([]*rankShard, len(d.replayers))
	for rank, rp := range d.replayers {
		shards[rank] = rp.sh
	}
	_, mergeSpan := oc.Start("merge")
	res, ix, err := mergeShards(shards, workers)
	mergeSpan.End()
	if err != nil {
		return nil, err
	}
	detectPairs(res, ix, workers, oc)
	return res, nil
}

// localKey names a file identity as one rank sees it in isolation: the path
// plus the number of unlinks of that path the rank had replayed when the
// identity was first used. Unlink retires a path's current identity — a
// later create at the same path is a different file — so the generation
// count is exactly what distinguishes identities sharing a path. Unlinks on
// other ranks shift the generation during the merge (cross-rank
// interleavings resolve by rank-major scan order, a documented
// approximation like the paper's (FP, EOF) replay).
type localKey struct {
	path string
	gen  int
}

// opBlockLen is the number of data operations per storage block. A rank's
// op count is unknown until its last record (a stream never learns it
// earlier), so ops are written once into fixed-size blocks and copied once
// into the exactly-sized Result arrays: no slice ever doubles, and a rank of
// a few ops costs one 3 KiB block however many ranks there are.
const opBlockLen = 64

// opBlock holds opBlockLen consecutive data operations of one rank and their
// signature indices (into the rank's sigTable).
type opBlock struct {
	ops [opBlockLen]Op
	sig [opBlockLen]int32
}

// rankShard is one rank's replay output. Op/Sync FIDs index files; the merge
// rewrites them to canonical file ids.
type rankShard struct {
	blocks  []*opBlock // all full but the last; mergeShards releases them
	nops    int
	sigs    rankSigs // the rank's signatures
	syncs   []SyncPoint
	files   []localFile    // local fid -> identity and op summary, in first-use order
	unlinks map[string]int // path -> total unlinks on this rank
	skipped int
}

// localFile is one rank-local file identity and the replay's summary of the
// data operations on it — their count and the least and greatest Start —
// from which the merge sizes its offset partition without a pass over the
// operations.
type localFile struct {
	key    localKey
	ops    int
	lo, hi int64
}

// rankReplayer holds one rank's in-progress metadata replay: the replay is
// a pure left-to-right fold over the rank's records, so it can consume them
// in any batch partitioning.
type rankReplayer struct {
	sh      *rankShard
	fids    map[localKey]int
	handles map[string]*handleState // handle arg -> state
	eof     []int64                 // local fid -> EOF estimate
	// memoHandle and memo are the last handle lookup resolved: consecutive
	// records of a rank mostly name one handle. Every record that rebinds
	// or drops a handle (open, fopen, close, fclose) clears memo.
	memoHandle string
	memo       *handleState
	// nested is the file of the last sync point when a POSIX close or sync
	// made it, else -1.
	nested int
}

func newRankReplayer() *rankReplayer {
	return &rankReplayer{
		sh:      &rankShard{unlinks: make(map[string]int)},
		fids:    make(map[localKey]int),
		handles: make(map[string]*handleState),
		nested:  -1,
	}
}

// fidOf resolves a path to the rank-local id of its current identity.
// During the scan sh.unlinks doubles as the unlinks-seen-so-far counter.
func (rp *rankReplayer) fidOf(path string) int {
	k := localKey{path: path, gen: rp.sh.unlinks[path]}
	id, ok := rp.fids[k]
	if !ok {
		id = len(rp.sh.files)
		rp.fids[k] = id
		rp.sh.files = append(rp.sh.files, localFile{key: k})
		rp.eof = append(rp.eof, 0)
	}
	return id
}

// addOp records the data operation [start, start+n) and reports whether the
// record was usable. A negative start or an end past MaxInt64 — a corrupt or
// hostile offset — counts as skipped: the wrapped range would sit in the
// interval index conflicting with nothing.
func (rp *rankReplayer) addOp(rec *trace.Record, fid int, write bool, start, n int64) bool {
	sh := rp.sh
	if start < 0 || n > math.MaxInt64-start {
		sh.skipped++
		return false
	}
	if n <= 0 {
		return true
	}
	sh.push(Op{
		Ref: rec.Ref(), FID: int32(fid), Write: write, Start: start, End: start + n,
	}, sh.sigs.intern(rec))
	if write && start+n > rp.eof[fid] {
		rp.eof[fid] = start + n
	}
	return true
}

// push appends op, whose FID is a local file id, and its signature index.
func (sh *rankShard) push(op Op, sig int32) {
	k := sh.nops % opBlockLen
	if k == 0 {
		sh.blocks = append(sh.blocks, new(opBlock))
	}
	b := sh.blocks[len(sh.blocks)-1]
	b.ops[k], b.sig[k] = op, sig
	sh.nops++
	lf := &sh.files[op.FID]
	if lf.ops == 0 {
		lf.lo, lf.hi = op.Start, op.Start
	}
	lf.lo, lf.hi = min(lf.lo, op.Start), max(lf.hi, op.Start)
	lf.ops++
}

// addSync records the sync point rec of call c on file fid. A POSIX close
// or sync is what a following MPI-IO close or sync of the same call resolves
// through (see step).
func (rp *rankReplayer) addSync(rec *trace.Record, c *trace.Call, fid int) {
	rp.sh.syncs = append(rp.sh.syncs, SyncPoint{Ref: rec.Ref(), Func: rec.Func, FID: int32(fid)})
	rp.nested = -1
	if c.Kind == trace.KindClose || c.Kind == trace.KindSync {
		rp.nested = fid
	}
}

func (rp *rankReplayer) lookup(handle string) *handleState {
	if rp.memo != nil && handle == rp.memoHandle {
		return rp.memo
	}
	st := rp.handles[handle]
	if st != nil {
		rp.memoHandle, rp.memo = handle, st
	}
	return st
}

// step folds the next record into the replay. It reads each call through
// its row of the call table, so the calls of one kind share one path. A
// record whose fields do not give a usable handle, path or range counts as
// skipped.
func (rp *rankReplayer) step(s *trace.Step) {
	c, rec := s.Call, s.Rec
	if c == nil {
		return
	}
	h := s.Arg(c.Pos(s, trace.Handle))
	var st *handleState
	if c.Kind != trace.KindOpen && c.Has(trace.Handle) {
		st = rp.lookup(h)
	}
	usable := st != nil
	switch c.Kind {
	case trace.KindRead, trace.KindWrite:
		n, ok := dataBytes(c, s)
		var start int64
		positional := c.Has(trace.Offset)
		switch {
		case positional:
			var okO bool
			start, okO = s.Int(c.Pos(s, trace.Offset))
			ok = ok && okO
		case usable:
			// An append-mode write records where it landed: the end of the
			// file, which other ranks' writes move.
			start = st.pos
			if pos, has := s.Int(c.Pos(s, trace.Pos)); has {
				start = pos
			}
		}
		if usable = usable && ok; usable {
			rp.addOp(rec, st.fid, c.Kind == trace.KindWrite, start, n)
			if !positional {
				st.pos = start + n
			}
		}

	case trace.KindOpen:
		path := s.Arg(c.Pos(s, trace.Path))
		if usable = path != "" && h != ""; usable {
			fid := rp.fidOf(path)
			st = &handleState{fid: fid}
			trunc, app := openFlags(c, s)
			if trunc {
				rp.eof[fid] = 0
			}
			if app {
				st.pos = rp.eof[fid]
			}
			rp.handles[h], rp.memo = st, nil
			rp.addSync(rec, c, fid)
		}

	case trace.KindClose:
		if usable {
			rp.addSync(rec, c, st.fid)
			delete(rp.handles, h)
			rp.memo = nil
		}

	case trace.KindSync, trace.KindFileSync:
		switch path := s.Arg(c.Pos(s, trace.Path)); {
		case c.Has(trace.Path):
			if usable = path != ""; usable {
				rp.addSync(rec, c, rp.fidOf(path))
			}
		case usable:
			rp.addSync(rec, c, st.fid)
		case c.Kind == trace.KindFileSync && rp.nested >= 0:
			// The nested POSIX close has already removed the handle when
			// the MPI-IO record is emitted (records appear at call return,
			// innermost first): resolve through that close.
			usable = true
			rp.addSync(rec, c, rp.nested)
		}

	case trace.KindSeek:
		// Prefer the recorded resulting position; fall back to replaying
		// the whence rule against (FP, EOF).
		if pos, ok := s.Int(c.Pos(s, trace.Pos)); ok && usable {
			st.pos = pos
			break
		}
		off, okO := s.Int(c.Pos(s, trace.Offset))
		whence, errW := trace.ParseWhence(s.Arg(c.Pos(s, trace.Whence)))
		switch {
		case !usable:
		case !okO || errW != nil:
			usable = false
		case whence == 0: // SEEK_SET
			st.pos = off
		case whence == 1: // SEEK_CUR
			st.pos += off
		default: // SEEK_END
			st.pos = rp.eof[st.fid] + off
		}

	case trace.KindTruncate:
		// Truncation rewrites everything from min(size, EOF) on: shrinking
		// clobbers [size, EOF), growth zero-fills [EOF, size). One rank's
		// EOF is only what it wrote itself — bytes another rank wrote past
		// it are cut off too — so the range runs to the end of the offset
		// space.
		size, ok := s.Int(c.Pos(s, trace.Size))
		if usable = usable && ok; usable {
			lo := min(size, rp.eof[st.fid])
			if rp.addOp(rec, st.fid, true, lo, math.MaxInt64-lo) {
				rp.eof[st.fid] = size
			}
		}

	case trace.KindUnlink:
		// Bumping the generation retires the path's current identity: the
		// next fidOf at this path resolves to a fresh key.
		path := s.Arg(c.Pos(s, trace.Path))
		if usable = path != ""; usable {
			rp.sh.unlinks[path]++
		}

	default:
		return
	}
	if !usable {
		rp.sh.skipped++
	}
}

// dataBytes is the length of a data call's range: its count, size × count
// items, or the sum of its iovec lengths (contiguous in the file). A corrupt
// record can carry negative fields or a size × count product past int64:
// both would poison the interval index with nonsense ranges.
func dataBytes(c *trace.Call, s *trace.Step) (int64, bool) {
	if c.Has(trace.IOVCount) {
		cnt, ok := s.Int(c.Pos(s, trace.IOVCount))
		if !ok || cnt < 0 || cnt > int64(s.NumArgs()) {
			return 0, false
		}
		at, total := c.Pos(s, trace.IOVLen), int64(0)
		for k := range int(cnt) {
			n, ok := s.Int(at + k)
			if !ok {
				return 0, false
			}
			total += n
		}
		return total, true
	}
	count, ok := s.Int(c.Pos(s, trace.Count))
	if !c.Has(trace.Size) || !ok {
		return count, ok
	}
	size, ok := s.Int(c.Pos(s, trace.Size))
	if !ok || size < 0 || count < 0 || (size > 0 && count > math.MaxInt64/size) {
		return 0, false
	}
	return size * count, true
}

// openFlags reports whether an open truncates the file and whether its
// handle appends: open(2)'s flags read "rw|creat|trunc", fopen(3)'s mode
// "w+" or "a".
func openFlags(c *trace.Call, s *trace.Step) (trunc, app bool) {
	if c.Has(trace.Mode) {
		m := s.Arg(c.Pos(s, trace.Mode))
		return m == "w" || m == "w+", m == "a" || m == "a+"
	}
	f := s.Arg(c.Pos(s, trace.Flags))
	return strings.Contains(f, "trunc"), strings.Contains(f, "append")
}

// route sends a rank's operations on one of its local files to the canonical
// file id and to the file's offset buckets: an op starting at s counts in
// (rank, bucket) entry at + (s − base) >> shift. A one-bucket file has shift
// 64, which Go defines to shift every bit out.
type route struct {
	base  int64
	fid   int32
	at    int32
	shift uint8
}

func (rt *route) entry(start int64) int32 {
	return rt.at + int32((uint64(start)-uint64(rt.base))>>rt.shift)
}

// fileSpan is what the merge learns of a canonical file before it moves an
// op: how many ops, over which Starts, from how many ranks, and the offset
// buckets that makes — nb of them from the file's first bucket, each 2^shift
// offsets wide from lo.
type fileSpan struct {
	lo, hi int64
	ops    int
	ranks  int
	first  int // global index of the file's first bucket
	nb     int
	shift  uint8
}

// rankPart is one rank's share of the merge: where its n ops land in
// Result.Ops, its file routes and signature remap, and whether any of its
// files has more than one bucket (only then are its ops counted one by one).
type rankPart struct {
	first  int
	n      int
	routes []route
	sigMap []int32
	multi  bool
}

// copyOps copies the rank's blocks into its window of ops and sigs, each op
// still naming its local file, and releases each block once copied.
func (p *rankPart) copyOps(sh *rankShard, ops []Op, sigs []int32) {
	at := p.first
	for bi, b := range sh.blocks {
		k := min(opBlockLen, sh.nops-bi*opBlockLen)
		copy(ops[at:at+k], b.ops[:k])
		for i, sg := range b.sig[:k] {
			sigs[at+i] = p.sigMap[sg]
		}
		at += k
		sh.blocks[bi] = nil // copied: the block is garbage from here on
	}
}

// count adds the rank's ops on its multi-bucket files to their (rank,
// bucket) entries of deg.
func (p *rankPart) count(all []Op, deg []int32) {
	if !p.multi {
		return
	}
	ops := all[p.first : p.first+p.n]
	for i := range ops {
		if rt := &p.routes[ops[i].FID]; rt.shift < 64 {
			deg[rt.entry(ops[i].Start)]++
		}
	}
}

// scatter writes each of the rank's ops into its slot of iv as a packed
// interval, advancing the slot cursors in deg, and gives the op its
// canonical file id.
func (p *rankPart) scatter(all []Op, deg []int32, iv []interval) {
	ops := all[p.first : p.first+p.n]
	for i := range ops {
		op := &ops[i]
		rt := &p.routes[op.FID]
		e := rt.entry(op.Start)
		slot := deg[e]
		deg[e]++
		rw := op.Ref.Rank << 1
		if op.Write {
			rw |= 1
		}
		iv[slot] = interval{start: op.Start, end: op.End, idx: int32(p.first + i), rw: rw}
		op.FID = rt.fid
	}
}

// bucketOps is the aimed-for number of intervals per offset bucket.
const bucketOps = 1024

// bucketBits gives a file of m ops on the given number of ranks 2^k offset
// buckets: the power of two at or above m/bucketOps, none for a file below
// two buckets' worth, and few enough that the file's (rank, bucket) entries
// stay within its op count.
func bucketBits(m, ranks int) int {
	if m < 2*bucketOps {
		return 0
	}
	k := bits.Len(uint((m - 1) / bucketOps))
	for k > 0 && ranks<<k > m {
		k--
	}
	return k
}

// mergeShards canonicalizes file identities and concatenates the per-rank
// outputs in rank order, reproducing exactly the ids and ordering of a
// single rank-major scan with one global path table. On the way it scatters
// every op into the sweep's offset partition.
//
// The equivalence: in a serial scan, two fidOf calls resolve to the same id
// iff they name the same path with no unlink of that path between them. A
// rank-local key (path, g) therefore denotes the global identity
// (path, genBefore[path] + g), where genBefore accumulates the unlink
// counts of all earlier ranks — earlier unlinks on the same rank are
// already in g, later ranks' unlinks come after every use on this rank.
// Canonical ids are assigned on first sight walking the ranks' key tables
// in order, which is each identity's first-use position in the rank-major
// scan, so the numbering matches too.
//
// The partition: each file's Start range, known from the replay's per-file
// summaries, is cut into power-of-two-wide offset buckets (bucketBits).
// Three passes over the ranks follow, a rank per task, each task writing
// only its rank's ops, entries and slots: one copies the rank's blocks into
// Ops/OpSig, one counts its ops per (rank, bucket) — only ranks with a
// multi-bucket file need it — and, after a serial prefix sum over buckets,
// ranks within a bucket in rank order, has turned counts into slots, one
// writes each op as a packed interval into its slot. A bucket therefore
// holds its ops ascending by index, and the buckets of a file tile its
// window in offset order: sorting each bucket (sweepIndex.sortFile) sorts
// the file.
func mergeShards(shards []*rankShard, workers int) (*Result, *sweepIndex, error) {
	res := &Result{}
	n, nsyncs, nfiles, nsigs := 0, 0, 0, 0
	for _, sh := range shards {
		n += sh.nops
		nsyncs += len(sh.syncs)
		nfiles += len(sh.files)
		nsigs += len(sh.sigs.sigs)
		res.Skipped += sh.skipped
	}
	if n > math.MaxInt32 {
		return nil, nil, fmt.Errorf("conflict: %d data operations exceed the int32 group index space", n)
	}
	res.Syncs = make([]SyncPoint, 0, nsyncs)
	sigs := newSigTable()
	parts := make([]rankPart, len(shards))
	routes, sigMaps := make([]route, nfiles), make([]int32, nsigs)
	var spans []fileSpan

	canon := make(map[localKey]int)
	genBefore := make(map[string]int)
	at := 0 // first position of the rank's ops in Result.Ops
	for r, sh := range shards {
		p := &parts[r]
		p.first, p.n, at = at, sh.nops, at+sh.nops
		p.routes, routes = routes[:len(sh.files):len(sh.files)], routes[len(sh.files):]
		for i, lf := range sh.files {
			gk := localKey{path: lf.key.path, gen: lf.key.gen + genBefore[lf.key.path]}
			id, ok := canon[gk]
			if !ok {
				id = len(res.Files)
				canon[gk] = id
				res.Files = append(res.Files, lf.key.path)
				spans = append(spans, fileSpan{})
			}
			p.routes[i].fid = int32(id)
			if lf.ops == 0 {
				continue
			}
			sp := &spans[id]
			if sp.ops == 0 {
				sp.lo, sp.hi = lf.lo, lf.hi
			}
			sp.lo, sp.hi = min(sp.lo, lf.lo), max(sp.hi, lf.hi)
			sp.ops += lf.ops
			sp.ranks++
		}
		for path, c := range sh.unlinks {
			genBefore[path] += c
		}
		for _, sy := range sh.syncs {
			sy.FID = p.routes[sy.FID].fid
			res.Syncs = append(res.Syncs, sy)
		}
		// Signatures canonicalize like file ids: numbered on first sight in
		// the rank-major walk.
		p.sigMap, sigMaps = sigMaps[:len(sh.sigs.sigs):len(sh.sigs.sigs)], sigMaps[len(sh.sigs.sigs):]
		for i, sg := range sh.sigs.sigs {
			p.sigMap[i] = sigs.intern(sg)
		}
	}
	res.Sigs = sigs.sigs

	// Bucket geometry and file windows. Span arithmetic is unsigned: exact
	// for any pair of int64 starts.
	ix := &sweepIndex{fileOff: make([]int32, len(spans)+1)}
	for f := range spans {
		sp := &spans[f]
		ix.fileOff[f+1] = ix.fileOff[f] + int32(sp.ops)
		sp.first = ix.buckets
		if sp.ops == 0 {
			continue
		}
		sp.shift, sp.nb = 64, 1
		width := uint64(sp.hi) - uint64(sp.lo)
		if k := bucketBits(sp.ops, sp.ranks); k > 0 && width > 0 {
			sp.shift = uint8(max(bits.Len64(width)-k, 0))
			sp.nb = int(width>>sp.shift) + 1
		}
		ix.buckets += sp.nb
	}

	// Each rank's blocks are copied out and released before the sweep's
	// arrays are allocated, so the two are never live at once.
	res.Ops, res.OpSig = make([]Op, n), make([]int32, n)
	par.Do(workers, len(shards), func(r int) {
		parts[r].copyOps(shards[r], res.Ops, res.OpSig)
	})

	// (rank, bucket) entries, rank-major, a rank's files in local order: at
	// most one per op, so the count table fits in the sweep's degree table,
	// which is free until the sweep counts pairs. A one-bucket file's entry
	// is its op count, known already.
	ix.deg = make([]int32, n)
	deg := ix.deg
	counting := false
	for r, sh := range shards {
		p := &parts[r]
		for i, lf := range sh.files {
			rt := &p.routes[i]
			if lf.ops == 0 {
				continue
			}
			sp := &spans[rt.fid]
			rt.base, rt.shift, rt.at = sp.lo, sp.shift, int32(ix.entries)
			ix.entries += sp.nb
			if sp.nb == 1 {
				deg[rt.at] = int32(lf.ops)
			} else {
				p.multi, counting = true, true
			}
		}
	}
	// The allocator zeroes the packed intervals and the offset table, so a
	// count runs their allocation on tasks of its own beside it.
	if counting {
		par.Do(workers, 2+len(shards), func(t int) {
			switch t {
			case 0:
				ix.iv = make([]interval, n)
			case 1:
				ix.off = make([]int64, n+2)
			default:
				parts[t-2].count(res.Ops, deg)
			}
		})
	} else {
		ix.iv, ix.off = make([]interval, n), make([]int64, n+2)
	}
	off := ix.off

	// Slots: bucket g's total lands in off[g+2], the prefix sum leaves
	// bucket g's start in off[g+1], and handing out slots rank by rank
	// advances it to bucket g's end — so off[g] is bucket g's start for every
	// g ≤ buckets, and deg[e] becomes the first slot of entry e.
	walk := func(visit func(e int32, g int)) {
		for r, sh := range shards {
			for i, lf := range sh.files {
				if lf.ops == 0 {
					continue
				}
				rt := &parts[r].routes[i]
				sp := &spans[rt.fid]
				for b := range sp.nb {
					visit(rt.at+int32(b), sp.first+b)
				}
			}
		}
	}
	walk(func(e int32, g int) { off[g+2] += int64(deg[e]) })
	for g := 0; g < ix.buckets; g++ {
		off[g+2] += off[g+1]
	}
	walk(func(e int32, g int) {
		c := int64(deg[e])
		deg[e] = int32(off[g+1])
		off[g+1] += c
	})

	par.Do(workers, len(shards), func(r int) {
		parts[r].scatter(res.Ops, deg, ix.iv)
	})
	return res, ix, nil
}

// PathOf returns the path for a file id.
func (r *Result) PathOf(fid int) string {
	if fid < 0 || fid >= len(r.Files) {
		return fmt.Sprintf("fid(%d)", fid)
	}
	return r.Files[fid]
}
