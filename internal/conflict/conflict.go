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
// rank-major serial scan would assign (see mergeShards). The sort-and-sweep
// over per-file interval lists is likewise sharded — per file, and within a
// file into contiguous offset-range slices, so detection scales even when
// every rank targets one shared file (see detectPairs). Both shardings are
// exact — the result is identical at every worker count.
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
	"strings"

	"verifyio/internal/obs"
	"verifyio/internal/par"
	"verifyio/internal/recorder"
	"verifyio/internal/trace"
)

// Op is one data operation with its resolved byte range.
type Op struct {
	// Ref locates the trace record.
	Ref trace.Ref
	// FID is the unique file identifier.
	FID int
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
	FID  int
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
	// Workers bounds the goroutines used for the per-rank metadata replay
	// and the per-file conflict sweep. 0 means GOMAXPROCS; 1 forces the
	// serial path. The result is identical at every worker count.
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
// synchronization points, and conflict groups: a Detector fed every rank
// whole.
func DetectOpts(tr *trace.Trace, opts Options) (*Result, error) {
	d := NewDetector(len(tr.Ranks))
	for rank, recs := range tr.Ranks {
		d.Feed(rank, recs)
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

// Feed replays the next records of one rank. Records must arrive in program
// order per rank; the batch is not retained. Safe for distinct ranks
// concurrently.
func (d *Detector) Feed(rank int, recs []trace.Record) {
	rp := d.replayers[rank]
	for i := range recs {
		rp.step(&recs[i])
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
	res := mergeShards(shards)
	mergeSpan.End()
	if len(res.Ops) > math.MaxInt32 {
		return nil, fmt.Errorf("conflict: %d data operations exceed the int32 group index space", len(res.Ops))
	}
	detectPairs(res, workers, oc)
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

// rankShard is one rank's replay output. Op/Sync FIDs index keys; the merge
// rewrites them to canonical file ids.
type rankShard struct {
	blocks  []*opBlock // all full but the last; mergeShards releases them
	nops    int
	sigs    *sigTable // the rank's signatures
	syncs   []SyncPoint
	keys    []localKey     // local fid -> identity, in first-use order
	unlinks map[string]int // path -> total unlinks on this rank
	skipped int
}

// rankReplayer holds one rank's in-progress metadata replay: the replay is
// a pure left-to-right fold over the rank's records, so it can consume them
// in any batch partitioning.
type rankReplayer struct {
	sh      *rankShard
	fids    map[localKey]int
	handles map[string]*handleState // handle arg -> state
	eof     map[int]int64           // local fid -> EOF estimate
}

func newRankReplayer() *rankReplayer {
	return &rankReplayer{
		sh:      &rankShard{unlinks: make(map[string]int), sigs: newSigTable()},
		fids:    make(map[localKey]int),
		handles: make(map[string]*handleState),
		eof:     make(map[int]int64),
	}
}

// fidOf resolves a path to the rank-local id of its current identity.
// During the scan sh.unlinks doubles as the unlinks-seen-so-far counter.
func (rp *rankReplayer) fidOf(path string) int {
	k := localKey{path: path, gen: rp.sh.unlinks[path]}
	id, ok := rp.fids[k]
	if !ok {
		id = len(rp.sh.keys)
		rp.fids[k] = id
		rp.sh.keys = append(rp.sh.keys, k)
	}
	return id
}

func (rp *rankReplayer) growEOF(fid int, end int64) {
	if end > rp.eof[fid] {
		rp.eof[fid] = end
	}
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
	k := sh.nops % opBlockLen
	if k == 0 {
		sh.blocks = append(sh.blocks, new(opBlock))
	}
	b := sh.blocks[len(sh.blocks)-1]
	b.ops[k] = Op{
		Ref: trace.Ref{Rank: rec.Rank, Seq: rec.Seq},
		FID: fid, Write: write, Start: start, End: start + n,
	}
	b.sig[k] = sh.sigs.intern(
		Sig{Func: rec.Func, Layer: rec.Layer, Site: rec.Site, Chain: rec.Chain})
	sh.nops++
	if write {
		rp.growEOF(fid, start+n)
	}
	return true
}

func (rp *rankReplayer) addSync(rec *trace.Record, fid int) {
	rp.sh.syncs = append(rp.sh.syncs, SyncPoint{
		Ref:  trace.Ref{Rank: rec.Rank, Seq: rec.Seq},
		Func: rec.Func, FID: fid,
	})
}

func (rp *rankReplayer) lookup(handle string) *handleState {
	return rp.handles[handle]
}

// step folds the next record into the replay.
func (rp *rankReplayer) step(rec *trace.Record) {
	sh := rp.sh
	fidOf, addOp, addSync, lookup := rp.fidOf, rp.addOp, rp.addSync, rp.lookup
	eof, handles := rp.eof, rp.handles
	switch rec.Func {
	case "open":
		fd := rec.Arg(2)
		if rec.Arg(0) == "" || fd == "" {
			sh.skipped++
			return
		}
		fid := fidOf(rec.Arg(0))
		st := &handleState{fid: fid}
		flags := rec.Arg(1)
		if strings.Contains(flags, "trunc") {
			eof[fid] = 0
		}
		if strings.Contains(flags, "append") {
			st.pos = eof[fid]
		}
		handles[fd] = st
		addSync(rec, fid)

	case "fopen":
		id := rec.Arg(2)
		if rec.Arg(0) == "" || id == "" {
			sh.skipped++
			return
		}
		fid := fidOf(rec.Arg(0))
		st := &handleState{fid: fid}
		switch rec.Arg(1) {
		case "w", "w+":
			eof[fid] = 0
		case "a", "a+":
			st.pos = eof[fid]
		}
		handles[id] = st
		addSync(rec, fid)

	case "close", "fclose":
		st := lookup(rec.Arg(0))
		if st == nil {
			sh.skipped++
			return
		}
		addSync(rec, st.fid)
		delete(handles, rec.Arg(0))

	case "fsync", "fdatasync":
		st := lookup(rec.Arg(0))
		if st == nil {
			sh.skipped++
			return
		}
		addSync(rec, st.fid)

	case "read", "write":
		st := lookup(rec.Arg(0))
		n, ok := rec.IntArg(1)
		if st == nil || !ok {
			sh.skipped++
			return
		}
		addOp(rec, st.fid, rec.Func == "write", st.pos, n)
		st.pos += n

	case "pread", "pwrite":
		st := lookup(rec.Arg(0))
		n, okN := rec.IntArg(1)
		off, okO := rec.IntArg(2)
		if st == nil || !okN || !okO {
			sh.skipped++
			return
		}
		addOp(rec, st.fid, rec.Func == "pwrite", off, n)

	case "fread", "fwrite":
		st := lookup(rec.Arg(0))
		size, okS := rec.IntArg(1)
		count, okC := rec.IntArg(2)
		// A corrupt record can carry negative fields or a
		// size*count product past int64: both would poison the
		// interval index with nonsense ranges.
		if st == nil || !okS || !okC || size < 0 || count < 0 ||
			(size > 0 && count > math.MaxInt64/size) {
			sh.skipped++
			return
		}
		// Access size = size * count (the paper's fwrite
		// example).
		n := size * count
		addOp(rec, st.fid, rec.Func == "fwrite", st.pos, n)
		st.pos += n

	case "readv", "writev":
		// [fd, iovcnt, len...] — contiguous in the file, so
		// one range of the summed lengths at the current
		// position.
		st := lookup(rec.Arg(0))
		cnt, okC := rec.IntArg(1)
		if st == nil || !okC || cnt < 0 || cnt > int64(len(rec.Args)) {
			sh.skipped++
			return
		}
		total := int64(0)
		bad := false
		for k := 0; k < int(cnt); k++ {
			n, ok := rec.IntArg(2 + k)
			if !ok {
				bad = true
				break
			}
			total += n
		}
		if bad {
			sh.skipped++
			return
		}
		addOp(rec, st.fid, rec.Func == "writev", st.pos, total)
		st.pos += total

	case "lseek", "fseek":
		st := lookup(rec.Arg(0))
		if st == nil {
			sh.skipped++
			return
		}
		// Prefer the recorded resulting position; fall back
		// to replaying the whence rule against (FP, EOF).
		if pos, ok := rec.IntArg(3); ok {
			st.pos = pos
			return
		}
		off, okO := rec.IntArg(1)
		whence, errW := recorder.ParseWhence(rec.Arg(2))
		if !okO || errW != nil {
			sh.skipped++
			return
		}
		switch whence {
		case 0: // SEEK_SET
			st.pos = off
		case 1: // SEEK_CUR
			st.pos += off
		case 2: // SEEK_END
			st.pos = eof[st.fid] + off
		}

	case "ftruncate":
		st := lookup(rec.Arg(0))
		size, ok := rec.IntArg(1)
		if st == nil || !ok {
			sh.skipped++
			return
		}
		// Truncation rewrites the affected range: shrink
		// clobbers [size, EOF), growth zero-fills [EOF, size).
		old := eof[st.fid]
		lo, hi := size, old
		if size > old {
			lo, hi = old, size
		}
		if addOp(rec, st.fid, true, lo, hi-lo) {
			eof[st.fid] = size
		}

	case "unlink":
		// Bumping the generation retires the path's current
		// identity: the next fidOf at this path resolves to a
		// fresh key.
		if rec.Arg(0) == "" {
			sh.skipped++
			return
		}
		sh.unlinks[rec.Arg(0)]++

	case "MPI_File_open":
		// [comm, path, amode, fd] — the fd aliases the nested
		// POSIX open, giving the MPI-IO sync op its file.
		if rec.Arg(1) == "" {
			sh.skipped++
			return
		}
		addSync(rec, fidOf(rec.Arg(1)))

	case "MPI_File_close", "MPI_File_sync":
		st := lookup(rec.Arg(0))
		if st == nil {
			// The nested POSIX close has already removed the
			// handle when the MPI-IO record is emitted
			// (records appear at call return, innermost
			// first). Resolve through the close that just
			// happened instead.
			if fid, ok := lastClosedFID(sh.syncs, rec.Seq); ok {
				addSync(rec, fid)
				return
			}
			sh.skipped++
			return
		}
		addSync(rec, st.fid)
	}
}

// lastClosedFID finds the fid of the most recent close/fsync sync point on
// this rank (the nested POSIX record of the enclosing MPI-IO call).
func lastClosedFID(syncs []SyncPoint, beforeSeq int) (int, bool) {
	for i := len(syncs) - 1; i >= 0; i-- {
		sp := syncs[i]
		if sp.Ref.Seq >= beforeSeq {
			continue
		}
		switch sp.Func {
		case "close", "fclose", "fsync", "fdatasync":
			return sp.FID, true
		}
		return 0, false
	}
	return 0, false
}

// mergeShards canonicalizes file identities and concatenates the per-rank
// outputs in rank order, reproducing exactly the ids and ordering of a
// single rank-major scan with one global path table.
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
func mergeShards(shards []*rankShard) *Result {
	res := &Result{}
	nops, nsyncs := 0, 0
	for _, sh := range shards {
		nops += sh.nops
		nsyncs += len(sh.syncs)
		res.Skipped += sh.skipped
	}
	res.Ops = make([]Op, nops)
	res.OpSig = make([]int32, nops)
	res.Syncs = make([]SyncPoint, 0, nsyncs)
	sigs := newSigTable()
	at := 0 // next free position of res.Ops / res.OpSig

	canon := make(map[localKey]int)
	genBefore := make(map[string]int)
	for _, sh := range shards {
		remap := make([]int, len(sh.keys))
		for i, k := range sh.keys {
			gk := localKey{path: k.path, gen: k.gen + genBefore[k.path]}
			id, ok := canon[gk]
			if !ok {
				id = len(res.Files)
				canon[gk] = id
				res.Files = append(res.Files, k.path)
			}
			remap[i] = id
		}
		for p, n := range sh.unlinks {
			genBefore[p] += n
		}
		for _, sp := range sh.syncs {
			sp.FID = remap[sp.FID]
			res.Syncs = append(res.Syncs, sp)
		}
		// Signatures canonicalize like file ids: numbered on first sight in
		// the rank-major walk.
		sigMap := make([]int32, len(sh.sigs.sigs))
		for i, sg := range sh.sigs.sigs {
			sigMap[i] = sigs.intern(sg)
		}
		for bi, b := range sh.blocks {
			for i := range min(opBlockLen, sh.nops-bi*opBlockLen) {
				op := b.ops[i]
				op.FID = remap[op.FID]
				res.Ops[at], res.OpSig[at] = op, sigMap[b.sig[i]]
				at++
			}
			sh.blocks[bi] = nil // copied: the block is garbage from here on
		}
	}
	res.Sigs = sigs.sigs
	return res
}

// PathOf returns the path for a file id.
func (r *Result) PathOf(fid int) string {
	if fid < 0 || fid >= len(r.Files) {
		return fmt.Sprintf("fid(%d)", fid)
	}
	return r.Files[fid]
}
