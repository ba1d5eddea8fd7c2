// Package match implements step 3 of the VerifyIO workflow: matching the
// MPI calls recorded in a trace to establish the synchronization order
// (Def. 2) between operations, and flagging unmatched or mismatched calls
// (the §V-D findings).
//
// Matching rules, following §IV-C:
//
//   - Point-to-point calls match by (communicator, source, destination,
//     tag) in FIFO order (MPI's non-overtaking rule). Wildcard receives
//     (MPI_ANY_SOURCE / MPI_ANY_TAG) are resolved from the actual source
//     and tag the tracer recorded out of the MPI_Status.
//
//   - Non-blocking operations are identified by request id; their
//     completion is the MPI_Wait*/MPI_Test* record that retired the
//     request. The happens-before edge of a matched message runs from the
//     send's initiation record to the receive's completion record.
//
//   - Collective calls match per communicator in program order: the k-th
//     collective on a communicator matches the k-th on every other member.
//     Communicator membership comes from the recorded MPI_Comm_dup/split
//     creation records (every communicator has a globally unique id).
//     A slot whose calls disagree on the function name, or that some
//     member never reaches, is reported as unmatched.
//
// Communicator resolution is rank-symmetric: a rank resolves a communicator
// from comm-world and its own earlier creation records, never another
// rank's — MPI gives a process no handle it did not help create. A use with
// no earlier creation on the same rank is a MalformedRecord ("unknown
// communicator"), whatever the rank's number; so a rank's scan depends on
// that rank's records alone, and ranks can be scanned in any order. The
// membership table the collectives are matched against is built afterwards
// from every rank's registrations in rank order: where two ranks register
// one id with different member lists, the lower rank's list stands.
//
// Synchronization edges per collective follow its data flow:
//
//   - barrier-like (Barrier, Allreduce, Allgather, Alltoall, Comm_dup,
//     Comm_split, Comm_free): everything po-before the call on any rank
//     happens-before everything po-after the call on every other rank —
//     acyclically, pred(call_i) → call_j for i ≠ j, where pred is the
//     po-predecessor. That is P(P−1) pairs per call, so it is stored as a
//     join node: pred(call_i) → J and J → call_j, at most 2P edges.
//   - rooted scatter-like (Bcast, Scatter): root's call → every other call.
//   - rooted gather-like (Reduce, Gather): every non-root call → root's
//     call.
//
// A join node is a virtual endpoint, not a record: trace.Ref{Rank: -1,
// Seq: k} names the k-th join in slot order (communicators by id, slots in
// call order), so the edge list stays a pure function of the trace. A join
// has at least one edge in and one out, its other endpoints are records, and
// joins never connect to each other; it orders exactly (every source) →
// (every target on another rank). Result.Edges is the complete
// synchronization order in this encoding — internal/hbgraph consumes it as
// is — and Pairwise expands it to plain record-to-record pairs for the
// reference oracles and tests that want the relation spelled out.
//
// Collective MPI-IO data/metadata calls (MPI_File_open/close/sync/
// write_at_all/...) are matched for error detection but contribute no
// synchronization edges: MPI collective calls are not synchronizing unless
// they move data, which is exactly why the sync-barrier-sync construct is
// needed (§II-A4).
package match

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"verifyio/internal/obs"
	"verifyio/internal/trace"
)

// Edge is a synchronization-order edge: From happens-before To. One of the
// two may be a join node (Rank == -1, see the package comment).
type Edge struct {
	From, To trace.Ref
}

// joinRank marks a trace.Ref as a join node rather than a record.
const joinRank = -1

// Pairwise expands the join nodes of a matcher edge list into the pairwise
// synchronization order they stand for — source → target for every source
// and every target of a join on different ranks — and returns it with the
// plain edges, sorted by (From, To). The expansion is quadratic in the
// communicator size; it exists for the reference oracles and for tests.
func Pairwise(edges []Edge) []Edge {
	out := make([]Edge, 0, len(edges))
	srcs, dsts := map[int32][]trace.Ref{}, map[int32][]trace.Ref{}
	for _, e := range edges {
		switch {
		case e.To.Rank == joinRank:
			srcs[e.To.Seq] = append(srcs[e.To.Seq], e.From)
		case e.From.Rank == joinRank:
			dsts[e.From.Seq] = append(dsts[e.From.Seq], e.To)
		default:
			out = append(out, e)
		}
	}
	for k, from := range srcs {
		for _, f := range from {
			for _, t := range dsts[k] {
				if f.Rank != t.Rank {
					out = append(out, Edge{From: f, To: t})
				}
			}
		}
	}
	slices.SortFunc(out, func(a, b Edge) int {
		return cmp.Or(refCompare(a.From, b.From), refCompare(a.To, b.To))
	})
	return out
}

// Problem is an unmatched or mismatched MPI call.
type Problem struct {
	// Kind classifies the problem.
	Kind ProblemKind
	// Refs are the involved records (one per rank where applicable).
	Refs []trace.Ref
	// Detail is a human-readable description.
	Detail string
}

// ProblemKind classifies matching failures.
type ProblemKind int

// Problem kinds.
const (
	// MismatchedCollective: members reached the same slot with different
	// collective functions (e.g. MPI_File_write_at_all vs
	// MPI_File_write_all — the ncmpi_wait bug).
	MismatchedCollective ProblemKind = iota
	// MissingCollective: a member made fewer collective calls on the
	// communicator than its peers (e.g. collective_error).
	MissingCollective
	// UnmatchedSend: a send with no matching receive.
	UnmatchedSend
	// UnmatchedRecv: a receive with no matching send.
	UnmatchedRecv
	// DanglingRequest: a non-blocking operation never completed by
	// MPI_Wait*/MPI_Test*.
	DanglingRequest
	// MalformedRecord: an MPI record whose arguments could not be
	// interpreted.
	MalformedRecord
)

var problemNames = map[ProblemKind]string{
	MismatchedCollective: "mismatched-collective",
	MissingCollective:    "missing-collective",
	UnmatchedSend:        "unmatched-send",
	UnmatchedRecv:        "unmatched-recv",
	DanglingRequest:      "dangling-request",
	MalformedRecord:      "malformed-record",
}

func (k ProblemKind) String() string {
	if s, ok := problemNames[k]; ok {
		return s
	}
	return fmt.Sprintf("problem(%d)", int(k))
}

// Result is the matcher's output.
type Result struct {
	// Edges are the synchronization-order edges, barrier-like collectives
	// as join nodes, in generation order (see Matcher.Finish).
	Edges []Edge
	// Problems are the unmatched/mismatched calls. A non-empty list means
	// the verification step cannot trust the happens-before order (the
	// gray rows of Fig. 4).
	Problems []Problem
	// Collectives is the number of matched collective slots.
	Collectives int
	// P2P is the number of matched point-to-point pairs.
	P2P int
}

// classification of MPI functions.
var (
	barrierLike = map[string]bool{
		"MPI_Barrier": true, "MPI_Allreduce": true, "MPI_Allgather": true,
		"MPI_Alltoall": true, "MPI_Comm_dup": true, "MPI_Comm_split": true,
		"MPI_Comm_free": true, "MPI_Ibarrier": true, "MPI_Iallreduce": true,
	}
	scatterLike = map[string]bool{"MPI_Bcast": true, "MPI_Scatter": true}
	gatherLike  = map[string]bool{"MPI_Reduce": true, "MPI_Gather": true}
	// prefixLike collectives order lower comm ranks before higher ones:
	// rank i's result depends on every rank j < i.
	prefixLike = map[string]bool{"MPI_Scan": true, "MPI_Exscan": true}
	// fileCollective calls are matched for error detection only.
	fileCollective = map[string]bool{
		"MPI_File_open": true, "MPI_File_close": true, "MPI_File_sync": true,
		"MPI_File_set_view": true, "MPI_File_set_size": true,
		"MPI_File_read_all": true, "MPI_File_write_all": true,
		"MPI_File_read_at_all": true, "MPI_File_write_at_all": true,
	}
)

// collectiveClass reports whether fn participates in slot matching and, if
// so, at most how many edges per member a matched slot of it emits: two for
// a barrier-like join, one for the other synchronizing classes, none for an
// MPI-IO collective.
func collectiveClass(fn string) (perMember int, ok bool) {
	switch {
	case barrierLike[fn]:
		return 2, true
	case scatterLike[fn] || gatherLike[fn] || prefixLike[fn]:
		return 1, true
	}
	return 0, fileCollective[fn]
}

// collEntry is one rank's participation in a collective slot.
type collEntry struct {
	fn         string
	init       trace.Ref
	completion trace.Ref // == init for blocking calls
	rootArg    int       // root for rooted collectives, else -1
}

// sendEntry is an unmatched send.
type sendEntry struct {
	init trace.Ref
	tag  int
}

// recvEntry is an unmatched receive (with resolved actual src/tag).
type recvEntry struct {
	init       trace.Ref
	completion trace.Ref
	src, tag   int // actual values from the status
	resolved   bool
}

// Options configures the matcher.
type Options struct {
	// Workers is unused: the per-rank scans are the caller's to spread
	// over goroutines (Matcher.Feed, as verify.Analyze does) and the
	// cross-rank phase is serial. Kept so callers configure every stage
	// alike.
	Workers int
	// Obs carries the tracer; the zero Ctx disables tracing.
	Obs obs.Ctx
}

// MatchOpts replays the MPI records of tr: a Matcher fed every rank whole.
// The error is always nil; the signature stays while benchmark/ reads two
// results.
func MatchOpts(tr *trace.Trace, opts Options) (*Result, error) {
	m := NewMatcher(tr.NumRanks())
	for rank, recs := range tr.Ranks {
		m.Feed(rank, recs)
	}
	return m.Finish(opts), nil
}

// Matcher runs matching over records as they arrive. Each rank's scan keeps
// only that rank's state (see the package comment's communicator rule), so a
// rank's records in program order — in any batch partitioning, ranks in any
// order or fed from concurrent goroutines — give one Result; Finish runs the
// cross-rank collective and point-to-point matching.
type Matcher struct {
	world    []int // comm-world's members, shared read-only by every scan
	scanners []*rankScanner
}

// NewMatcher prepares matching state for nranks ranks.
func NewMatcher(nranks int) *Matcher {
	m := &Matcher{world: make([]int, nranks), scanners: make([]*rankScanner, nranks)}
	for i := range m.world {
		m.world[i] = i
	}
	for rank := range m.scanners {
		m.scanners[rank] = newRankScanner(rank, m.world)
	}
	return m
}

// Feed scans the next records of one rank. The batch is not retained. Safe
// for distinct ranks concurrently.
func (m *Matcher) Feed(rank int, recs []trace.Record) {
	sc := m.scanners[rank]
	for i := range recs {
		sc.step(&recs[i])
	}
}

// Finish completes matching over everything fed: it merges the per-rank scan
// outputs in rank order — the append order of a serial rank-major scan
// (per-key send/recv buckets and per-rank collective entry lists all grow
// rank by rank there too) — builds the membership table, and runs the
// cross-rank collective and point-to-point matching.
//
// The edge list is sized once, from the scans' bounds, and left in
// generation order: communicators by id, slots in call order, members in
// communicator order, then point-to-point keys in key order — a pure
// function of the trace, like the join numbering.
func (m *Matcher) Finish(opts Options) *Result {
	oc, span := opts.Obs.StartLane("match", "match", obs.Int("ranks", len(m.scanners)))
	span.SetCat("match")
	defer span.End()

	_, mergeSpan := oc.Start("merge")
	mm := &matcher{
		res:     &Result{},
		members: map[string][]int{"comm-world": m.world},
		colls:   map[string]map[int][]collEntry{},
		sends:   map[p2pKey][]sendEntry{},
		recvs:   map[p2pKey][]recvEntry{},
	}
	edges := 0
	for rank, sc := range m.scanners {
		out := sc.finish()
		edges += sc.edges
		// A malformed registration was reported by the rank that made it.
		for _, reg := range sc.regs {
			_ = registerComm(mm.members, reg[0], reg[1])
		}
		mm.res.Problems = append(mm.res.Problems, out.problems...)
		for gid, entries := range out.colls {
			byRank, ok := mm.colls[gid]
			if !ok {
				byRank = map[int][]collEntry{}
				mm.colls[gid] = byRank
			}
			byRank[rank] = entries
		}
		for key, entries := range out.sends {
			mm.sends[key] = append(mm.sends[key], entries...)
		}
		for key, entries := range out.recvs {
			mm.recvs[key] = append(mm.recvs[key], entries...)
		}
	}
	mm.res.Edges = make([]Edge, 0, edges)
	mergeSpan.End()

	_, collSpan := oc.Start("collectives")
	mm.matchCollectives()
	collSpan.End()
	_, p2pSpan := oc.Start("p2p")
	mm.matchP2P()
	p2pSpan.End()
	slices.SortFunc(mm.res.Problems, func(a, b Problem) int {
		return cmp.Or(cmp.Compare(a.Kind, b.Kind), cmp.Compare(a.Detail, b.Detail))
	})
	return mm.res
}

type p2pKey struct {
	comm     string
	src, dst int // world ranks
	tag      int
}

type matcher struct {
	res *Result
	// joins counts the join nodes emitted so far; the next one's Seq.
	joins int32

	// members: communicator gid -> world ranks.
	members map[string][]int
	// colls: gid -> world rank -> ordered collective entries.
	colls map[string]map[int][]collEntry
	// sends/recvs: matching buckets.
	sends map[p2pKey][]sendEntry
	recvs map[p2pKey][]recvEntry
}

func (m *matcher) problem(kind ProblemKind, detail string, refs ...trace.Ref) {
	m.res.Problems = append(m.res.Problems, Problem{Kind: kind, Detail: detail, Refs: refs})
}

// pendingReq tracks a not-yet-completed non-blocking operation during the
// per-rank scan.
type pendingReq struct {
	fn   string
	init trace.Ref
	comm string
	peer int // dst for isend, requested src for irecv (may be -1)
	tag  int // requested tag (may be -1)
	// collGID/collIdx locate a non-blocking collective's entry so its
	// completion record can be filled in (indices, not pointers: the
	// per-rank entry slice may be reallocated by later appends).
	collGID string
	collIdx int
}

// rankOut is one rank's scan output, merged rank-major by Finish.
type rankOut struct {
	// colls: gid -> this rank's ordered collective entries.
	colls map[string][]collEntry
	// sends/recvs: this rank's contributions to the matching buckets.
	sends    map[p2pKey][]sendEntry
	recvs    map[p2pKey][]recvEntry
	problems []Problem
}

func (o *rankOut) problem(kind ProblemKind, detail string, refs ...trace.Ref) {
	o.problems = append(o.problems, Problem{Kind: kind, Detail: detail, Refs: refs})
}

// rankScanner is one rank's scan state, so records can be fed one batch at a
// time: pending requests, the rank's view of the communicators, and the
// forward-tracked open-file table that answers MPI-IO communicator recovery
// without looking back.
type rankScanner struct {
	rank int
	// members: the communicators this rank can name — comm-world and the
	// ones its own records created so far.
	members map[string][]int
	out     *rankOut
	pending map[string]*pendingReq // request id -> op
	// regs: the rank's communicator registrations (gid, member list) in
	// record order, from which Finish builds the global membership table.
	regs [][2]string
	// openByFd: fh -> comm of the most recent MPI_File_open that produced
	// it; lastOpen is the comm of the most recent open of any fh. Together
	// they answer "nearest preceding open" queries without looking back.
	openByFd map[string]string
	lastOpen string
	anyOpen  bool
	// edges bounds the edges the rank's calls can emit: one per send, and
	// collectiveClass's count per synchronizing collective.
	edges int
}

func newRankScanner(rank int, world []int) *rankScanner {
	return &rankScanner{
		rank:    rank,
		members: map[string][]int{"comm-world": world},
		out: &rankOut{
			colls: map[string][]collEntry{},
			sends: map[p2pKey][]sendEntry{},
			recvs: map[p2pKey][]recvEntry{},
		},
		pending:  map[string]*pendingReq{},
		openByFd: map[string]string{},
	}
}

// addColl appends the rank's next call on communicator gid, which can emit
// up to perMember edges once matched.
func (sc *rankScanner) addColl(gid string, e collEntry, perMember int) int {
	sc.edges += perMember
	sc.out.colls[gid] = append(sc.out.colls[gid], e)
	return len(sc.out.colls[gid]) - 1
}

// complete retires a request id at the given completion record with the
// given actual (src, tag) status.
func (sc *rankScanner) complete(req string, at trace.Ref, src, tag int) {
	p, ok := sc.pending[req]
	if !ok {
		// Completing an unknown/already-done request: tolerated
		// (MPI_Test on an inactive request is legal).
		return
	}
	delete(sc.pending, req)
	switch {
	case p.collGID != "":
		sc.out.colls[p.collGID][p.collIdx].completion = at
	case p.fn == "MPI_Isend":
		// The send edge uses the initiation record; nothing to do
		// at completion.
	case p.fn == "MPI_Irecv":
		key := p2pKey{comm: p.comm, src: src, dst: sc.rank, tag: tag}
		sc.out.recvs[key] = append(sc.out.recvs[key], recvEntry{
			init: p.init, completion: at, src: src, tag: tag, resolved: true,
		})
	}
}

// step scans one record.
func (sc *rankScanner) step(rec *trace.Record) {
	rank, out, members, pending := sc.rank, sc.out, sc.members, sc.pending
	if rec.Layer != trace.LayerMPI && rec.Layer != trace.LayerMPIIO {
		return
	}
	ref := trace.Ref{Rank: int32(rank), Seq: int32(rec.Seq)}
	malformed := func(why string) {
		out.problem(MalformedRecord, fmt.Sprintf("%s: %s", rec.Func, why), ref)
	}

	switch rec.Func {
	case "MPI_Send":
		comm, dst, tag, ok := commPeerTag(rec)
		if !ok {
			malformed("bad arguments")
			return
		}
		dstWorld, ok := worldRank(members, comm, dst)
		if !ok {
			malformed("unknown communicator " + comm)
			return
		}
		srcComm, _ := commRank(members, comm, rank)
		key := p2pKey{comm: comm, src: srcComm, dst: dstWorld, tag: tag}
		out.sends[key] = append(out.sends[key], sendEntry{init: ref, tag: tag})
		sc.edges++

	case "MPI_Sendrecv":
		// [comm, dst, stag, scount, src, rtag, nrecv, aSrc, aTag]
		// — one record, two events: a send and a completed receive.
		comm, dst, stag, ok := commPeerTag(rec)
		aSrc, ok1 := rec.IntArg(7)
		aTag, ok2 := rec.IntArg(8)
		if !ok || !ok1 || !ok2 {
			malformed("bad arguments")
			return
		}
		dstWorld, okD := worldRank(members, comm, dst)
		if !okD {
			malformed("unknown communicator " + comm)
			return
		}
		srcComm, _ := commRank(members, comm, rank)
		sKey := p2pKey{comm: comm, src: srcComm, dst: dstWorld, tag: stag}
		out.sends[sKey] = append(out.sends[sKey], sendEntry{init: ref, tag: stag})
		sc.edges++
		rKey := p2pKey{comm: comm, src: int(aSrc), dst: rank, tag: int(aTag)}
		out.recvs[rKey] = append(out.recvs[rKey], recvEntry{
			init: ref, completion: ref, src: int(aSrc), tag: int(aTag), resolved: true,
		})

	case "MPI_Isend":
		comm, dst, tag, ok := commPeerTag(rec)
		req := rec.Arg(4)
		if !ok || req == "" {
			malformed("bad arguments")
			return
		}
		dstWorld, ok := worldRank(members, comm, dst)
		if !ok {
			malformed("unknown communicator " + comm)
			return
		}
		srcComm, _ := commRank(members, comm, rank)
		key := p2pKey{comm: comm, src: srcComm, dst: dstWorld, tag: tag}
		out.sends[key] = append(out.sends[key], sendEntry{init: ref, tag: tag})
		sc.edges++
		pending[req] = &pendingReq{fn: rec.Func, init: ref, comm: comm, peer: dst, tag: tag}

	case "MPI_Recv":
		// [comm, src, tag, n, actualSrc, actualTag]
		comm := rec.Arg(0)
		aSrc, ok1 := rec.IntArg(4)
		aTag, ok2 := rec.IntArg(5)
		if comm == "" || !ok1 || !ok2 {
			malformed("bad arguments")
			return
		}
		key := p2pKey{comm: comm, src: int(aSrc), dst: rank, tag: int(aTag)}
		out.recvs[key] = append(out.recvs[key], recvEntry{
			init: ref, completion: ref, src: int(aSrc), tag: int(aTag), resolved: true,
		})

	case "MPI_Irecv":
		comm, src, tag, ok := commPeerTag(rec)
		req := rec.Arg(3)
		if !ok || req == "" {
			malformed("bad arguments")
			return
		}
		pending[req] = &pendingReq{fn: rec.Func, init: ref, comm: comm, peer: src, tag: tag}

	case "MPI_Wait":
		// [req, src, tag]
		src, _ := rec.IntArg(1)
		tag, _ := rec.IntArg(2)
		sc.complete(rec.Arg(0), ref, int(src), int(tag))

	case "MPI_Waitall", "MPI_Testall":
		n, ok := rec.IntArg(0)
		if !ok || n < 0 || n > int64(len(rec.Args)) {
			malformed("bad count")
			return
		}
		statusBase := 1 + int(n)
		if rec.Func == "MPI_Testall" {
			if rec.Arg(statusBase) != "1" {
				return // flag=0: nothing completed
			}
			statusBase++
		}
		for k := 0; k < int(n); k++ {
			src, _ := rec.IntArg(statusBase + 2*k)
			tag, _ := rec.IntArg(statusBase + 2*k + 1)
			sc.complete(rec.Arg(1+k), ref, int(src), int(tag))
		}

	case "MPI_Test":
		// [req, flag, src, tag]
		if rec.Arg(1) != "1" {
			return
		}
		src, _ := rec.IntArg(2)
		tag, _ := rec.IntArg(3)
		sc.complete(rec.Arg(0), ref, int(src), int(tag))

	case "MPI_Waitany":
		// [n, reqs..., idx, src, tag]
		n, ok := rec.IntArg(0)
		if !ok || n < 0 || n > int64(len(rec.Args)) {
			malformed("bad count")
			return
		}
		idx, okI := rec.IntArg(1 + int(n))
		if !okI || idx < 0 || idx >= n {
			malformed("bad completion index")
			return
		}
		src, _ := rec.IntArg(1 + int(n) + 1)
		tag, _ := rec.IntArg(1 + int(n) + 2)
		sc.complete(rec.Arg(1+int(idx)), ref, int(src), int(tag))

	case "MPI_Waitsome", "MPI_Testsome":
		// [n, reqs..., outcount, indices..., (src,tag)...]
		n, ok := rec.IntArg(0)
		if !ok || n < 0 || n > int64(len(rec.Args)) {
			malformed("bad count")
			return
		}
		base := 1 + int(n)
		outc, okC := rec.IntArg(base)
		if !okC || outc < 0 || outc > n {
			malformed("bad outcount")
			return
		}
		for k := 0; k < int(outc); k++ {
			idx, okI := rec.IntArg(base + 1 + k)
			if !okI || idx < 0 || idx >= n {
				malformed("bad completion index")
				continue
			}
			src, _ := rec.IntArg(base + 1 + int(outc) + 2*k)
			tag, _ := rec.IntArg(base + 1 + int(outc) + 2*k + 1)
			sc.complete(rec.Arg(1+int(idx)), ref, int(src), int(tag))
		}

	case "MPI_Comm_dup":
		// [parent, new, members]
		sc.regs = append(sc.regs, [2]string{rec.Arg(1), rec.Arg(2)})
		if err := registerComm(members, rec.Arg(1), rec.Arg(2)); err != nil {
			malformed(err.Error())
		}
		sc.addColl(rec.Arg(0), collEntry{fn: rec.Func, init: ref, completion: ref, rootArg: -1}, 2)

	case "MPI_Comm_split":
		// [parent, color, key, new, members]
		sc.regs = append(sc.regs, [2]string{rec.Arg(3), rec.Arg(4)})
		if err := registerComm(members, rec.Arg(3), rec.Arg(4)); err != nil {
			malformed(err.Error())
		}
		sc.addColl(rec.Arg(0), collEntry{fn: rec.Func, init: ref, completion: ref, rootArg: -1}, 2)

	case "MPI_Ibarrier", "MPI_Iallreduce":
		// [comm, (op,) req]
		comm := rec.Arg(0)
		req := rec.Arg(len(rec.Args) - 1)
		if comm == "" || req == "" {
			malformed("bad arguments")
			return
		}
		idx := sc.addColl(comm, collEntry{fn: rec.Func, init: ref, completion: ref, rootArg: -1}, 2)
		pending[req] = &pendingReq{fn: rec.Func, init: ref, comm: comm, collGID: comm, collIdx: idx}

	default:
		perMember, isColl := collectiveClass(rec.Func)
		if !isColl {
			return
		}
		root := -1
		if scatterLike[rec.Func] || gatherLike[rec.Func] {
			if v, ok := rec.IntArg(1); ok {
				root = int(v)
			}
		}
		comm := rec.Arg(0)
		if rec.Func == "MPI_File_close" || rec.Func == "MPI_File_sync" ||
			rec.Func == "MPI_File_set_view" || rec.Func == "MPI_File_set_size" ||
			strings.HasPrefix(rec.Func, "MPI_File_read") || strings.HasPrefix(rec.Func, "MPI_File_write") {
			// MPI-IO collectives carry an fh, not a comm; they are
			// matched on the communicator of the enclosing open —
			// recovered from the open-file table.
			comm = ""
		}
		if rec.Func == "MPI_File_open" {
			comm = rec.Arg(0)
			// Record the open before resolving, so an open with an
			// empty comm resolves through itself like the backward
			// scan did.
			sc.openByFd[rec.Arg(3)] = rec.Arg(0)
			sc.lastOpen = rec.Arg(0)
			sc.anyOpen = true
		}
		sc.addColl(sc.fileComm(rec, comm), collEntry{fn: rec.Func, init: ref, completion: ref, rootArg: root}, perMember)
	}
}

// finish reports dangling requests and returns the rank's scan output.
func (sc *rankScanner) finish() *rankOut {
	// Dangling requests are reported in initiation order: map iteration
	// order must not leak into the problem list.
	pending := sc.pending
	dangling := make([]string, 0, len(pending))
	for req := range pending {
		dangling = append(dangling, req)
	}
	slices.SortFunc(dangling, func(a, b string) int {
		if c := cmp.Compare(pending[a].init.Seq, pending[b].init.Seq); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	for _, req := range dangling {
		p := pending[req]
		sc.out.problem(DanglingRequest,
			fmt.Sprintf("%s request %s never completed by MPI_Wait*/MPI_Test*", p.fn, req), p.init)
	}
	return sc.out
}

// fileComm resolves the communicator for MPI-IO collective records: the comm
// of the most recent MPI_File_open on this rank. The open-file table is the
// forward-tracked equivalent of scanning backwards for the nearest preceding
// open — the most recent open with this fh is exactly the nearest preceding
// one. (A single open file per rank at a time covers this simulation's
// programs; the fh→comm table also handles interleaved opens on different
// communicators.)
func (sc *rankScanner) fileComm(rec *trace.Record, explicit string) string {
	if explicit != "" {
		return explicit
	}
	if comm, ok := sc.openByFd[rec.Arg(0)]; ok {
		return comm
	}
	// Fall back to the last open of any fd.
	if sc.anyOpen {
		return sc.lastOpen
	}
	return "comm-world"
}

// registerComm records the membership of a newly created communicator. A
// malformed creation record is reported, not silently dropped: later
// collectives on the unregistered communicator would otherwise surface as
// confusing mismatched/missing-collective problems with no hint that the
// creation itself was the bad record.
func registerComm(members map[string][]int, gid, list string) error {
	if gid == "" || list == "" {
		return fmt.Errorf("communicator creation missing group id or member list")
	}
	if _, ok := members[gid]; ok {
		return nil
	}
	parts := strings.Split(list, ",")
	ranks := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil || v < 0 {
			return fmt.Errorf("communicator %s member list %q: %q is not a rank", gid, list, p)
		}
		ranks = append(ranks, v)
	}
	members[gid] = ranks
	return nil
}

func worldRank(members map[string][]int, gid string, commRank int) (int, bool) {
	mem, ok := members[gid]
	if !ok || commRank < 0 || commRank >= len(mem) {
		return -1, false
	}
	return mem[commRank], true
}

func commRank(members map[string][]int, gid string, world int) (int, bool) {
	for i, w := range members[gid] {
		if w == world {
			return i, true
		}
	}
	return -1, false
}

func commPeerTag(rec *trace.Record) (comm string, peer, tag int, ok bool) {
	comm = rec.Arg(0)
	p, ok1 := rec.IntArg(1)
	t, ok2 := rec.IntArg(2)
	if comm == "" || !ok1 || !ok2 {
		return "", 0, 0, false
	}
	return comm, int(p), int(t), true
}
