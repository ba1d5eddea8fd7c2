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

// The MPI constants a trace records as -1: a receive's wildcard source and
// tag, and a completion's index or outcount when no listed request was
// active.
const (
	anySource    = -1
	anyTag       = -1
	mpiUndefined = -1
)

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

// edgesPerMember is at most how many edges a matched slot of a collective
// of class k emits per member: two for a barrier-like join, one for the
// other synchronizing classes, none for an MPI-IO collective.
func edgesPerMember(k trace.CallKind) int {
	switch k {
	case trace.KindBarrier:
		return 2
	case trace.KindFile, trace.KindFileSync:
		return 0
	}
	return 1
}

// collEntry is one rank's participation in a collective slot.
type collEntry struct {
	call       *trace.Call
	init       trace.Ref
	completion trace.Ref // == init for blocking calls
	rootArg    int       // root for rooted collectives, else -1
}

// recvEntry is an unmatched receive; sends are their initiation records.
type recvEntry struct {
	init, completion trace.Ref
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
		sends:   map[p2pKey][]trace.Ref{},
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
	sends map[p2pKey][]trace.Ref
	recvs map[p2pKey][]recvEntry
}

func (m *matcher) problem(kind ProblemKind, detail string, refs ...trace.Ref) {
	m.res.Problems = append(m.res.Problems, Problem{Kind: kind, Detail: detail, Refs: refs})
}

// pendingReq tracks a not-yet-completed non-blocking operation during the
// per-rank scan.
type pendingReq struct {
	call *trace.Call
	init trace.Ref
	comm string
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
	sends    map[p2pKey][]trace.Ref
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
	// edgesPerMember per collective.
	edges int
	calls trace.CallCache
}

func newRankScanner(rank int, world []int) *rankScanner {
	return &rankScanner{
		rank:    rank,
		members: map[string][]int{"comm-world": world},
		out: &rankOut{
			colls: map[string][]collEntry{},
			sends: map[p2pKey][]trace.Ref{},
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

// complete retires request req of the completion record rec with the
// (src, tag) status read for it.
func (sc *rankScanner) complete(rec *trace.Record, req string, src, tag int, statusOK bool) {
	p, ok := sc.pending[req]
	if !ok {
		// Completing an unknown/already-done request: tolerated
		// (MPI_Test on an inactive request is legal).
		return
	}
	delete(sc.pending, req)
	at := sc.ref(rec)
	switch {
	case p.collGID != "":
		sc.out.colls[p.collGID][p.collIdx].completion = at
	case p.call.Kind != trace.KindRecv:
		// The send edge uses the initiation record; nothing to do at
		// completion.
	case !statusOK:
		sc.malformed(rec, "bad status")
	default:
		sc.received(p.comm, p.init, at, src, tag)
	}
}

// received adds a receive completed at completion, with its actual source
// and tag resolved from the recorded status.
func (sc *rankScanner) received(comm string, init, completion trace.Ref, src, tag int) {
	key := p2pKey{comm: comm, src: src, dst: sc.rank, tag: tag}
	sc.out.recvs[key] = append(sc.out.recvs[key], recvEntry{init: init, completion: completion})
}

func (sc *rankScanner) ref(rec *trace.Record) trace.Ref {
	return trace.Ref{Rank: int32(sc.rank), Seq: int32(rec.Seq)}
}

func (sc *rankScanner) malformed(rec *trace.Record, why string) {
	sc.out.problem(MalformedRecord, fmt.Sprintf("%s: %s", rec.Func, why), sc.ref(rec))
}

// status reads the (source, tag) pair of a completed receive at position
// at: the actual sender and tag, so neither is a wildcard.
func status(rec *trace.Record, at int) (src, tag int, ok bool) {
	src, ok1 := rec.Int32Arg(at)
	tag, ok2 := rec.Int32Arg(at + 1)
	return src, tag, ok1 && ok2 && src >= 0 && tag >= 0
}

// step scans one record. Calls are read through the call table, so calls of
// one kind share one path: Send, Isend and Sendrecv send; Sendrecv and Recv
// carry a completed receive's status; Isend, Irecv and the non-blocking
// collectives a request.
func (sc *rankScanner) step(rec *trace.Record) {
	if rec.Layer != trace.LayerMPI && rec.Layer != trace.LayerMPIIO {
		return
	}
	c := sc.calls.Of(rec.Func)
	if c == nil {
		return
	}
	ref := sc.ref(rec)
	comm, req := rec.Arg(c.Pos(rec, trace.Comm)), rec.Arg(c.Pos(rec, trace.Request))
	switch {
	case c.Kind == trace.KindSend || c.Kind == trace.KindRecv:
		ok := comm != "" && (req != "" || !c.Has(trace.Request))
		// A send names a rank and a tag of at least 0; a receive may
		// instead request any source or any tag. A blocking receive is
		// matched on its status alone.
		peer, okP := rec.Int32Arg(c.Pos(rec, trace.Peer))
		tag, okT := rec.Int32Arg(c.Pos(rec, trace.Tag))
		if c.Kind == trace.KindSend {
			ok = ok && okP && okT && peer >= 0 && tag >= 0
		} else {
			ok = ok && okP && okT && peer >= anySource && tag >= anyTag
		}
		var src, stag int
		if c.Has(trace.Status) {
			var okS bool
			src, stag, okS = status(rec, c.Pos(rec, trace.Status))
			ok = ok && okS
		}
		if !ok {
			sc.malformed(rec, "bad arguments")
			return
		}
		if c.Kind == trace.KindSend {
			dstWorld, known := worldRank(sc.members, comm, peer)
			if !known {
				sc.malformed(rec, "unknown communicator "+comm)
				return
			}
			srcComm, _ := commRank(sc.members, comm, sc.rank)
			key := p2pKey{comm: comm, src: srcComm, dst: dstWorld, tag: tag}
			sc.out.sends[key] = append(sc.out.sends[key], ref)
			sc.edges++
		}
		if c.Has(trace.Status) {
			sc.received(comm, ref, ref, src, stag)
		}
		if c.Has(trace.Request) {
			sc.pend(req, &pendingReq{call: c, init: ref, comm: comm})
		}

	case c.Kind == trace.KindComplete:
		// One request or a run of nreq; a Test*'s flag says whether they
		// completed; all of them complete, or the one or outcount at the
		// recorded indices, each with a status in completion order.
		n := 1
		if c.Has(trace.NumRequests) {
			v, ok := rec.IntArg(c.Pos(rec, trace.NumRequests))
			if !ok || v < 0 || v > int64(len(rec.Args)) {
				sc.malformed(rec, "bad count")
				return
			}
			n = int(v)
		}
		if c.Has(trace.Flag) && rec.Arg(c.Pos(rec, trace.Flag)) != "1" {
			return // nothing completed
		}
		reqs, idx, st := c.Pos(rec, trace.Request), c.Pos(rec, trace.Index), c.Pos(rec, trace.Status)
		// An index or outcount of MPI_UNDEFINED completes nothing: MPI
		// returns it when no listed request is active.
		undefined := func(v int, ok bool) bool {
			if !ok || v != mpiUndefined {
				return false
			}
			for i := range n {
				if _, pending := sc.pending[rec.Arg(reqs+i)]; pending {
					return false
				}
			}
			return true
		}
		done := n
		if c.Has(trace.OutCount) {
			v, ok := rec.Int32Arg(c.Pos(rec, trace.OutCount))
			if undefined(v, ok) {
				return
			}
			if !ok || v < 0 || v > n {
				sc.malformed(rec, "bad outcount")
				return
			}
			done = v
		} else if c.Has(trace.Index) {
			if undefined(rec.Int32Arg(idx)) {
				return
			}
			done = 1
		}
		for k := range done {
			i := k
			if idx >= 0 {
				v, ok := rec.Int32Arg(idx + k)
				if !ok || v < 0 || v >= n {
					sc.malformed(rec, "bad completion index")
					continue
				}
				i = v
			}
			src, tag, ok := status(rec, st+2*k)
			sc.complete(rec, rec.Arg(reqs+i), src, tag, ok)
		}

	case c.Kind >= trace.KindBarrier: // a collective
		if c.Has(trace.NewComm) {
			gid, list := rec.Arg(c.Pos(rec, trace.NewComm)), rec.Arg(c.Pos(rec, trace.Members))
			sc.regs = append(sc.regs, [2]string{gid, list})
			if err := registerComm(sc.members, gid, list); err != nil {
				sc.malformed(rec, err.Error())
			}
		}
		if c.Kind >= trace.KindFile {
			// An MPI-IO collective names its file handle: it is matched on
			// the communicator of the open that made the handle.
			h := rec.Arg(c.Pos(rec, trace.Handle))
			if c.Has(trace.Comm) {
				sc.openByFd[h], sc.lastOpen, sc.anyOpen = comm, comm, true
			} else {
				comm = sc.fileComm(h)
			}
		} else if comm == "" || (req == "" && c.Has(trace.Request)) {
			sc.malformed(rec, "bad arguments")
			return
		}
		root := -1
		if v, ok := rec.Int32Arg(c.Pos(rec, trace.Root)); ok {
			root = v
		}
		k := sc.addColl(comm, collEntry{call: c, init: ref, completion: ref, rootArg: root}, edgesPerMember(c.Kind))
		if c.Has(trace.Request) {
			sc.pend(req, &pendingReq{call: c, init: ref, comm: comm, collGID: comm, collIdx: k})
		}
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
		sc.dangling(req, pending[req])
	}
	return sc.out
}

// pend registers request req. An id still pending is a corrupt trace: the
// earlier request can no longer complete, so it is dangling from here.
func (sc *rankScanner) pend(req string, p *pendingReq) {
	if old := sc.pending[req]; old != nil {
		sc.dangling(req, old)
	}
	sc.pending[req] = p
}

func (sc *rankScanner) dangling(req string, p *pendingReq) {
	sc.out.problem(DanglingRequest,
		fmt.Sprintf("%s request %s never completed by MPI_Wait*/MPI_Test*", p.call.Name, req), p.init)
}

// fileComm resolves the communicator for MPI-IO collective records: the comm
// of the most recent MPI_File_open on this rank. The open-file table is the
// forward-tracked equivalent of scanning backwards for the nearest preceding
// open — the most recent open with this fh is exactly the nearest preceding
// one. (A single open file per rank at a time covers this simulation's
// programs; the fh→comm table also handles interleaved opens on different
// communicators.)
func (sc *rankScanner) fileComm(handle string) string {
	if comm, ok := sc.openByFd[handle]; ok {
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
	parts := strings.Split(list, ",")
	ranks := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil || v < 0 {
			return fmt.Errorf("communicator %s member list %q: %q is not a rank", gid, list, p)
		}
		ranks = append(ranks, v)
	}
	// A well-formed re-registration keeps the first membership.
	if _, ok := members[gid]; !ok {
		members[gid] = ranks
	}
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
