package verify

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"time"

	"verifyio/internal/conflict"
	"verifyio/internal/hbgraph"
	"verifyio/internal/match"
	"verifyio/internal/obs"
	"verifyio/internal/par"
	"verifyio/internal/semantics"
	"verifyio/internal/trace"
)

// Options controls a verification pass.
type Options struct {
	// Model is the consistency model to verify against.
	Model semantics.Model
	// DisablePruning turns the Fig. 3 group pruning off (ablation).
	DisablePruning bool
	// MaxRaceDetails caps how many races carry full call-chain detail;
	// counting is always exact. 0 means the default (256); a negative value
	// keeps no detail.
	MaxRaceDetails int
	// ContinueOnUnmatched verifies even when the matcher reported
	// problems. By default, unmatched MPI calls abort verification —
	// the gray rows of Fig. 4.
	ContinueOnUnmatched bool
	// Workers is the number of goroutines used to verify the plan's batches
	// of conflict groups (and, in VerifyAll, to run models concurrently). 0
	// means GOMAXPROCS; 1 verifies every batch on the calling goroutine.
	// Results are independent of the worker count.
	Workers int
	// Obs carries the tracer; the zero Ctx disables tracing.
	Obs obs.Ctx
}

// Race is one data race (Def. 7): a conflicting pair with no
// properly-synchronized order in either direction.
type Race struct {
	X, Y  conflict.Op
	File  string
	FuncX string
	FuncY string
	// ChainX/ChainY are the call chains (outermost first, the operation
	// itself last) — what the paper uses to attribute a race to the
	// application or to a library layer. Races of one call signature share
	// them: they are read-only.
	ChainX, ChainY []string
	// ordered records whether X and Y are happens-before ordered in either
	// direction — the one fact Report.Diagnose needs that the fields above
	// do not carry.
	ordered bool
	// level is Level's answer, computed once when the verifier builds the
	// race; empty for a Race built elsewhere.
	level string
}

// Level classifies where a race originates, from its call chains: the
// outermost frame of the deeper chain tells which layer issued the
// conflicting operation.
func (r Race) Level() string {
	if r.level != "" {
		return r.level
	}
	return chainLevel(r.ChainX, r.ChainY)
}

// chainLevel is Level computed from the two call chains.
func chainLevel(chainX, chainY []string) string {
	return joinLevels(chainLayer(chainX), chainLayer(chainY))
}

// chainLayer is the layer that issued a chain's operation: its outermost
// frame's, or the application's.
func chainLayer(chain []string) string {
	if len(chain) <= 1 {
		return "application"
	}
	fr, err := trace.ParseFrame(chain[0])
	if err != nil {
		return "application"
	}
	return fr.Layer.String()
}

// joinLevels is Level's answer for a pair whose chains have layers lx and ly.
func joinLevels(lx, ly string) string {
	if lx == ly {
		return lx
	}
	return lx + "+" + ly
}

// Report is the outcome of verifying one trace against one model.
type Report struct {
	Model   string
	Ranks   int
	Records int

	// ConflictPairs is the step-2 conflict count (model independent).
	ConflictPairs int64
	// RaceCount is the number of data races under the model.
	RaceCount int64
	// Races carries detail for up to MaxRaceDetails races.
	Races []Race
	// Problems are the matcher's unmatched/mismatched MPI calls.
	Problems []match.Problem
	// Verified is false when unmatched MPI calls prevented verification
	// (gray rows in Fig. 4).
	Verified bool
	// ProperlySynchronized is Verified && RaceCount == 0 (green rows).
	ProperlySynchronized bool

	// ChecksPerformed counts properly-synchronized evaluations — the
	// quantity the Fig. 3 pruning reduces. Each conflicting pair is walked
	// once, so the exhaustive walk costs one or two per pair.
	ChecksPerformed int64
	// ClassHits counts the checks answered from a position class's bounds,
	// Classes the class changes, and HBQueries the happens-before probes
	// actually made (DESIGN §8); all three are the same at every worker
	// count.
	ClassHits, Classes, HBQueries int64
	// Workers is the worker count the verification stage actually ran
	// with (after the GOMAXPROCS default is resolved).
	Workers        int
	GraphNodes     int
	GraphSyncEdges int
	// SkeletonNodes / SkeletonLevels describe the sync skeleton the
	// graph-based oracles computed on: S nodes (sync-edge endpoints plus
	// per-rank sentinels, S ≤ GraphNodes) in the given number of
	// topological levels.
	SkeletonNodes  int
	SkeletonLevels int
	// Ledger is the analysis' stage rows plus this pass's verify row: In is
	// the conflict pairs, Out ChecksPerformed.
	Ledger Ledger
}

// Verify checks every conflict of the analysis under opts.Model.
func (a *Analysis) Verify(opts Options) (*Report, error) {
	if err := opts.Model.MSC.Validate(); err != nil {
		return nil, err
	}
	if opts.MaxRaceDetails == 0 {
		opts.MaxRaceDetails = 256
	}
	// A negative cap counts races and keeps no detail.
	opts.MaxRaceDetails = max(opts.MaxRaceDetails, 0)
	opts.Workers = par.Resolve(opts.Workers)
	rep := &Report{
		Model:          opts.Model.Name,
		Ranks:          a.NumRanks(),
		Records:        a.NumRecords(),
		ConflictPairs:  a.Conflicts.Pairs,
		Problems:       a.Match.Problems,
		Workers:        opts.Workers,
		GraphNodes:     a.Graph.Nodes(),
		GraphSyncEdges: a.Graph.SyncEdges(),
		SkeletonNodes:  a.Graph.SkeletonNodes(),
		SkeletonLevels: a.Graph.SkeletonLevels(),
		Ledger:         a.Ledger,
	}
	if len(a.Match.Problems) > 0 && !opts.ContinueOnUnmatched {
		// Unmatched MPI calls: the synchronization order cannot be
		// trusted, so verification is not performed (§V-D).
		rep.Verified = false
		return rep, nil
	}
	// Model passes run concurrently in VerifyAll, so each pass gets its own
	// lane; per-batch shard spans fork off it below.
	oc, span := opts.Obs.StartLane("verify/"+opts.Model.Name, "verify",
		obs.String("model", opts.Model.Name))
	span.SetCat("verify")
	defer span.End()

	start := time.Now()
	_, idxSpan := oc.Start("sync-index")
	v := newVerifier(a, opts, oc)
	idxSpan.End()
	v.verifyBatches(opts.Workers)
	rep.RaceCount = v.raceCount
	if len(v.pairs) > 0 {
		rep.Races = make([]Race, len(v.pairs))
		for i, p := range v.pairs {
			rep.Races[i] = v.makeRace(p)
		}
	}
	rep.ChecksPerformed = v.checks
	rep.ClassHits, rep.Classes, rep.HBQueries = v.classHits, v.classes, v.hbQueries
	rep.Ledger.Verify = Row{Time: time.Since(start), In: rep.ConflictPairs, Out: v.checks}
	rep.Verified = true
	rep.ProperlySynchronized = rep.RaceCount == 0
	sort.Slice(rep.Races, func(i, j int) bool {
		if rep.Races[i].X.Ref != rep.Races[j].X.Ref {
			return rep.Races[i].X.Ref.Less(rep.Races[j].X.Ref)
		}
		return rep.Races[i].Y.Ref.Less(rep.Races[j].Y.Ref)
	})
	return rep, nil
}

// verifier checks conflict groups. The shared fields (a, opts, idx, plan,
// plainHB) are read-only during verification; each worker of verifyBatches
// copies them and owns its scratch and the tally of the batch it is verifying.
type verifier struct {
	a    *Analysis
	opts Options
	oc   obs.Ctx
	idx  *syncIndex
	plan *opPlan
	// plainHB is set when the model's MSC is one plain hb edge (POSIX's), so
	// a write Y and a read Y face the same test.
	plainHB bool

	// Class-scoped scratch. X ps Y and Y ps X depend on X only through its
	// position class: the conflicting file, X's rank and skeleton fringe
	// (prev/next), and how many of the file's class-0 and class-(k-1) sync
	// candidates on that rank precede X. Groups are X-sorted, so a class is
	// a run of consecutive groups and the current one is all the state
	// there is: setGroup keeps everything below while the class holds.
	xi   int32         // op index of the current group's X
	xr   hbgraph.Coord // its resolved operand
	cX   hbgraph.Coord // the class's first X: its rank, prev and next are the class's
	cFID int32         // the class's file; -1 when no later group may share the class
	cEnd int32         // the X.Seq at which the preceding-candidate counts change
	// class numbers the classes this scratch has held; a rank's bounds and
	// the frontiers' entries are reset on their first use in a class.
	class int32
	xs    [1]hbgraph.Coord // the current X: step 0 of both frontiers
	// gFile holds, per MSC op class, the candidates on the class's file.
	gFile []*fileCands
	// fwd and bwd are the class's witness frontiers: what X reaches through
	// a prefix of the MSC, and what reaches X through a suffix of it.
	fwd, bwd frontier
	// bounds[r] brackets, per check shape, the threshold among rank r's ops.
	bounds []rankBounds

	tally
}

// newVerifier prepares one model pass over a: the shared op plan and the
// model's sync index.
func newVerifier(a *Analysis, opts Options, oc obs.Ctx) *verifier {
	msc := opts.Model.MSC
	return &verifier{a: a, opts: opts, oc: oc, idx: buildSyncIndex(a.Conflicts, opts.Model, a.Graph),
		plan: a.plan, plainHB: msc.K() == 0 && msc.Edges[0] == semantics.HB}
}

// tally is what verifying one batch produces; the merged tallies make the
// Report. Pairs carry no call-chain detail — that is materialized once, for
// the merged prefix only.
type tally struct {
	checks    int64
	classHits int64 // …of which answered from the class's bounds
	classes   int64 // class changes, i.e. scratch resets
	hbQueries int64 // happens-before evaluations actually performed
	raceCount int64
	// pairs are the batch's first races in discovery order, at most
	// MaxRaceDetails.
	pairs []racePair
}

// racePair is a raced conflict pair awaiting detail materialization, as
// indices into Conflicts.Ops.
type racePair struct {
	x, y int32
}

// bound brackets a monotone threshold in op-index space (index order is
// program order within a rank): every op at or below lo lies on its low
// side, every op at or above hi on its high side.
type bound struct{ lo, hi int32 }

// rankBounds holds one rank's bounds for the class numbered class, indexed
// by check shape: shapeRev for Y ps X, shapeWrite when the source is judged
// as a write.
type rankBounds struct {
	class int32
	b     [4]bound
}

const shapeWrite, shapeRev = 1, 2

func shapeOf(rev, asWrite bool) (s int) {
	if rev {
		s = shapeRev
	}
	if asWrite {
		s |= shapeWrite
	}
	return s
}

// witness is one (step, rank) entry of a frontier, valid in the class
// numbered class.
type witness struct {
	class int32
	ok    bool
	c     hbgraph.Coord
}

// frontier is one direction of the MSC search for the class's X. Step s
// holds, per rank, the extreme candidate of the MSC's s-th sync operation
// counted from X's end that X reaches forward through s edges (or that
// reaches X backward). Forward the candidates X reaches form a seq-suffix of
// each rank — po and hb both extend by a later program-order step — so the
// earliest one witnesses every chain through its rank; backward the
// candidates reaching X form a seq-prefix and the latest one does. Step 0 is
// X itself, so a frontier depends on X only through its position class.
type frontier struct {
	at   []witness         // step s ≥ 1, rank q at (s-1)·P + q
	full []int32           // per step ≥ 1: the class whose list is built
	list [][]hbgraph.Coord // per step ≥ 1: the found entries, ascending rank
}

// initScratch sizes the scratch to the model's MSC arity and the rank count.
func (v *verifier) initScratch() {
	k, nranks := len(v.idx.files), len(v.plan.rankEnd)
	v.gFile = make([]*fileCands, k)
	for _, f := range []*frontier{&v.fwd, &v.bwd} {
		*f = frontier{at: make([]witness, k*nranks), full: make([]int32, k), list: make([][]hbgraph.Coord, k)}
	}
	v.bounds = make([]rankBounds, nranks)
	v.cFID = -1
}

// setGroup makes g's X the current one. When X leaves the current class the
// scratch is reset: the file's candidate lists are hoisted, the seq at which
// the class ends resolved, frontiers and bounds invalidated. The exhaustive
// walk shares nothing between groups.
func (v *verifier) setGroup(g *conflict.Group) {
	xr, fid := v.plan.res[g.X], v.a.Conflicts.Ops[g.X].FID
	v.xi, v.xr, v.xs[0] = int32(g.X), xr, xr
	if fid == v.cFID && xr.Seq < v.cEnd &&
		xr.Rank == v.cX.Rank && xr.Prev == v.cX.Prev && xr.Next == v.cX.Next {
		return
	}
	v.classes++
	v.class++
	v.cX, v.cFID, v.cEnd = xr, fid, math.MaxInt32
	if v.opts.DisablePruning {
		v.cFID = -1
	}
	k := len(v.gFile)
	if k == 0 {
		return
	}
	for c := range v.gFile {
		v.gFile[c] = &v.idx.files[c][fid]
	}
	// A candidate that X passes changes the first step of a frontier: the
	// class ends at the next class-0 or class-(k-1) one on X's rank.
	c0, ck := v.gFile[0].on(int(xr.Rank)), v.gFile[k-1].on(int(xr.Rank))
	if i := seqBound(c0, xr.Seq+1); i < len(c0) {
		v.cEnd = c0[i].Seq
	}
	if j := seqBound(ck, xr.Seq); j < len(ck) {
		v.cEnd = min(v.cEnd, ck[j].Seq)
	}
}

// psAs implements Def. 6 between the group's X and op yi: X ps Y, or Y ps X
// when rev, with the source judged as a write or as a read whatever its
// kind; both tests depend on the source's position alone.
func (v *verifier) psAs(rev, asWrite bool, yi int32) bool {
	v.checks++
	y := v.plan.res[yi]
	if !asWrite {
		// Case 1: a read followed in happens-before order by the
		// conflicting (write) operation.
		if rev {
			return v.hbRes(y, v.xr)
		}
		return v.hbRes(v.xr, y)
	}
	// Case 2: an MSC instance between X and Y, every sync operation acting
	// on the conflicting file: Y is one more step of X's frontier.
	return v.reaches(rev, v.opts.Model.MSC.K(), y)
}

// hbRes answers one happens-before query over resolved operands: program
// order for same-rank pairs, one oracle probe otherwise.
func (v *verifier) hbRes(a, b hbgraph.Coord) bool {
	v.hbQueries++
	if a.Rank == b.Rank {
		return a.Seq < b.Seq
	}
	return v.a.Oracle.Probe(a, b)
}

// step returns the MSC op class whose candidates make up step s of the
// frontier and the edge that leads into it: forward →r(s-1) S(s), backward
// S(k+1-s) →r(k+1-s). Step k+1 is the other conflicting op.
func (v *verifier) step(rev bool, s int) (class int, edge semantics.EdgeKind) {
	msc := v.opts.Model.MSC
	if rev {
		k := msc.K()
		return k - s, msc.Edges[k+1-s]
	}
	return s - 1, msc.Edges[s-1]
}

// reaches reports whether step s of the frontier reaches c over the edge into
// step s+1. A po edge needs only the entry on c's rank.
func (v *verifier) reaches(rev bool, s int, c hbgraph.Coord) bool {
	if _, edge := v.step(rev, s+1); edge == semantics.PO {
		e, ok := v.witnessAt(rev, s, int(c.Rank))
		if rev {
			return ok && c.Seq < e.Seq
		}
		return ok && e.Seq < c.Seq
	}
	if rev {
		for _, e := range v.layer(true, s) {
			if v.hbRes(c, e) {
				return true
			}
		}
		return false
	}
	for _, e := range v.layer(false, s) {
		if v.hbRes(e, c) {
			return true
		}
	}
	return false
}

func (v *verifier) frontier(rev bool) *frontier {
	if rev {
		return &v.bwd
	}
	return &v.fwd
}

// witnessAt returns step s's entry on rank q, searching the rank's
// candidates on first use in the class. After a po edge that is one seqBound
// from the step before's entry on q. After an hb edge it is one binary search
// per entry e of the step before, each within what the ones before left:
// forward the candidates e reaches are a suffix and the earliest start wins,
// backward those reaching e are a prefix and the longest wins.
func (v *verifier) witnessAt(rev bool, s, q int) (hbgraph.Coord, bool) {
	if s == 0 {
		return v.xr, q == int(v.xr.Rank)
	}
	w := &v.frontier(rev).at[(s-1)*len(v.plan.rankEnd)+q]
	if w.class != v.class {
		c, edge := v.step(rev, s)
		cands := v.gFile[c].on(q)
		i := -1 // the entry's index in cands
		switch {
		case edge == semantics.HB && rev:
			n := 0
			for _, e := range v.layer(true, s-1) {
				n += sort.Search(len(cands)-n, func(j int) bool { return !v.hbRes(cands[n+j], e) })
			}
			i = n - 1
		case edge == semantics.HB:
			i = len(cands)
			for _, e := range v.layer(false, s-1) {
				i = sort.Search(i, func(j int) bool { return v.hbRes(e, cands[j]) })
			}
		case rev:
			if e, ok := v.witnessAt(true, s-1, q); ok {
				i = seqBound(cands, e.Seq) - 1
			}
		default:
			if e, ok := v.witnessAt(false, s-1, q); ok {
				i = seqBound(cands, e.Seq+1)
			}
		}
		*w = witness{class: v.class, ok: i >= 0 && i < len(cands)}
		if w.ok {
			w.c = cands[i]
		}
	}
	return w.c, w.ok
}

// layer returns step s's entries in ascending rank order, every rank's
// searched on first use in the class.
func (v *verifier) layer(rev bool, s int) []hbgraph.Coord {
	if s == 0 {
		return v.xs[:]
	}
	f := v.frontier(rev)
	if f.full[s-1] != v.class {
		l := f.list[s-1][:0]
		add := func(q int) {
			if e, ok := v.witnessAt(rev, s, q); ok {
				l = append(l, e)
			}
		}
		if c, edge := v.step(rev, s); edge == semantics.PO {
			// A po step stays on the ranks of the step before.
			for _, e := range v.layer(rev, s-1) {
				add(int(e.Rank))
			}
		} else {
			for _, q := range v.gFile[c].ranks {
				add(q)
			}
		}
		f.full[s-1], f.list[s-1] = v.class, l
	}
	return f.list[s-1]
}

// verifyGroups walks the conflict groups in [lo, hi) and collects races. A
// conflicting pair lives in one group, its lower op's, so every pair is
// verified and counted once. Verdicts are independent of where a walk starts,
// which is what makes the range a unit of parallel work; the scratch carried
// from the groups before lo only saves evaluations.
func (v *verifier) verifyGroups(lo, hi int) {
	for gi := lo; gi < hi; gi++ {
		g := &v.a.Conflicts.Groups[gi]
		v.setGroup(g)
		xw := v.plan.isWrite(v.xi)
		// CSR runs are ordered by ascending rank above X's, each run in
		// program order.
		for k, r := 0, int(v.xr.Rank); k < g.NumRuns(); k++ {
			ys := g.RunAt(k)
			if v.opts.DisablePruning {
				for _, yi := range ys {
					if !v.psAs(false, xw, yi) && !v.psAs(true, v.plan.isWrite(yi), yi) {
						v.recordRace(v.xi, yi)
					}
				}
				continue
			}
			r = v.plan.rankOf(ys[0], r+1)
			rb := &v.bounds[r]
			if rb.class != v.class {
				none := bound{lo: -1, hi: math.MaxInt32}
				*rb = rankBounds{class: v.class, b: [4]bound{none, none, none, none}}
			}
			v.verifyRun(xw, &rb.b, ys)
		}
	}
}

// verifyRun applies the Fig. 3 pruning to one (X, ζ_r) run, generalized to
// binary searches over monotone predicates:
//
//   - X ps Y_i is monotone non-decreasing in i (rules 1 and 3): an MSC to
//     Y_i extends to any later Y_j by program order.
//   - Y_i ps X is monotone non-increasing in i (rules 2 and 4): an MSC
//     from Y_i restricts to any earlier Y_j.
//
// (The paper states rule 4 with Y_n; the sound monotone form anchors the
// negative direction at Y_1 — checking Y_1 clears or dooms the whole run.)
// Each of the paper's four scenarios is the degenerate case where a search
// terminates after one probe; in general the run costs O(log n) checks
// instead of n, and a check costs an evaluation only inside the class's
// bounds b for the run's rank.
//
// The second predicate is monotone only among Ys of one kind: a read Y needs
// Y hb X, a write Y a whole MSC, so a synchronized read may follow an
// unsynchronized write. Both tests depend on Y's position alone, so a run
// mixing kinds is searched once per test, each over the whole run. Kinds
// face different tests only when X is a write (a read X conflicts with
// writes only) and the MSC is more than plain hb (POSIX's is not).
func (v *verifier) verifyRun(xw bool, b *[4]bound, ys []int32) {
	// flip returns the first index on the high side of one check shape's
	// threshold: where X ps Y_i starts to hold, or Y_i ps X stops holding.
	// A check outside the shape's open interval is answered by the two
	// compares; one inside is evaluated and tightens the interval.
	flip := func(rev, asWrite bool) int {
		sb := &b[shapeOf(rev, asWrite)]
		i, j := 0, len(ys)
		for i < j {
			h := int(uint(i+j) >> 1)
			yi := ys[h]
			low := yi <= sb.lo
			if low || yi >= sb.hi {
				v.checks++
				v.classHits++
			} else if low = v.psAs(rev, asWrite, yi) == rev; low {
				sb.lo = yi
			} else {
				sb.hi = yi
			}
			if low {
				i = h + 1
			} else {
				j = h
			}
		}
		return i
	}
	iF := flip(false, xw)
	kind := v.plan.isWrite(ys[0])
	if !xw || v.plainHB ||
		!slices.ContainsFunc(ys, func(yi int32) bool { return v.plan.isWrite(yi) != kind }) {
		// One kind: pairs in [iG, iF) are synchronized in neither direction.
		// They are counted at once; only the detail cap's share is kept.
		if iG := flip(true, kind); iG < iF {
			v.raceCount += int64(iF - iG)
			for _, yi := range ys[iG : iG+min(iF-iG, v.opts.MaxRaceDetails-len(v.pairs))] {
				v.pairs = append(v.pairs, racePair{x: v.xi, y: yi})
			}
		}
		return
	}
	// An MSC implies hb, so iW <= iR: writes race from iW, reads from iR.
	iW, iR := flip(true, true), flip(true, false)
	for i := iW; i < iF; i++ {
		if v.plan.isWrite(ys[i]) || i >= iR {
			v.recordRace(v.xi, ys[i])
		}
	}
}

// verifyBatches runs the batch plan — the unit of parallel work — one par
// task per batch, and returns the batches' tallies after merging them into
// v's. A batch takes a worker's scratch and starts it in no class; it keeps
// at most MaxRaceDetails race pairs, and tallies merge in batch order = group
// order, so the detailed-race prefix, the race count and the check count are
// exactly what one walk over the groups in order produces, at every worker
// count. Batches are the plan's, the same at every worker count, which keeps
// the hb and class counters worker-independent too.
func (v *verifier) verifyBatches(workers int) []tally {
	batches := v.plan.batches
	tallies := make([]tally, len(batches))
	// One scratch per worker, so a pass allocates per worker, not per batch:
	// at most workers tasks run at once, so one is always free.
	workers = min(workers, len(batches))
	free := make(chan *verifier, workers)
	for range workers {
		w := *v
		w.initScratch()
		free <- &w
	}
	par.Do(workers, len(batches), func(b int) {
		w := <-free
		defer func() { free <- w }()
		w.verifyBatch(b, &tallies[b])
	})
	v.tally = tally{}
	for b := range tallies {
		t := &tallies[b]
		v.checks += t.checks
		v.classHits += t.classHits
		v.classes += t.classes
		v.hbQueries += t.hbQueries
		v.raceCount += t.raceCount
		v.pairs = append(v.pairs, t.pairs[:min(len(t.pairs), v.opts.MaxRaceDetails-len(v.pairs))]...)
	}
	return tallies
}

// verifyBatch verifies batch b into t.
func (v *verifier) verifyBatch(b int, t *tally) {
	span := v.plan.batches[b]
	var sp *obs.Span
	if v.oc.T != nil {
		_, sp = v.oc.StartLane("verify/"+v.opts.Model.Name+"/batch-"+strconv.Itoa(b),
			"batch", obs.Int("batch", b), obs.Int("groups", span.hi-span.lo))
	}
	v.cFID = -1 // a batch starts in no class
	v.tally = tally{}
	v.verifyGroups(span.lo, span.hi)
	*t = v.tally
	sp.End()
}

// recordRace counts one raced pair and keeps it while the batch's detail
// cap lasts.
func (v *verifier) recordRace(xi, yi int32) {
	v.raceCount++
	if len(v.pairs) < v.opts.MaxRaceDetails {
		v.pairs = append(v.pairs, racePair{x: xi, y: yi})
	}
}

// makeRace materializes the reported detail (paths, call chains) for one
// raced pair from the detector's signature table.
func (v *verifier) makeRace(p racePair) Race {
	conf := v.a.Conflicts
	x, y := conf.Ops[p.x], conf.Ops[p.y]
	sx, sy := conf.OpSig[p.x], conf.OpSig[p.y]
	cx, cy := v.a.raceChain(sx), v.a.raceChain(sy)
	return Race{
		X: x, Y: y,
		File:    conf.PathOf(int(x.FID)),
		FuncX:   conf.Sigs[sx].Func,
		FuncY:   conf.Sigs[sy].Func,
		ChainX:  cx.chain,
		ChainY:  cy.chain,
		ordered: v.a.Graph.HB(v.a.Oracle, x.Ref, y.Ref) || v.a.Graph.HB(v.a.Oracle, y.Ref, x.Ref),
		level:   joinLevels(cx.layer, cy.layer),
	}
}

// sigChain is one signature's race detail: its call chain with the
// operation itself appended, and the layer that issued it.
type sigChain struct {
	chain []string
	layer string
}

// raceChain returns signature sig's detail, built on its first race in any
// model pass and shared, read-only, by every race and report after it.
func (a *Analysis) raceChain(sig int32) sigChain {
	a.chainsMu.Lock()
	defer a.chainsMu.Unlock()
	c, ok := a.chains[sig]
	if !ok {
		sg := &a.Conflicts.Sigs[sig]
		c.chain = append(slices.Clip(sg.Chain), trace.FormatFrame(sg.Layer, sg.Func, sg.Site))
		c.layer = chainLayer(c.chain)
		if a.chains == nil {
			a.chains = make(map[int32]sigChain)
		}
		a.chains[sig] = c
	}
	return c
}

// VerifyAll verifies the analysis against every given model, reusing the
// shared steps. The models run on up to Workers goroutines: the oracle is
// read-only after construction and safe for concurrent queries, and each
// model pass builds its own syncIndex. Report order always follows the
// models argument.
func (a *Analysis) VerifyAll(models []semantics.Model, opts Options) ([]*Report, error) {
	out := make([]*Report, len(models))
	errs := make([]error, len(models))
	par.Do(par.Resolve(opts.Workers), len(models), func(i int) {
		o := opts
		o.Model = models[i]
		out[i], errs[i] = a.Verify(o)
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("verify: model %s: %w", models[i].Name, err)
		}
	}
	return out, nil
}
