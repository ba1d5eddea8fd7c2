package hbgraph

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"verifyio/internal/match"
	"verifyio/internal/trace"
)

// The tests below pin the join-node encoding of barrier-like collectives
// without trusting it: every comparison is against match.Pairwise(edges) —
// plain record-to-record pairs, the encoding this package consumed before
// joins existed — fed to the on-the-fly oracle, to the brute-force DFS, and
// to a second Graph.

// mpiProgram builds the trace of an MPI program record by record, in the
// argument layouts the recorder writes and the matcher reads.
type mpiProgram struct {
	tr    *trace.Trace
	comms map[string][]int // communicator id -> world ranks
	reqs  int
}

func newMPIProgram(nranks int) *mpiProgram {
	world := make([]int, nranks)
	for i := range world {
		world[i] = i
	}
	return &mpiProgram{tr: trace.New(nranks), comms: map[string][]int{"comm-world": world}}
}

func (p *mpiProgram) emit(rank int, layer trace.Layer, fn string, args ...string) {
	tick := int64(2*len(p.tr.Ranks[rank]) + 1)
	p.tr.Append(trace.Record{Rank: rank, Func: fn, Layer: layer, Args: args, Tick: tick, Ret: tick + 1})
}

func (p *mpiProgram) op(rank int) { p.emit(rank, trace.LayerPOSIX, "write") }

func (p *mpiProgram) barrier(comm string) {
	for _, r := range p.comms[comm] {
		p.emit(r, trace.LayerMPI, "MPI_Barrier", comm)
	}
}

// split partitions parent by color (one entry per member of parent, in
// communicator-rank order) and returns the new communicators' ids.
func (p *mpiProgram) split(parent string, colors []int) []string {
	byColor := map[int][]int{}
	for i, r := range p.comms[parent] {
		byColor[colors[i]] = append(byColor[colors[i]], r)
	}
	gidOf := map[int]string{}
	var gids []string
	for i, r := range p.comms[parent] {
		c := colors[i]
		if _, ok := gidOf[c]; !ok {
			gidOf[c] = fmt.Sprintf("comm-%d.%d", len(p.comms), c)
			gids = append(gids, gidOf[c])
		}
		list := make([]string, len(byColor[c]))
		for k, m := range byColor[c] {
			list[k] = strconv.Itoa(m)
		}
		p.emit(r, trace.LayerMPI, "MPI_Comm_split", parent, strconv.Itoa(c), "0", gidOf[c], strings.Join(list, ","))
	}
	for c, gid := range gidOf {
		p.comms[gid] = byColor[c]
	}
	return gids
}

// ibarrier starts a non-blocking barrier on comm; between(rank) runs on each
// member between its MPI_Ibarrier and the MPI_Wait that completes it.
func (p *mpiProgram) ibarrier(comm string, between func(rank int)) {
	for _, r := range p.comms[comm] {
		p.reqs++
		req := fmt.Sprintf("req-%d", p.reqs)
		p.emit(r, trace.LayerMPI, "MPI_Ibarrier", comm, req)
		between(r)
		p.emit(r, trace.LayerMPI, "MPI_Wait", req, "-1", "-1")
	}
}

func (p *mpiProgram) rooted(fn, comm string, root int) {
	for _, r := range p.comms[comm] {
		p.emit(r, trace.LayerMPI, fn, comm, strconv.Itoa(root), "8")
	}
}

// ring shifts one message to the right neighbour on comm: every member
// sends, then receives.
func (p *mpiProgram) ring(comm string, tag int) {
	members := p.comms[comm]
	n := len(members)
	if n < 2 {
		return
	}
	for i, r := range members {
		p.emit(r, trace.LayerMPI, "MPI_Send", comm, strconv.Itoa((i+1)%n), strconv.Itoa(tag), "8")
	}
	for i, r := range members {
		left := strconv.Itoa((i + n - 1) % n)
		p.emit(r, trace.LayerMPI, "MPI_Recv", comm, left, strconv.Itoa(tag), "8", left, strconv.Itoa(tag))
	}
}

// randomProgram draws a program of nranks ranks that mixes world and
// sub-communicator barriers, back-to-back collectives (one call is the next
// call's predecessor), members whose first record is a collective,
// MPI_Ibarrier completed by a later MPI_Wait, Bcast/Reduce and ring
// exchanges. Events are appended in one global order and every sync edge
// points forward in it, so po ∪ so is acyclic by construction.
func randomProgram(rng *rand.Rand, nranks int) *trace.Trace {
	p := newMPIProgram(nranks)
	comms := []string{"comm-world"}
	// Some ranks start with data operations, some with the first collective.
	for r := 0; r < nranks; r++ {
		for k := rng.Intn(3); k > 0; k-- {
			p.op(r)
		}
	}
	colors := make([]int, nranks)
	for i := range colors {
		colors[i] = rng.Intn(2)
	}
	comms = append(comms, p.split("comm-world", colors)...)
	pick := func() string { return comms[rng.Intn(len(comms))] }
	for ev, n := 0, 4+rng.Intn(10); ev < n; ev++ {
		switch rng.Intn(7) {
		case 0:
			p.op(rng.Intn(nranks))
		case 1:
			p.barrier("comm-world")
		case 2:
			p.barrier(pick())
			if rng.Intn(2) == 0 {
				p.barrier(pick()) // back to back
			}
		case 3:
			p.ibarrier(pick(), func(rank int) {
				for k := rng.Intn(3); k > 0; k-- {
					p.op(rank)
				}
			})
		case 4:
			comm := pick()
			p.rooted("MPI_Bcast", comm, rng.Intn(len(p.comms[comm])))
		case 5:
			comm := pick()
			p.rooted("MPI_Reduce", comm, rng.Intn(len(p.comms[comm])))
		case 6:
			p.ring(pick(), ev)
		}
	}
	for r := 0; r < nranks; r++ {
		if rng.Intn(2) == 0 {
			p.op(r)
		}
	}
	return p.tr
}

func mustMatchEdges(t *testing.T, tr *trace.Trace) []match.Edge {
	t.Helper()
	res, err := match.MatchOpts(tr, match.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Problems) != 0 {
		t.Fatalf("generated program does not match cleanly: %v", res.Problems)
	}
	return res.Edges
}

// builtOracles are the graph-based oracles of one Graph; the clocks are
// built at one worker count, the closure reference serially.
type builtOracles struct {
	g   *Graph
	vc  *VCOracle
	seg *SegOracle
}

func buildAt(t *testing.T, tr *trace.Trace, es []match.Edge, workers int) builtOracles {
	t.Helper()
	g, err := BuildCounts(rankCounts(tr), es)
	if err != nil {
		t.Fatal(err)
	}
	vc, err := g.VectorClocksOpts(VCOptions{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	seg, err := g.SegReachability(SegOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return builtOracles{g, vc, seg}
}

// checkJoinsAgainstPairwise is the whole equivalence claim on one trace:
// the join-encoded graph has the skeleton, the schedule, the clock arena and
// the reachability matrix of the graph built from the pairwise expansion,
// bit for bit and at every worker count, and all its oracles answer every
// record pair like the on-the-fly oracle and the brute-force DFS fed the
// pairwise expansion. It returns the number of join nodes exercised.
func checkJoinsAgainstPairwise(t *testing.T, tr *trace.Trace, exhaustive bool) int {
	t.Helper()
	es := mustMatchEdges(t, tr)
	pairs := match.Pairwise(es)
	for _, e := range pairs {
		if e.From.Rank < 0 || e.To.Rank < 0 {
			t.Fatalf("Pairwise left a join node in %v→%v", e.From, e.To)
		}
	}
	want := buildAt(t, tr, pairs, 1)
	if want.g.skel.joins != 0 {
		t.Fatal("pairwise graph has join nodes")
	}
	var got builtOracles
	for _, workers := range []int{1, 2, 7} {
		got = buildAt(t, tr, es, workers)
		if a, b := got.g.SkeletonNodes(), want.g.SkeletonNodes(); a != b {
			t.Fatalf("skeleton nodes %d, pairwise graph %d", a, b)
		}
		if a, b := got.g.SkeletonLevels(), want.g.SkeletonLevels(); a != b {
			t.Errorf("skeleton levels %d, pairwise graph %d", a, b)
		}
		if a, b := got.g.SyncEdges(), len(pairs); a != b {
			t.Errorf("SyncEdges = %d, Pairwise lists %d pairs", a, b)
		}
		if !slices.Equal(got.g.skel.seqs, want.g.skel.seqs) || !slices.Equal(got.g.skel.prev, want.g.skel.prev) {
			t.Fatal("skeleton membership or prev map differs from the pairwise graph's")
		}
		if !slices.Equal(got.vc.clocks, want.vc.clocks) {
			t.Errorf("workers=%d: clock arena differs from the pairwise graph's", workers)
		}
	}
	if !slices.Equal(got.seg.bits, want.seg.bits) {
		t.Errorf("reachability matrix differs from the pairwise graph's")
	}

	oracles := []Oracle{got.vc, got.seg, got.g.Reachability(), NewOnTheFly(tr, es)}
	otf, brute := NewOnTheFly(tr, pairs), newBrute(tr, pairs)
	var refs []trace.Ref
	for rank, recs := range tr.Ranks {
		for seq := range recs {
			refs = append(refs, ref(rank, seq))
		}
	}
	check := func(a, b trace.Ref) {
		want := a != b && brute.HB(a, b)
		if o := got.g.HB(otf, a, b); o != want {
			t.Fatalf("references disagree on HB(%v,%v): on-the-fly %v, brute %v", a, b, o, want)
		}
		for _, o := range oracles {
			if got.g.HB(o, a, b) != want {
				t.Fatalf("%s: HB(%v,%v) = %v, references say %v", o.Name(), a, b, !want, want)
			}
		}
	}
	if exhaustive {
		for _, a := range refs {
			for _, b := range refs {
				check(a, b)
			}
		}
	} else {
		rng := rand.New(rand.NewSource(int64(len(refs))))
		for q := 0; q < 4000; q++ {
			check(refs[rng.Intn(len(refs))], refs[rng.Intn(len(refs))])
		}
	}
	return got.g.skel.joins
}

// TestPropertyJoinsEqualPairwise runs the equivalence check exhaustively on
// random small programs.
func TestPropertyJoinsEqualPairwise(t *testing.T) {
	joins := 0
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := randomProgram(rng, 2+rng.Intn(5))
		joins += checkJoinsAgainstPairwise(t, tr, true)
		if t.Failed() {
			t.Fatalf("seed %d", seed)
		}
	}
	if joins < 100 {
		t.Fatalf("only %d join nodes over all programs; the generator went vacuous", joins)
	}
}

// TestJoinColumnBlocksParallel repeats the check at 33 and 40 ranks, three
// column blocks, so the clock pass really splits at workers 2 and 7
// (queries sampled).
func TestJoinColumnBlocksParallel(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		nranks := 33 + 7*int(seed%2)
		tr := randomProgram(rand.New(rand.NewSource(seed)), nranks)
		if blocks := (nranks + vcBlock - 1) / vcBlock; blocks < 3 {
			t.Fatalf("%d ranks give %d column blocks", nranks, blocks)
		}
		checkJoinsAgainstPairwise(t, tr, false)
	}
}

// TestCycleThroughJoinNodes: two ranks reach the barriers of two
// communicators in opposite order. The cycle runs record → join → record →
// join → record; joins take no level, and it must still surface.
func TestCycleThroughJoinNodes(t *testing.T) {
	p := newMPIProgram(2)
	dup := p.split("comm-world", []int{0, 0})[0]
	for rank, order := range [][]string{{"comm-world", dup}, {dup, "comm-world"}} {
		for _, comm := range order {
			p.emit(rank, trace.LayerMPI, "MPI_Barrier", comm)
		}
	}
	res, err := match.MatchOpts(p.tr, match.Options{})
	if err != nil || len(res.Problems) != 0 {
		t.Fatalf("match: %v, problems %v", err, res.Problems)
	}
	g, err := BuildCounts(rankCounts(p.tr), res.Edges)
	if err != nil {
		t.Fatal(err)
	}
	if g.skel.joins != 2 {
		t.Fatalf("joins = %d, want the two crossed barriers", g.skel.joins)
	}
	if _, err := g.VectorClocksOpts(VCOptions{Workers: 1}); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("vector clocks: err = %v, want the cycle", err)
	}
	if _, err := g.SegReachability(SegOptions{}); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("segment reachability: err = %v, want the cycle", err)
	}
	if lv := g.SkeletonLevels(); lv != 0 {
		t.Errorf("SkeletonLevels = %d on a cyclic skeleton, want 0", lv)
	}
	// Same verdict as the pairwise encoding.
	gp, err := BuildCounts(rankCounts(p.tr), match.Pairwise(res.Edges))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gp.VectorClocksOpts(VCOptions{Workers: 1}); err == nil {
		t.Fatal("the pairwise expansion of the crossed barriers is acyclic; the test is wrong")
	}
}

// TestBarrierEdgesLinearInRanks: B world barriers over P ranks are stored in
// at most 2·P·B edges, stand for P(P−1)·B ordered pairs, and SyncEdges
// reports the pairs.
func TestBarrierEdgesLinearInRanks(t *testing.T) {
	const barriers = 20
	for _, nranks := range []int{4, 16, 64} {
		p := newMPIProgram(nranks)
		for r := 0; r < nranks; r++ {
			p.op(r)
		}
		for b := 0; b < barriers; b++ {
			p.barrier("comm-world")
		}
		es := mustMatchEdges(t, p.tr)
		if len(es) > 2*nranks*barriers {
			t.Errorf("ranks=%d: %d edges stored for %d barriers, want ≤ 2·P·B = %d",
				nranks, len(es), barriers, 2*nranks*barriers)
		}
		pairs := nranks * (nranks - 1) * barriers
		if got := len(match.Pairwise(es)); got != pairs {
			t.Errorf("ranks=%d: Pairwise lists %d pairs, want P(P−1)·B = %d", nranks, got, pairs)
		}
		g, err := BuildCounts(rankCounts(p.tr), es)
		if err != nil {
			t.Fatal(err)
		}
		if got := g.SyncEdges(); got != pairs {
			t.Errorf("ranks=%d: SyncEdges = %d, want %d", nranks, got, pairs)
		}
	}
}

// TestBuildRejectsMalformedJoins: hostile edge lists stay classified errors.
func TestBuildRejectsMalformedJoins(t *testing.T) {
	join := func(k int) trace.Ref { return trace.Ref{Rank: -1, Seq: int32(k)} }
	in := func(k int) []match.Edge {
		return []match.Edge{{From: ref(0, 0), To: join(k)}, {From: join(k), To: ref(1, 1)}}
	}
	cases := []struct {
		name  string
		edges []match.Edge
		want  string
	}{
		{"well formed", in(0), ""},
		{"two joins", append(in(0), in(1)...), ""},
		{"gap in Seq", append(in(0), in(2)...), "densely"},
		{"gap in Seq, enough edges", append(append(in(0), in(2)...), edges([4]int{0, 0, 1, 0}, [4]int{0, 1, 1, 1})...), "need both"},
		{"Seq far out", in(1 << 30), "densely"},
		{"negative Seq", in(-3), "densely"},
		{"join to join", append(in(0), match.Edge{From: join(0), To: join(0)}), "two join nodes"},
		{"sources but no targets", []match.Edge{{From: ref(0, 0), To: join(0)}, {From: ref(1, 0), To: join(0)}}, "need both"},
		{"targets but no sources", []match.Edge{{From: join(0), To: ref(0, 1)}, {From: join(0), To: ref(1, 1)}}, "need both"},
		{"record end out of range", []match.Edge{{From: ref(0, 9), To: join(0)}, {From: join(0), To: ref(1, 1)}}, "outside the trace"},
		{"rank -2", []match.Edge{{From: trace.Ref{Rank: -2}, To: ref(1, 1)}}, "outside the trace"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := BuildCounts([]int{2, 2}, tc.edges)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("rejected: %v", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("err = %v, want one naming %q", err, tc.want)
			}
		})
	}
}
