package corpus

import (
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"verifyio/internal/hbgraph"
	"verifyio/internal/match"
	"verifyio/internal/semantics"
	"verifyio/internal/trace"
	"verifyio/internal/verify"
)

// refOracle is an independent full-graph vector-clock reference, built with
// the textbook O(V·P) layout internal/hbgraph used before the sync-skeleton
// rework. The corpus-wide suite below checks the skeleton-backed oracles
// against it: the skeleton is an optimization, not an approximation, so
// every HB answer must be identical. It is fed match.Pairwise(edges) — plain
// record-to-record pairs — so the matcher's join nodes are checked too.
type refOracle struct {
	counts []int
	base   []int
	nranks int
	clocks []int32 // len V*nranks, node-major, -1 = nothing known
}

func buildRef(t *testing.T, tr *trace.Trace, edges []match.Edge) *refOracle {
	t.Helper()
	o := &refOracle{nranks: tr.NumRanks()}
	o.counts = make([]int, o.nranks)
	o.base = make([]int, o.nranks+1)
	for rank, recs := range tr.Ranks {
		o.counts[rank] = len(recs)
		o.base[rank+1] = o.base[rank] + len(recs)
	}
	n := o.base[o.nranks]
	id := func(r trace.Ref) int { return o.base[r.Rank] + int(r.Seq) }

	succ := make(map[int][]int, len(edges))
	pred := make(map[int][]int, len(edges))
	indeg := make([]int, n)
	for _, e := range edges {
		f, to := id(e.From), id(e.To)
		succ[f] = append(succ[f], to)
		pred[to] = append(pred[to], f)
		indeg[to]++
	}
	for rank := range o.counts {
		for s := 1; s < o.counts[rank]; s++ {
			indeg[o.base[rank]+s]++
		}
	}
	order := make([]int, 0, n)
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			order = append(order, v)
		}
	}
	rankOf := make([]int, n)
	for rank := range o.counts {
		for v := o.base[rank]; v < o.base[rank+1]; v++ {
			rankOf[v] = rank
		}
	}
	relax := func(v int) {
		indeg[v]--
		if indeg[v] == 0 {
			order = append(order, v)
		}
	}
	for head := 0; head < len(order); head++ {
		v := order[head]
		if v+1 < o.base[rankOf[v]+1] {
			relax(v + 1)
		}
		for _, s := range succ[v] {
			relax(s)
		}
	}
	if len(order) != n {
		t.Fatalf("reference oracle: cyclic graph (%d of %d ordered)", len(order), n)
	}

	o.clocks = make([]int32, n*o.nranks)
	for i := range o.clocks {
		o.clocks[i] = -1
	}
	for _, v := range order {
		c := o.clocks[v*o.nranks : (v+1)*o.nranks]
		r := rankOf[v]
		c[r] = int32(v - o.base[r])
		merge := func(p int) {
			pc := o.clocks[p*o.nranks : (p+1)*o.nranks]
			for i, pv := range pc {
				if pv > c[i] {
					c[i] = pv
				}
			}
		}
		if v > o.base[r] {
			merge(v - 1)
		}
		for _, p := range pred[v] {
			merge(p)
		}
	}
	return o
}

func (o *refOracle) HB(a, b trace.Ref) bool {
	if a.Rank == b.Rank {
		return a.Seq < b.Seq
	}
	for _, r := range []trace.Ref{a, b} {
		if r.Rank < 0 || int(r.Rank) >= o.nranks || r.Seq < 0 || int(r.Seq) >= o.counts[r.Rank] {
			return false
		}
	}
	return o.clocks[(o.base[b.Rank]+int(b.Seq))*o.nranks+int(a.Rank)] >= a.Seq
}

// randomMPITrace draws a program of nranks ranks sharing one file: 16-byte
// writes at random offsets between world barriers, barriers of two split
// communicators (back to back at times), Bcast and Reduce on either, and
// ring exchanges. Every sync edge points forward in the order events are
// appended, so po ∪ so is acyclic.
func randomMPITrace(rng *rand.Rand, nranks int) *trace.Trace {
	tr := trace.New(nranks)
	emit := func(rank int, layer trace.Layer, fn string, args ...string) {
		tick := int64(2*len(tr.Ranks[rank]) + 1)
		tr.Append(trace.Record{Rank: rank, Func: fn, Layer: layer, Args: args, Tick: tick, Ret: tick + 1})
	}
	world := make([]int, nranks)
	byColor := [][]int{nil, nil}
	for r := range world {
		world[r] = r
		c := rng.Intn(2)
		byColor[c] = append(byColor[c], r)
	}
	comms := map[string][]int{"comm-world": world}
	gids := []string{"comm-world"}
	for c, members := range byColor {
		gid := fmt.Sprintf("comm-split.%d", c)
		list := make([]string, len(members))
		for k, m := range members {
			list[k] = strconv.Itoa(m)
		}
		for _, r := range members {
			emit(r, trace.LayerPOSIX, "open", "shared.dat", "rw|creat", "3")
			emit(r, trace.LayerMPI, "MPI_Comm_split", "comm-world", strconv.Itoa(c), "0", gid, strings.Join(list, ","))
		}
		if len(members) > 0 {
			comms[gid] = members
			gids = append(gids, gid)
		}
	}
	pick := func() string { return gids[rng.Intn(len(gids))] }
	for ev := 0; ev < 120; ev++ {
		switch comm := pick(); rng.Intn(6) {
		case 0, 1:
			r := rng.Intn(nranks)
			emit(r, trace.LayerPOSIX, "pwrite", "3", "16", strconv.Itoa(16*rng.Intn(64)))
		case 2:
			for _, r := range comms[comm] {
				emit(r, trace.LayerMPI, "MPI_Barrier", comm)
			}
		case 3:
			root := strconv.Itoa(rng.Intn(len(comms[comm])))
			fn := []string{"MPI_Bcast", "MPI_Reduce"}[rng.Intn(2)]
			for _, r := range comms[comm] {
				emit(r, trace.LayerMPI, fn, comm, root, "8")
			}
		case 4, 5:
			members, tag := comms[comm], strconv.Itoa(ev)
			n := len(members)
			if n < 2 {
				continue
			}
			for i, r := range members {
				emit(r, trace.LayerMPI, "MPI_Send", comm, strconv.Itoa((i+1)%n), tag, "8")
			}
			for i, r := range members {
				left := strconv.Itoa((i + n - 1) % n)
				emit(r, trace.LayerMPI, "MPI_Recv", comm, left, tag, "8", left, tag)
			}
		}
	}
	return tr
}

// equivExhaustiveLimit: traces up to this many records get the full V×V
// query matrix; larger ones get sampled queries.
const (
	equivExhaustiveLimit = 150
	equivSampleQueries   = 10_000
)

// TestOracleEquivalenceCorpus is the corpus-wide cross-validation of the
// sync-skeleton rework: on every corpus trace and one large synthetic one,
// skeleton vector clocks (serial and column-block parallel), BFS reachability,
// segment reachability (the skeleton's transitive closure), and the
// on-the-fly oracle must answer through Graph.HB exactly like full-graph
// vector clocks — exhaustively on small traces, on 10k sampled queries on
// large ones. It also asserts, via the gauges the analysis pipeline exports,
// that the skeleton clock arena never exceeds the full-graph arena.
func TestOracleEquivalenceCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus-wide equivalence suite skipped in -short mode")
	}
	type input struct {
		name string
		gen  func() (*trace.Trace, error)
	}
	// Two synthetic traces beside the corpus: 8 ranks, 33 024 records, a
	// barrier every 64 ops; and a random MPI program on 40 ranks, three
	// clock column blocks (corpus traces have 2–4 ranks, one block).
	inputs := []input{{"scaling-large", func() (*trace.Trace, error) {
		return ScalingTrace(8, 4000, 1<<18, 7), nil
	}}, {"random-40-ranks", func() (*trace.Trace, error) {
		return randomMPITrace(rand.New(rand.NewSource(3)), 40), nil
	}}}
	for _, tc := range Tests() {
		inputs = append(inputs, input{tc.Name, func() (*trace.Trace, error) { return Run(tc) }})
	}
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			tr, err := in.gen()
			if err != nil {
				t.Fatal(err)
			}
			mres, err := match.MatchOpts(tr, match.Options{})
			if err != nil {
				t.Fatal(err)
			}
			counts := make([]int, tr.NumRanks())
			for rank, recs := range tr.Ranks {
				counts[rank] = len(recs)
			}
			g, err := hbgraph.BuildCounts(counts, mres.Edges)
			if err != nil {
				t.Fatal(err)
			}
			// The reference knows nothing of join nodes: it gets the sync
			// order spelled out pair by pair.
			ref := buildRef(t, tr, match.Pairwise(mres.Edges))

			vcSerial, err := g.VectorClocksOpts(hbgraph.VCOptions{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			vcPar, err := g.VectorClocksOpts(hbgraph.VCOptions{Workers: runtime.GOMAXPROCS(0)})
			if err != nil {
				t.Fatal(err)
			}
			seg, err := g.SegReachability(hbgraph.SegOptions{})
			if err != nil {
				t.Fatalf("segment reachability: %v", err)
			}
			oracles := []hbgraph.Oracle{vcSerial, vcPar, seg, g.Reachability(), hbgraph.NewOnTheFly(tr, mres.Edges)}

			check := func(a, b trace.Ref) {
				want := ref.HB(a, b)
				for _, o := range oracles {
					if got := g.HB(o, a, b); got != want {
						t.Fatalf("%s: HB(%v, %v) = %v, full-graph reference = %v", o.Name(), a, b, got, want)
					}
				}
			}
			n := tr.NumRecords()
			if n <= equivExhaustiveLimit {
				for r1 := 0; r1 < ref.nranks; r1++ {
					for s1 := 0; s1 < ref.counts[r1]; s1++ {
						for r2 := 0; r2 < ref.nranks; r2++ {
							for s2 := 0; s2 < ref.counts[r2]; s2++ {
								check(trace.Ref{Rank: int32(r1), Seq: int32(s1)}, trace.Ref{Rank: int32(r2), Seq: int32(s2)})
							}
						}
					}
				}
			} else {
				rng := rand.New(rand.NewSource(int64(n)))
				for q := 0; q < equivSampleQueries; q++ {
					r1, r2 := rng.Intn(ref.nranks), rng.Intn(ref.nranks)
					if ref.counts[r1] == 0 || ref.counts[r2] == 0 {
						continue
					}
					check(trace.Ref{Rank: int32(r1), Seq: int32(rng.Intn(ref.counts[r1]))},
						trace.Ref{Rank: int32(r2), Seq: int32(rng.Intn(ref.counts[r2]))})
				}
			}
			// Out-of-range probes round out the shared bounds check.
			far := trace.Ref{Rank: int32(ref.nranks + 3), Seq: 0}
			check(trace.Ref{Rank: 0, Seq: 0}, far)
			check(far, trace.Ref{Rank: 0, Seq: 0})

			// Arena: the skeleton clock arena (the oracle row's bytes) must
			// never exceed what the full-graph layout would have allocated,
			// 4 bytes per graph node and rank.
			a, err := verify.AnalyzeOpts(tr, verify.AlgoVectorClock, verify.AnalyzeOptions{})
			if err != nil {
				t.Fatal(err)
			}
			l := a.Ledger
			skel, full := l.Oracle.Bytes, 4*l.Graph.Out*int64(a.NumRanks())
			if skel <= 0 || full <= 0 {
				t.Fatalf("arena sizes missing: skeleton=%d full=%d", skel, full)
			}
			if skel > full {
				t.Errorf("skeleton clock arena %d bytes exceeds full-graph arena %d bytes", skel, full)
			}

			// Stored sync edges are linear in the trace: a barrier-like
			// collective is one join node with at most two edges per member,
			// and Scan/Exscan a chain of one edge per member, so the matcher
			// stores at most two edges per record. Pairwise barriers would
			// break the bound from 4 ranks up.
			if edges, nodes := l.Match.Out, l.Graph.Out; nodes <= 0 || edges > 2*nodes {
				t.Errorf("%d stored edges, want at most 2 × %d graph nodes", edges, nodes)
			}

			// A four-model pass over the resolved query plan probes the
			// production oracle: a conflict pair is cross-rank by definition,
			// so with any pair at all the probe count is positive.
			reps, err := a.VerifyAll(semantics.All(), verify.Options{Workers: 2, ContinueOnUnmatched: true})
			if err != nil {
				t.Fatal(err)
			}
			var queries int64
			for _, rep := range reps {
				queries += rep.HBQueries
			}
			if a.Conflicts.Pairs > 0 && queries == 0 {
				t.Errorf("no happens-before probe over %d conflict pairs", a.Conflicts.Pairs)
			}
		})
	}
}
