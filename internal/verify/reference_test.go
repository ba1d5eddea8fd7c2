package verify_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"verifyio/internal/conflict"
	"verifyio/internal/corpus"
	"verifyio/internal/semantics"
	"verifyio/internal/trace"
	"verifyio/internal/verify"
)

// bruteRaces is a reference for Defs. 6 and 7 that shares no code with the
// verifier's walk or the production oracle. It reads the analysis's conflict
// groups and sync points and asks Graph.HB of the per-query BFS reference
// (Graph.Reachability). Every conflicting pair is checked in both directions.
// An MSC check enumerates every chain of candidates S1 … Sk on the
// conflicting file and tests each edge by program order or by Graph.HB. It
// uses no classes, no pruning and no frontiers. Races come out in report
// order: by X, then by Y.
func bruteRaces(a *verify.Analysis, model semantics.Model) [][2]trace.Ref {
	conf, g := a.Conflicts, a.Graph
	o := g.Reachability()
	msc := model.MSC
	cands := make([]map[int][]trace.Ref, msc.K()) // per op class: fid → sync points
	for c := range cands {
		cands[c] = map[int][]trace.Ref{}
		for _, sp := range conf.Syncs {
			if msc.Ops[c].Contains(sp.Func) {
				cands[c][int(sp.FID)] = append(cands[c][int(sp.FID)], sp.Ref)
			}
		}
	}
	edge := func(kind semantics.EdgeKind, a, b trace.Ref) bool {
		if kind == semantics.PO {
			return a.Rank == b.Rank && a.Seq < b.Seq
		}
		return g.HB(o, a, b)
	}
	var chain func(pos, fid int, from, to trace.Ref) bool
	chain = func(pos, fid int, from, to trace.Ref) bool {
		if pos == msc.K() {
			return edge(msc.Edges[pos], from, to)
		}
		for _, s := range cands[pos][fid] {
			if edge(msc.Edges[pos], from, s) && chain(pos+1, fid, s, to) {
				return true
			}
		}
		return false
	}
	ps := func(x, y conflict.Op) bool {
		if !x.Write {
			return g.HB(o, x.Ref, y.Ref)
		}
		return chain(0, int(x.FID), x.Ref, y.Ref)
	}
	var races [][2]trace.Ref
	for gi := range conf.Groups {
		grp := &conf.Groups[gi]
		x := conf.Ops[grp.X]
		for _, yi := range grp.Ys() {
			if y := conf.Ops[yi]; !ps(x, y) && !ps(y, x) {
				races = append(races, [2]trace.Ref{x.Ref, y.Ref})
			}
		}
	}
	slices.SortFunc(races, func(p, q [2]trace.Ref) int {
		if p[0] != q[0] {
			return refCmp(p[0], q[0])
		}
		return refCmp(p[1], q[1])
	})
	return races
}

func refCmp(a, b trace.Ref) int {
	if a.Rank != b.Rank {
		return int(a.Rank - b.Rank)
	}
	return int(a.Seq - b.Seq)
}

// checkAgainstBrute verifies a under model with every race detailed and
// returns the races, with an error if they differ from bruteRaces'.
func checkAgainstBrute(a *verify.Analysis, model semantics.Model) ([][2]trace.Ref, error) {
	rep, err := a.Verify(verify.Options{Model: model, Workers: 1, ContinueOnUnmatched: true, MaxRaceDetails: 1 << 30})
	if err != nil {
		return nil, err
	}
	got := make([][2]trace.Ref, 0, len(rep.Races))
	for _, r := range rep.Races {
		got = append(got, [2]trace.Ref{r.X.Ref, r.Y.Ref})
	}
	want := bruteRaces(a, model)
	if rep.RaceCount != int64(len(want)) || !slices.Equal(got, want) {
		first := func(rs [][2]trace.Ref) any {
			if len(rs) == 0 {
				return "none"
			}
			return rs[0]
		}
		return nil, fmt.Errorf("%s: %d races (first %v), brute force %d (first %v)",
			model.Name, rep.RaceCount, first(got), len(want), first(want))
	}
	return got, nil
}

// checkModels holds a to bruteRaces under every model, models[0] being
// POSIX, and checks the metamorphic relation between them: an MSC instance
// is a chain of po and hb edges, so it implies x hb y, and every POSIX race
// is a race under every other model.
func checkModels(a *verify.Analysis, models []semantics.Model) []error {
	if posixName := semantics.POSIXModel().Name; len(models) == 0 || models[0].Name != posixName {
		return []error{fmt.Errorf("checkModels: models[0] must be %s", posixName)}
	}
	var errs []error
	var posix map[[2]trace.Ref]bool
	for i, model := range models {
		races, err := checkAgainstBrute(a, model)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		if i == 0 {
			posix = make(map[[2]trace.Ref]bool, len(races))
			for _, r := range races {
				posix[r] = true
			}
			continue
		}
		n := 0
		for _, r := range races {
			if posix[r] {
				n++
			}
		}
		if n != len(posix) {
			errs = append(errs, fmt.Errorf("%s: %d races hold only %d of the %d POSIX races",
				model.Name, len(races), n, len(posix)))
		}
	}
	return errs
}

// TestBruteForceReferenceCorpus holds Verify to bruteRaces on every corpus
// trace, under the four models and the double-commit model: the race count
// and the race list, pair for pair, and every POSIX race a race of every
// other model.
func TestBruteForceReferenceCorpus(t *testing.T) {
	models := append(semantics.All(), verify.DoubleCommit())
	sawRace := false
	for _, tc := range corpus.Tests() {
		tr, err := corpus.Run(tc)
		if err != nil {
			t.Fatal(err)
		}
		a, err := verify.Analyze(tr, verify.AlgoVectorClock, verify.AnalyzeOptions{Workers: 1})
		if err != nil {
			t.Fatalf("%s: %v", tc.Name, err)
		}
		for _, err := range checkModels(a, models) {
			t.Errorf("%s: %v", tc.Name, err)
		}
		sawRace = sawRace || len(bruteRaces(a, semantics.CommitModel())) > 0
	}
	if !sawRace {
		t.Fatal("no corpus trace races under Commit; the comparison is vacuous")
	}
}

// FuzzMSCSearch holds Verify to bruteRaces on a random program under a
// random MSC (the generators of TestClassVerdictsMatchExhaustive), and under
// the four built-in models, with every POSIX race a race of every other
// model and MSC.
func FuzzMSCSearch(f *testing.F) {
	for seed := range int64(8) {
		f.Add(seed, uint8(seed))
	}
	f.Fuzz(func(t *testing.T, seed int64, ranks uint8) {
		rng := rand.New(rand.NewSource(seed))
		tr := verify.RandomIOProgram(rng, 2+int(ranks%4))
		a, err := verify.Analyze(tr, verify.AlgoVectorClock, verify.AnalyzeOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, err := range checkModels(a, append(semantics.All(), verify.RandomMSC(rng), verify.RandomMSC(rng))) {
			t.Error(err)
		}
	})
}
