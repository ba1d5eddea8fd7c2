package verify

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"verifyio/internal/obs"
	"verifyio/internal/semantics"
	"verifyio/internal/trace"
	"verifyio/internal/vcache"
)

// planTrace synthesizes a trace with enough conflict groups, of skewed
// sizes, to exercise the chunk planner (same shape as the scaling corpus:
// pseudo-random 16-byte accesses in a shared window).
func planTrace(nranks, ops int) *trace.Trace {
	tr := trace.New(nranks)
	for rank := 0; rank < nranks; rank++ {
		tick := int64(2)
		emit := func(layer trace.Layer, fn string, args ...string) {
			tr.Append(trace.Record{Rank: rank, Func: fn, Layer: layer,
				Args: args, Tick: tick, Ret: tick + 1})
			tick += 2
		}
		emit(trace.LayerMPI, "MPI_Barrier", "comm-world")
		emit(trace.LayerPOSIX, "open", "plan.dat", "rw|creat", "3")
		for i := 0; i < ops; i++ {
			// A hot offset every 8th op concentrates conflicts into a few
			// dense groups; the rest spread across the window.
			off := int64(i*37%4096) * 16
			if i%8 == 0 {
				off = 0
			}
			if i%4 == 0 {
				emit(trace.LayerPOSIX, "pread", "3", "16", fmt.Sprint(off))
			} else {
				emit(trace.LayerPOSIX, "pwrite", "3", "16", fmt.Sprint(off))
			}
		}
		emit(trace.LayerPOSIX, "close", "3")
		emit(trace.LayerMPI, "MPI_Barrier", "comm-world")
	}
	return tr
}

// TestPlanChunksPartition: the plan must be a contiguous partition of the
// groups, weight-bounded, with every over-weight group isolated — the
// invariants both parallel verification and the verdict cache rely on.
func TestPlanChunksPartition(t *testing.T) {
	a, err := Analyze(planTrace(4, 900), AlgoVectorClock, AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	conf := a.Conflicts
	if len(conf.Groups) < 100 {
		t.Fatalf("trace too tame: only %d conflict groups", len(conf.Groups))
	}
	plan := planChunks(conf)
	if len(plan) < 2 {
		t.Fatalf("plan has %d chunks; want several (groups=%d)", len(plan), len(conf.Groups))
	}
	next := 0
	for ci, span := range plan {
		if span.lo != next || span.hi <= span.lo {
			t.Fatalf("chunk %d = [%d,%d): not a contiguous partition (expected lo=%d)",
				ci, span.lo, span.hi, next)
		}
		next = span.hi
		w := 0
		for gi := span.lo; gi < span.hi; gi++ {
			gw := len(conf.Groups[gi].Ys())
			if gw >= chunkMaxWeight && span.hi-span.lo != 1 {
				t.Fatalf("group %d (weight %d) shares chunk %d with %d neighbors",
					gi, gw, ci, span.hi-span.lo-1)
			}
			w += gw
		}
		if span.hi-span.lo > 1 && w >= 2*chunkMaxWeight {
			t.Fatalf("chunk %d weight %d exceeds the planner bound", ci, w)
		}
	}
	if next != len(conf.Groups) {
		t.Fatalf("plan covers %d of %d groups", next, len(conf.Groups))
	}
	if !reflect.DeepEqual(plan, planChunks(conf)) {
		t.Fatal("planChunks is not deterministic")
	}
}

// cacheVerdicts runs all models over one analysis with a cache attached and
// returns the per-model reports.
func cacheVerdicts(t *testing.T, tr *trace.Trace, store *vcache.Store) []*Report {
	t.Helper()
	a, err := Analyze(tr, AlgoVectorClock, AnalyzeOptions{Digest: true})
	if err != nil {
		t.Fatal(err)
	}
	reps, err := a.VerifyAll(semantics.All(), Options{Cache: store, CacheID: "test-trace"})
	if err != nil {
		t.Fatal(err)
	}
	return reps
}

// TestCacheWarmRun: the second verification of an unchanged trace must be
// served entirely from cache, with verdicts identical to both the cold
// cached pass and a cacheless baseline.
func TestCacheWarmRun(t *testing.T) {
	tr := runTraced(t, 2, fig2Program)
	baseline := verdicts(t, tr, AlgoVectorClock)

	store := vcache.NewMemory()
	cold := cacheVerdicts(t, tr, store)
	for _, rep := range cold {
		if rep.Cache == nil {
			t.Fatalf("%s: cold cached report missing Cache stats", rep.Model)
		}
		if rep.Cache.Hits != 0 || rep.Cache.Misses == 0 {
			t.Fatalf("%s: cold run Cache = %+v, want all misses", rep.Model, rep.Cache)
		}
		if rep.Cache.DirtyChunks != 0 {
			t.Fatalf("%s: cold run charged %d dirty chunks with no prior manifest",
				rep.Model, rep.Cache.DirtyChunks)
		}
		if rep.RaceCount != baseline[rep.Model] {
			t.Fatalf("%s: cached cold races = %d, cacheless baseline = %d",
				rep.Model, rep.RaceCount, baseline[rep.Model])
		}
	}

	warm := cacheVerdicts(t, tr, store)
	for i, rep := range warm {
		if rep.Cache.Misses != 0 {
			t.Fatalf("%s: warm run missed %d chunks on an unchanged trace",
				rep.Model, rep.Cache.Misses)
		}
		if rep.Cache.Hits != cold[i].Cache.Misses {
			t.Fatalf("%s: warm hits = %d, want every cold-missed chunk (%d)",
				rep.Model, rep.Cache.Hits, cold[i].Cache.Misses)
		}
		if rep.RaceCount != cold[i].RaceCount || rep.ChecksPerformed != cold[i].ChecksPerformed {
			t.Fatalf("%s: warm verdict (races %d, checks %d) differs from cold (races %d, checks %d)",
				rep.Model, rep.RaceCount, rep.ChecksPerformed,
				cold[i].RaceCount, cold[i].ChecksPerformed)
		}
		if len(rep.Races) != len(cold[i].Races) {
			t.Fatalf("%s: warm run reports %d race details, cold %d",
				rep.Model, len(rep.Races), len(cold[i].Races))
		}
		for j := range rep.Races {
			if rep.Races[j].X.Ref != cold[i].Races[j].X.Ref ||
				rep.Races[j].Y.Ref != cold[i].Races[j].Y.Ref {
				t.Fatalf("%s: warm race %d = (%v,%v), cold = (%v,%v)",
					rep.Model, j, rep.Races[j].X.Ref, rep.Races[j].Y.Ref,
					cold[i].Races[j].X.Ref, cold[i].Races[j].Y.Ref)
			}
		}
	}
}

// TestCacheResultsMatchCachelessOnDenseTrace: on a conflict-heavy trace,
// verdicts with the cache (cold and warm) must equal the cacheless run —
// races, counts, and check totals.
func TestCacheResultsMatchCachelessOnDenseTrace(t *testing.T) {
	tr := planTrace(3, 400)
	baseline := verdicts(t, tr, AlgoVectorClock)
	store := vcache.NewMemory()
	for pass, want := 0, baseline; pass < 2; pass++ {
		reps := cacheVerdicts(t, tr, store)
		for _, rep := range reps {
			if rep.RaceCount != want[rep.Model] {
				t.Fatalf("pass %d %s: races = %d, cacheless = %d",
					pass, rep.Model, rep.RaceCount, want[rep.Model])
			}
		}
		if pass == 1 {
			for _, rep := range reps {
				if rep.Cache.Misses != 0 {
					t.Fatalf("%s: warm pass missed %d chunks", rep.Model, rep.Cache.Misses)
				}
			}
		}
	}
}

// TestCacheModelsKeyedSeparately: two models sharing one store must not
// alias each other's verdicts — a Session hit may not satisfy POSIX.
func TestCacheModelsKeyedSeparately(t *testing.T) {
	tr := runTraced(t, 2, fig2Program)
	store := vcache.NewMemory()
	a, err := Analyze(tr, AlgoVectorClock, AnalyzeOptions{Digest: true})
	if err != nil {
		t.Fatal(err)
	}
	models := semantics.All()
	var posix, session semantics.Model
	for _, m := range models {
		switch m.Name {
		case "POSIX":
			posix = m
		case "Session":
			session = m
		}
	}
	repP, err := a.Verify(Options{Model: posix, Cache: store})
	if err != nil {
		t.Fatal(err)
	}
	repS, err := a.Verify(Options{Model: session, Cache: store})
	if err != nil {
		t.Fatal(err)
	}
	if repS.Cache.Hits != 0 {
		t.Fatalf("Session pass hit %d chunks sealed by the POSIX pass", repS.Cache.Hits)
	}
	if repP.RaceCount != 0 || repS.RaceCount != 1 {
		t.Fatalf("fig2 verdicts: POSIX %d races (want 0), Session %d (want 1)",
			repP.RaceCount, repS.RaceCount)
	}
}

// TestForgedVerdictsMiss: a cached verdict whose pairs are not its chunk's
// races in discovery order, or that holds more pairs than races, is a miss,
// and the pass reports the races and checks a cacheless one does — also when
// the bad pair lies past the detail the chunk's batch still needs. The
// genuine verdict, sealed back by the miss, hits again.
func TestForgedVerdictsMiss(t *testing.T) {
	a, err := Analyze(planTrace(3, 400), AlgoVectorClock, AnalyzeOptions{Digest: true})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Model: semantics.SessionModel(), Workers: 1, MaxRaceDetails: 5}
	cacheless, err := a.Verify(opts)
	if err != nil {
		t.Fatal(err)
	}
	// Cache-served chunks add to none of the walk counters.
	noWalk := func(rep *Report) []byte {
		cp := *rep
		cp.Cache, cp.ClassHits, cp.Classes, cp.HBQueries = nil, 0, 0, 0
		return reportJSON(t, &cp)
	}
	want := noWalk(cacheless)
	store := vcache.NewMemory()
	opts.Cache = store
	if _, err := a.Verify(opts); err != nil { // seals every chunk
		t.Fatal(err)
	}
	cs := newCacheSession(a, opts, obs.Ctx{})
	key := func(c int) vcache.Key {
		return vcache.Key{Chunk: cs.art.chunks[c], Model: cs.model, Epoch: cs.art.epoch}
	}
	get := func(c int) vcache.Verdict {
		v, ok := store.Get(key(c))
		if !ok {
			t.Fatalf("chunk %d was not sealed", c)
		}
		return v
	}
	// c0 opens a batch, so it is applied with the full cap; c1 follows it
	// with a budget smaller than the pairs it stores.
	c0, c1 := -1, -1
	for _, b := range a.queryPlan().batches {
		if b.hi-b.lo >= 2 && len(get(b.lo).Pairs) >= 2 &&
			len(get(b.lo+1).Pairs) > max(opts.MaxRaceDetails-int(get(b.lo).Races), 0) {
			c0, c1 = b.lo, b.lo+1
			break
		}
	}
	if c0 < 0 {
		t.Fatal("no batch opens with two racy chunks")
	}
	v0, v1 := get(c0), get(c1)
	edit := func(v vcache.Verdict, f func(p []vcache.RefPair)) vcache.Verdict {
		v.Pairs = slices.Clone(v.Pairs)
		f(v.Pairs)
		return v
	}
	onX := func(p vcache.RefPair) vcache.RefPair { // X is in none of its own group's Ys
		p.YRank, p.YSeq = p.XRank, p.XSeq
		return p
	}
	for _, f := range []struct {
		name string
		c    int
		v    vcache.Verdict
	}{
		{"pair of another chunk", c0, edit(v0, func(p []vcache.RefPair) { p[0] = v1.Pairs[0] })},
		{"pairs out of discovery order", c0, edit(v0, func(p []vcache.RefPair) { p[0], p[1] = p[1], p[0] })},
		{"Y outside its X's group", c0, edit(v0, func(p []vcache.RefPair) { p[0] = onX(p[0]) })},
		{"bad pair past the needed detail", c1, edit(v1, func(p []vcache.RefPair) { p[len(p)-1] = onX(p[len(p)-1]) })},
		{"duplicated pair", c0, edit(v0, func(p []vcache.RefPair) { p[1] = p[0] })},
		{"fewer races than pairs", c0, vcache.Verdict{Checks: v0.Checks, Races: int64(len(v0.Pairs) - 1), Pairs: v0.Pairs}},
	} {
		store.Put(key(f.c), f.v)
		rep, err := a.Verify(opts)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Cache.Misses != 1 || rep.Cache.Hits != int64(len(cs.art.chunks)-1) {
			t.Errorf("%s: cache %+v, want exactly the forged chunk to miss", f.name, *rep.Cache)
		}
		if got := noWalk(rep); !bytes.Equal(got, want) {
			t.Errorf("%s: report differs from the cacheless one\ngot:  %s\nwant: %s", f.name, got, want)
		}
	}
	rep, err := a.Verify(opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cache.Misses != 0 {
		t.Errorf("genuine verdicts: %d misses, want none", rep.Cache.Misses)
	}
}
