package verifyio

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"verifyio/internal/corpus"
	"verifyio/internal/match"
	"verifyio/internal/semantics"
	"verifyio/internal/trace"
	"verifyio/internal/vcache"
	"verifyio/internal/verify"
)

// cacheVerifyAll runs the four-model verification of one analysis against a
// store (Workers selects the chunk execution schedule; the cache key set
// must not depend on it).
func cacheVerifyAll(t *testing.T, tr *trace.Trace, store *vcache.Store, workers int, id string) []*verify.Report {
	t.Helper()
	a, err := verify.AnalyzeOpts(tr, verify.AlgoVectorClock, verify.AnalyzeOptions{Workers: workers, Digest: true})
	if err != nil {
		t.Fatal(err)
	}
	reps, err := a.VerifyAll(semantics.All(), verify.Options{
		Workers: workers, ContinueOnUnmatched: true, Cache: store, CacheID: id,
	})
	if err != nil {
		t.Fatal(err)
	}
	return reps
}

// sortedKeys renders a store's key set in a canonical order.
func sortedKeys(store *vcache.Store) string {
	ids := store.Keys()
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && bytes.Compare(ids[j][:], ids[j-1][:]) < 0; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	var buf bytes.Buffer
	for _, id := range ids {
		fmt.Fprintf(&buf, "%x\n", id)
	}
	return buf.String()
}

// TestCacheDigestStabilityAcrossWorkers is the digest-stability gate: the
// set of cache keys a verification run seals — chunk plan, content digests,
// model digests, epoch — must be identical at every worker count and across
// repeated runs. A schedule-dependent digest would make the cache silently
// cold (or worse, aliased) between machines.
func TestCacheDigestStabilityAcrossWorkers(t *testing.T) {
	workerCounts := []int{1, 2, 7, runtime.GOMAXPROCS(0)}
	for _, name := range []string{"pmulti_dset", "nc4perf", "flexible"} {
		tr := corpusTraceT(t, name)
		var base string
		for _, w := range workerCounts {
			for rep := 0; rep < 2; rep++ {
				store := vcache.NewMemory()
				cacheVerifyAll(t, tr, store, w, "stability/"+name)
				keys := sortedKeys(store)
				if keys == "" {
					t.Fatalf("%s workers=%d: run sealed no verdicts", name, w)
				}
				if base == "" {
					base = keys
				} else if keys != base {
					t.Errorf("%s workers=%d rep=%d: cache key set differs from workers=1",
						name, w, rep)
				}
			}
		}
	}
}

// TestCacheWarmEquivalenceCorpus extends the determinism suite to the
// cache: over the whole reproduce corpus, a cacheless run, a cold cached
// run, and a fully-warm cached run must produce byte-identical reports
// (fingerprints zero the cache counters themselves), and the warm run must
// be served entirely from cache.
func TestCacheWarmEquivalenceCorpus(t *testing.T) {
	for _, tc := range corpus.Tests() {
		tr, err := corpus.Run(tc)
		if err != nil {
			t.Fatalf("%s: %v", tc.Name, err)
		}
		a, err := verify.Analyze(tr, verify.AlgoVectorClock, verify.AnalyzeOptions{})
		if err != nil {
			t.Fatalf("%s: %v", tc.Name, err)
		}
		plain, err := a.VerifyAll(semantics.All(), verify.Options{ContinueOnUnmatched: true})
		if err != nil {
			t.Fatalf("%s: %v", tc.Name, err)
		}
		store := vcache.NewMemory()
		cold := cacheVerifyAll(t, tr, store, 1, "corpus/"+tc.Name)
		warm := cacheVerifyAll(t, tr, store, 1, "corpus/"+tc.Name)
		for i := range plain {
			pj := reportFingerprint(t, plain[i])
			cj := reportFingerprint(t, cold[i])
			wj := reportFingerprint(t, warm[i])
			if !bytes.Equal(pj, cj) {
				t.Errorf("%s/%s: cold cached report differs from cacheless", tc.Name, plain[i].Model)
			}
			if !bytes.Equal(pj, wj) {
				t.Errorf("%s/%s: warm cached report differs from cacheless", tc.Name, plain[i].Model)
			}
			if warm[i].Verified && warm[i].Cache != nil && warm[i].Cache.Misses != 0 {
				t.Errorf("%s/%s: warm run missed %d chunks on an unchanged trace",
					tc.Name, warm[i].Model, warm[i].Cache.Misses)
			}
		}
	}
}

// Append-test geometry: ops is chosen so the shared per-rank prefix
// (2 + ops + 2·⌊ops/64⌋ = 1280 records) is an exact multiple of the
// 64-record digest block, so the manifest's block-granular cuts certify the
// whole base prefix. extra = 13 ≈ 1% of ops.
const (
	appendRanks  = 4
	appendOps    = 1240
	appendExtra  = 13
	appendWindow = int64(1 << 14)
	appendSeed   = int64(42)
)

// TestCacheAppendIncrementalEquivalence is the incremental gate: verifying
// an appended trace against the base run's store must (a) report exactly
// what a cold verification of the appended trace reports, and (b) promote
// the stable prefix instead of recomputing it — only the dirtied tail, at
// most 5 % of the cold run's chunks, misses.
func TestCacheAppendIncrementalEquivalence(t *testing.T) {
	base := corpus.ScalingTrace(appendRanks, appendOps, appendWindow, appendSeed)
	app := corpus.ScalingTraceAppend(appendRanks, appendOps, appendExtra, appendWindow, appendSeed)

	// The appended trace must extend the base per-rank record streams.
	for r := 0; r < appendRanks; r++ {
		nb, na := len(base.Ranks[r]), len(app.Ranks[r])
		if na <= nb {
			t.Fatalf("rank %d: appended trace has %d records, base %d", r, na, nb)
		}
		// Everything before the base's trailing close/barrier is shared.
		for i := 0; i < nb-2; i++ {
			if base.Ranks[r][i].Func != app.Ranks[r][i].Func ||
				fmt.Sprint(base.Ranks[r][i].Args) != fmt.Sprint(app.Ranks[r][i].Args) {
				t.Fatalf("rank %d record %d: append generator diverged from the base prefix", r, i)
			}
		}
	}

	coldApp := cacheVerifyAll(t, app, vcache.NewMemory(), 1, "append-test")

	store := vcache.NewMemory()
	cacheVerifyAll(t, base, store, 1, "append-test")
	incr := cacheVerifyAll(t, app, store, 1, "append-test")

	var hits, misses, coldMisses int64
	for i := range coldApp {
		coldMisses += coldApp[i].Cache.Misses
		if !bytes.Equal(reportFingerprint(t, coldApp[i]), reportFingerprint(t, incr[i])) {
			t.Errorf("%s: incremental report differs from cold verification of the appended trace",
				coldApp[i].Model)
		}
		hits += incr[i].Cache.Hits
		misses += incr[i].Cache.Misses
		if incr[i].Cache.DirtyChunks != incr[i].Cache.Misses {
			t.Errorf("%s: %d misses but %d charged dirty — a manifest was present, every miss is a dirty chunk",
				incr[i].Model, incr[i].Cache.Misses, incr[i].Cache.DirtyChunks)
		}
	}
	if hits == 0 {
		t.Fatal("incremental run promoted nothing: the stable prefix was not certified")
	}
	if misses == 0 {
		t.Fatal("incremental run missed nothing: the appended region was not verified (test is vacuous)")
	}
	if 20*misses > coldMisses {
		t.Errorf("incremental run re-verified %d of the cold run's %d chunks; a ~1%% append must dirty at most 5%% of the plan",
			misses, coldMisses)
	}
}

// barrierRingTrace builds a 16-rank trace of epochs: conflicting writes, a
// neighbour ring exchange, a world barrier. With tail set every rank runs a
// few more epochs — the appended region.
func barrierRingTrace(tail bool) *trace.Trace {
	const nranks, epochs, extra = 16, 40, 3
	tr := trace.New(nranks)
	n := epochs
	if tail {
		n += extra
	}
	for rank := 0; rank < nranks; rank++ {
		tick := int64(2)
		emit := func(layer trace.Layer, fn string, args ...string) {
			tr.Append(trace.Record{Rank: rank, Func: fn, Layer: layer,
				Args: args, Tick: tick, Ret: tick + 1})
			tick += 2
		}
		right, left := fmt.Sprint((rank+1)%nranks), fmt.Sprint((rank+nranks-1)%nranks)
		emit(trace.LayerPOSIX, "open", "ring.dat", "rw|creat", "3")
		for e := 0; e < n; e++ {
			for i := 0; i < 4; i++ {
				emit(trace.LayerPOSIX, "pwrite", "3", "16", fmt.Sprint(int64((e*4+i)%24)*8))
			}
			emit(trace.LayerMPI, "MPI_Send", "comm-world", right, fmt.Sprint(e), "8")
			emit(trace.LayerMPI, "MPI_Recv", "comm-world", left, fmt.Sprint(e), "8", left, fmt.Sprint(e))
			emit(trace.LayerMPI, "MPI_Barrier", "comm-world")
		}
	}
	return tr
}

// TestCutsStarEqualsClique: the manifest records a join node as a star over
// its record endpoints instead of the source × target clique it stands for.
// Manifest.Cuts only asks of an edge which endpoints it ties together, so on
// the append-incremental cases the stable-region cuts computed from the star
// manifests (what the verifier stores) must equal, rank by rank, the cuts
// computed from the same manifests with match.Pairwise-expanded edges.
func TestCutsStarEqualsClique(t *testing.T) {
	cases := []struct {
		name      string
		base, app *trace.Trace
	}{
		{"scaling-append",
			corpus.ScalingTrace(appendRanks, appendOps, appendWindow, appendSeed),
			corpus.ScalingTraceAppend(appendRanks, appendOps, appendExtra, appendWindow, appendSeed)},
		{"barrier-ring-16", barrierRingTrace(false), barrierRingTrace(true)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// manifests returns the manifest a verification of tr stores, and
			// its twin with the sync order spelled out pair by pair.
			manifests := func(tr *trace.Trace) (star, clique *vcache.Manifest) {
				store := vcache.NewMemory()
				cacheVerifyAll(t, tr, store, 1, "cuts")
				star = store.Manifest("cuts")
				if star == nil {
					t.Fatal("verification stored no manifest")
				}
				mres, err := match.MatchOpts(tr, match.Options{})
				if err != nil {
					t.Fatal(err)
				}
				cp := *star
				cp.Edges = nil
				for _, e := range match.Pairwise(mres.Edges) {
					cp.Edges = append(cp.Edges, vcache.Edge{
						FromRank: int32(e.From.Rank), FromSeq: int32(e.From.Seq),
						ToRank: int32(e.To.Rank), ToSeq: int32(e.To.Seq),
					})
				}
				if len(star.Edges) >= len(cp.Edges) {
					t.Fatalf("star manifest holds %d edges, the clique %d: nothing was saved", len(star.Edges), len(cp.Edges))
				}
				for _, e := range star.Edges {
					if e.FromRank < 0 || e.ToRank < 0 {
						t.Fatalf("manifest edge %+v names a join node", e)
					}
				}
				return star, &cp
			}
			oldStar, oldClique := manifests(tc.base)
			newStar, newClique := manifests(tc.app)
			got := oldStar.Cuts(newStar.Ranks, newStar.Edges)
			want := oldClique.Cuts(newClique.Ranks, newClique.Edges)
			if got == nil || want == nil {
				t.Fatalf("no stable region certified: star %v, clique %v", got, want)
			}
			stable := 0
			for r := range want {
				if got[r] != want[r] {
					t.Errorf("rank %d: cut %d from star manifests, %d from clique manifests", r, got[r], want[r])
				}
				if got[r] >= len(tc.app.Ranks[r]) {
					t.Errorf("rank %d: cut %d covers the appended region", r, got[r])
				}
				stable += got[r]
			}
			if stable == 0 {
				t.Fatal("every cut is 0: the comparison is vacuous")
			}
		})
	}
}

// TestParentWrittenV2CacheOnlyMisses: testdata/vcache_v2 holds the corpus
// test "flexible" as a trace directory and the -cache-dir the parent commit's
// binary (vcache.CodeVersion v2, barriers as P² edges) filled while verifying
// it. Join nodes change the skeleton digest and the manifest, so CodeVersion
// is v3 and the old directory must be a clean miss — never a stale hit —
// and usable again afterwards.
func TestParentWrittenV2CacheOnlyMisses(t *testing.T) {
	const traceDir, cacheDir = "testdata/vcache_v2/trace", "testdata/vcache_v2/cache"
	dir := t.TempDir()
	files, err := os.ReadDir(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files { // Open rewrites the directory; work on a copy
		data, err := os.ReadFile(filepath.Join(cacheDir, f.Name()))
		if err == nil {
			err = os.WriteFile(filepath.Join(dir, f.Name()), data, 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	tr, err := ReadTraceDir(traceDir)
	if err != nil {
		t.Fatal(err)
	}

	// The fixture is live: its verdicts load, and its manifest is stored under
	// the id this test uses and describes exactly this trace — at v2 the run
	// below would be served from it.
	old, err := vcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := old.Manifest(traceDir)
	if old.Len() == 0 || m == nil {
		t.Fatalf("fixture holds %d verdicts, manifest %v", old.Len(), m)
	}
	if m.CodeVersion != "verifyio-vcache-v2" || m.CodeVersion == vcache.CodeVersion {
		t.Fatalf("fixture manifest is %q, current %q", m.CodeVersion, vcache.CodeVersion)
	}
	for r := range m.Ranks {
		if m.Ranks[r].Records != len(tr.t.Ranks[r]) {
			t.Fatalf("fixture manifest rank %d has %d records, the trace %d", r, m.Ranks[r].Records, len(tr.t.Ranks[r]))
		}
	}
	old.Close()

	plain, err := VerifyAll(tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	opts := &Options{Cache: cache, CacheID: traceDir}
	first, err := VerifyAll(tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	second, err := VerifyAll(tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain {
		if first[i].Cache.Hits != 0 || first[i].Cache.Misses == 0 {
			t.Errorf("%s: %d hits, %d misses against a v2 directory; want only misses",
				first[i].Model, first[i].Cache.Hits, first[i].Cache.Misses)
		}
		if second[i].Cache.Misses != 0 {
			t.Errorf("%s: re-run missed %d chunks; the directory did not take the new verdicts",
				second[i].Model, second[i].Cache.Misses)
		}
		for _, got := range []*Report{first[i], second[i]} {
			if !bytes.Equal(reportFingerprint(t, got.inner), reportFingerprint(t, plain[i].inner)) {
				t.Errorf("%s: cached report differs from the cacheless one", got.Model)
			}
		}
	}
}

// unlinkTrace builds a two-rank trace of conflicting writes; with tail set,
// rank 0 additionally unlinks and recreates the file in the appended region
// — the mutation that shifts fid generations and must disable promotion.
func unlinkTrace(tail bool) *trace.Trace {
	tr := trace.New(2)
	for rank := 0; rank < 2; rank++ {
		tick := int64(2)
		emit := func(layer trace.Layer, fn string, args ...string) {
			tr.Append(trace.Record{Rank: rank, Func: fn, Layer: layer,
				Args: args, Tick: tick, Ret: tick + 1})
			tick += 2
		}
		emit(trace.LayerMPI, "MPI_Barrier", "comm-world")
		emit(trace.LayerPOSIX, "open", "u.dat", "rw|creat", "3")
		for i := 0; i < 200; i++ {
			emit(trace.LayerPOSIX, "pwrite", "3", "16", fmt.Sprint(int64(i%32)*8))
		}
		if tail {
			if rank == 0 {
				emit(trace.LayerPOSIX, "close", "3")
				emit(trace.LayerPOSIX, "unlink", "u.dat")
				emit(trace.LayerPOSIX, "open", "u.dat", "rw|creat", "3")
			}
			for i := 0; i < 8; i++ {
				emit(trace.LayerPOSIX, "pwrite", "3", "16", fmt.Sprint(int64(i)*8))
			}
		}
		emit(trace.LayerPOSIX, "close", "3")
		emit(trace.LayerMPI, "MPI_Barrier", "comm-world")
	}
	return tr
}

// TestCacheUnlinkAppendStaysCorrect: when the appended region unlinks a
// file, promoting prefix verdicts would be unsound (fid generations shift);
// the unlink guard must refuse promotion, and the reports must still equal
// a cold verification of the changed trace.
func TestCacheUnlinkAppendStaysCorrect(t *testing.T) {
	base, app := unlinkTrace(false), unlinkTrace(true)

	coldApp := cacheVerifyAll(t, app, vcache.NewMemory(), 1, "unlink-test")

	store := vcache.NewMemory()
	cacheVerifyAll(t, base, store, 1, "unlink-test")
	incr := cacheVerifyAll(t, app, store, 1, "unlink-test")

	var misses int64
	for i := range coldApp {
		if !bytes.Equal(reportFingerprint(t, coldApp[i]), reportFingerprint(t, incr[i])) {
			t.Errorf("%s: incremental report differs from cold verification after an unlink append",
				coldApp[i].Model)
		}
		if incr[i].Cache.Hits != 0 {
			t.Errorf("%s: %d chunks promoted across an unlink — the guard must disable promotion",
				incr[i].Model, incr[i].Cache.Hits)
		}
		misses += incr[i].Cache.Misses
	}
	if misses == 0 {
		t.Fatal("unlink trace produced no chunk work; the guard test is vacuous")
	}
}

// TestPublicAPICache exercises the cache through the public surface (what
// cmd/verifyio plumbs): OpenCache on a directory, two VerifyAll runs, the
// second fully warm, stats surfaced on both the Report and the Cache.
func TestPublicAPICache(t *testing.T) {
	tr, err := RunCorpusTest("flexible")
	if err != nil {
		t.Fatal(err)
	}
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	opts := &Options{Cache: cache, CacheID: "public-test"}
	cold, err := VerifyAll(tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := VerifyAll(tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cold {
		if cold[i].Cache == nil || warm[i].Cache == nil {
			t.Fatal("cached public reports missing Cache stats")
		}
		if warm[i].Cache.Misses != 0 {
			t.Errorf("%s: warm public run missed %d chunks", warm[i].Model, warm[i].Cache.Misses)
		}
		if cold[i].RaceCount != warm[i].RaceCount {
			t.Errorf("%s: warm races %d != cold races %d",
				cold[i].Model, warm[i].RaceCount, cold[i].RaceCount)
		}
	}
	hits, misses, _ := cache.Stats()
	if misses == 0 || hits == 0 {
		t.Errorf("cache totals hits=%d misses=%d: want a cold and a warm run recorded", hits, misses)
	}
}
