package verifyio

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"verifyio/internal/corpus"
	itrace "verifyio/internal/trace"
)

func TestModelsOrder(t *testing.T) {
	got := Models()
	want := []Model{POSIX, Commit, Session, MPIIO}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Models()[%d] = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestCorpusListing(t *testing.T) {
	names := CorpusTests()
	if len(names) != 91 {
		t.Fatalf("CorpusTests = %d entries, want 91", len(names))
	}
	seen := map[string]bool{}
	for _, n := range names {
		seen[n] = true
	}
	for _, n := range []string{"parallel5", "flexible", "null_args", "shapesame", "collective_error"} {
		if !seen[n] {
			t.Errorf("corpus missing named test %s", n)
		}
	}
}

func TestRunAndVerifyFlexible(t *testing.T) {
	tr, err := RunCorpusTest("flexible")
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumRanks() != 4 || tr.NumRecords() == 0 {
		t.Fatalf("trace shape: ranks=%d records=%d", tr.NumRanks(), tr.NumRecords())
	}
	if tr.Meta("program") != "flexible" {
		t.Errorf("meta program = %q", tr.Meta("program"))
	}
	reports, err := VerifyAll(tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 4 {
		t.Fatalf("reports = %d", len(reports))
	}
	byModel := map[Model]*Report{}
	for _, rep := range reports {
		byModel[rep.Model] = rep
	}
	if !byModel[POSIX].ProperlySynchronized {
		t.Error("flexible should be properly synchronized under POSIX")
	}
	for _, m := range []Model{Commit, Session, MPIIO} {
		if byModel[m].RaceCount == 0 {
			t.Errorf("flexible should race under %s", m)
		}
	}
	// Race details carry attribution data.
	race := byModel[MPIIO].Races[0]
	if race.File == "" || len(race.ChainX) == 0 || race.Level == "" {
		t.Errorf("race detail incomplete: %+v", race)
	}
}

func TestVerifySingleModelAndRender(t *testing.T) {
	tr, err := RunCorpusTest("parallel5")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Verify(tr, POSIX, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RaceCount == 0 || rep.ProperlySynchronized {
		t.Fatalf("parallel5 under POSIX: races=%d", rep.RaceCount)
	}
	var buf bytes.Buffer
	rep.Render(&buf)
	out := buf.String()
	for _, want := range []string{"DATA RACES", "nc_put_var_schar", "pwrite"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered report missing %q", want)
		}
	}
	if !strings.Contains(rep.Summary(), "data races") {
		t.Errorf("summary = %q", rep.Summary())
	}
}

func TestTraceDirRoundTrip(t *testing.T) {
	tr, err := RunCorpusTest("record")
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "trace")
	if err := tr.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTraceDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRecords() != tr.NumRecords() {
		t.Fatalf("round trip records %d != %d", back.NumRecords(), tr.NumRecords())
	}
	// Verification of the reloaded trace gives identical verdicts.
	a, err := VerifyAll(tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := VerifyAll(back, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].RaceCount != b[i].RaceCount {
			t.Errorf("%s: %d races before, %d after round trip", a[i].Model, a[i].RaceCount, b[i].RaceCount)
		}
	}
}

func TestUnmatchedReportSurface(t *testing.T) {
	tr, err := RunCorpusTest("collective_error")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Verify(tr, MPIIO, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verified {
		t.Fatal("collective_error must abort verification")
	}
	if len(rep.Problems) == 0 || rep.Problems[0].Kind == "" {
		t.Fatalf("problems = %+v", rep.Problems)
	}
}

func TestBadInputs(t *testing.T) {
	if _, err := RunCorpusTest("nope"); err == nil {
		t.Error("RunCorpusTest accepted unknown test")
	}
	tr, err := RunCorpusTest("scalar")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Verify(tr, Model("strict"), nil); err == nil {
		t.Error("Verify accepted unknown model")
	}
	if _, err := ReadTraceDir(t.TempDir()); err == nil {
		t.Error("ReadTraceDir accepted empty dir")
	}
}

// TestTolerantReadMatchesIntactPrefix is the acceptance test for lenient
// ingestion: verifying a trace salvaged from a mid-stream-truncated rank
// file must produce reports byte-identical (modulo the wall-clock timing
// line) to verifying the equivalent intact prefix trace, with accurate
// salvage accounting.
func TestTolerantReadMatchesIntactPrefix(t *testing.T) {
	full, err := RunCorpusTest("record")
	if err != nil {
		t.Fatal(err)
	}
	// Store uncompressed so the trace layout is addressable, then chop
	// rank 1's stream clean at a record boundary part-way through.
	dir := filepath.Join(t.TempDir(), "damaged")
	if err := itrace.WriteDir(dir, full.t, itrace.EncodeOptions{Compress: false}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "rank-1.viot")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	spans, err := itrace.Layout(data)
	if err != nil {
		t.Fatal(err)
	}
	keep := len(full.t.Ranks[1]) / 2
	if keep < 2 {
		t.Fatalf("rank 1 too small to truncate meaningfully: %d records", len(full.t.Ranks[1]))
	}
	cut, ok := itrace.SpanByName(spans, "record", 0, keep-1)
	if !ok {
		t.Fatalf("no span for record %d", keep-1)
	}
	if err := os.WriteFile(path, data[:cut.End], 0o644); err != nil {
		t.Fatal(err)
	}

	// Strict loading must refuse; lenient loading salvages with exact
	// counts.
	if _, err := ReadTraceDir(dir); err == nil {
		t.Fatal("strict ReadTraceDir accepted a truncated rank file")
	}
	salvaged, rec, err := ReadTraceDirOpts(dir, ReadOptions{Tolerate: true})
	if err != nil {
		t.Fatalf("tolerant read failed: %v", err)
	}
	wantDropped := len(full.t.Ranks[1]) - keep
	if rec.Clean() || len(rec.Ranks) != 1 {
		t.Fatalf("recovery = %+v, want exactly one damaged rank", rec)
	}
	rr := rec.Ranks[0]
	if rr.Rank != 1 || rr.Salvaged != keep || rr.Dropped != wantDropped {
		t.Fatalf("recovery = %+v, want rank 1 salvaged %d dropped %d", rr, keep, wantDropped)
	}
	if rr.Reason == "" || !strings.Contains(rr.Reason, "truncated") {
		t.Errorf("recovery reason %q does not classify the damage", rr.Reason)
	}

	// The reference: the same execution as if rank 1 had only ever logged
	// the prefix.
	ptr := itrace.New(full.t.NumRanks())
	ptr.Meta = full.t.Meta
	copy(ptr.Ranks, full.t.Ranks)
	ptr.Ranks[1] = full.t.Ranks[1][:keep]
	if err := ptr.Validate(); err != nil {
		t.Fatal(err)
	}
	prefix := &Trace{t: ptr}

	opts := &Options{Workers: 1, ContinueOnUnmatched: true}
	got, err := VerifyAll(salvaged, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := VerifyAll(prefix, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("report counts differ: %d vs %d", len(got), len(want))
	}
	for i := range got {
		g, w := renderUntimed(got[i]), renderUntimed(want[i])
		if g != w {
			t.Errorf("%s: salvaged-trace report differs from intact-prefix report:\n--- salvaged\n%s\n--- intact\n%s",
				got[i].Model, g, w)
		}
	}
}

// renderUntimed renders a report without its timing line, the one line two
// runs of the same verification may differ in.
func renderUntimed(rep *Report) string {
	var buf bytes.Buffer
	rep.Render(&buf)
	var kept []string
	for _, line := range strings.SplitAfter(buf.String(), "\n") {
		if !strings.HasPrefix(line, "timing:") {
			kept = append(kept, line)
		}
	}
	return strings.Join(kept, "")
}

// renderAllUntimed is renderUntimed over one report per model.
func renderAllUntimed(reps []*Report) string {
	var out strings.Builder
	for _, rep := range reps {
		out.WriteString(renderUntimed(rep))
	}
	return out.String()
}

// TestRepairedTraceReportsMatchIntact: a rank file truncated at two
// different cuts loads leniently with a Recovery naming that rank, from
// memory and off the directory alike, and once repaired the trace loads
// clean and verifies to exactly the reports it had before it was damaged —
// verifying a damaged trace leaves nothing behind for the next run.
func TestRepairedTraceReportsMatchIntact(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "trace")
	if err := itrace.WriteDir(dir, corpus.ScalingTrace(4, 500, 1<<12, 3), itrace.DefaultEncodeOptions()); err != nil {
		t.Fatal(err)
	}
	victim := filepath.Join(dir, "rank-2.viot")
	orig, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	opts := &Options{ContinueOnUnmatched: true}
	// verifyBoth verifies the directory from memory and off the directory,
	// both read leniently, and requires the two to agree.
	verifyBoth := func(what string) (string, *Recovery) {
		t.Helper()
		tr, rec, err := ReadTraceDirOpts(dir, ReadOptions{Tolerate: true})
		if err != nil {
			t.Fatal(err)
		}
		reps, err := VerifyAll(tr, opts)
		if err != nil {
			t.Fatal(err)
		}
		streamed, srec, err := VerifyAllStream(dir, ReadOptions{Tolerate: true}, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rec, srec) {
			t.Errorf("%s: recovery %+v in memory, %+v off the directory", what, rec, srec)
		}
		got := renderAllUntimed(reps)
		if s := renderAllUntimed(streamed); s != got {
			t.Errorf("%s: reports differ between memory and directory:\n%s\n---\n%s", what, got, s)
		}
		return got, rec
	}

	intact, rec := verifyBoth("intact")
	if !rec.Clean() {
		t.Fatalf("intact trace reports damage: %+v", rec.Ranks)
	}
	// A half cut dies in the string table and salvages nothing; a
	// two-thirds cut recovers real records.
	for _, keep := range []int{len(orig) / 2, len(orig) * 2 / 3} {
		what := fmt.Sprintf("cut at %d of %d bytes", keep, len(orig))
		if err := os.WriteFile(victim, orig[:keep], 0o644); err != nil {
			t.Fatal(err)
		}
		damaged, rec := verifyBoth(what)
		if rec.Clean() || len(rec.Ranks) != 1 || rec.Ranks[0].Rank != 2 {
			t.Fatalf("%s: recovery %+v, want rank 2 alone damaged", what, rec)
		}
		if damaged == intact {
			t.Errorf("%s: the salvaged trace verifies exactly as the intact one", what)
		}

		if err := os.WriteFile(victim, orig, 0o644); err != nil {
			t.Fatal(err)
		}
		repaired, rec := verifyBoth(what + ", repaired")
		if !rec.Clean() {
			t.Fatalf("%s: repaired trace still reports damage: %+v", what, rec.Ranks)
		}
		if repaired != intact {
			t.Errorf("%s: repaired trace verifies differently from the intact one:\n%s\n---\n%s", what, repaired, intact)
		}
	}
}

// TestCacheShimInert: the deprecated cache names change nothing. OpenCache
// creates its directory and writes nothing into it, a run given the Cache
// renders exactly what a run without one renders and carries no Report.Cache,
// and Close returns nil, on a nil *Cache too.
func TestCacheShimInert(t *testing.T) {
	cacheDir := filepath.Join(t.TempDir(), "cache", "nested")
	cache, err := OpenCache(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	if info, err := os.Stat(cacheDir); err != nil || !info.IsDir() {
		t.Fatalf("OpenCache left no directory: %v", err)
	}
	flexible, err := RunCorpusTest("flexible")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		tr   *Trace
	}{
		{"flexible", flexible},
		{"scaling", &Trace{t: corpus.ScalingTrace(4, 500, 4<<10, 3)}},
	} {
		dir := filepath.Join(t.TempDir(), tc.name)
		if err := tc.tr.WriteDir(dir); err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 3} {
			plain := &Options{Workers: workers}
			cached := &Options{Workers: workers, Cache: cache, CacheID: dir}
			what := fmt.Sprintf("%s/workers=%d", tc.name, workers)
			for _, run := range []struct {
				path   string
				verify func(*Options) ([]*Report, error)
			}{
				{"VerifyAll", func(o *Options) ([]*Report, error) { return VerifyAll(tc.tr, o) }},
				{"VerifyAllStream", func(o *Options) ([]*Report, error) {
					reps, _, err := VerifyAllStream(dir, ReadOptions{}, o)
					return reps, err
				}},
			} {
				want, err := run.verify(plain)
				if err != nil {
					t.Fatal(err)
				}
				got, err := run.verify(cached)
				if err != nil {
					t.Fatal(err)
				}
				for i, rep := range got {
					if rep.Cache != nil {
						t.Errorf("%s %s %s: Report.Cache = %+v, want nil", what, run.path, rep.Model, rep.Cache)
					}
					if g, w := renderUntimed(rep), renderUntimed(want[i]); g != w {
						t.Errorf("%s %s %s: the Cache changed the report:\n%s\n---\n%s", what, run.path, rep.Model, g, w)
					}
				}
			}
		}
	}
	if err := cache.Close(); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Errorf("the cache directory holds %d entries after Close, want none", len(ents))
	}
	if err := (*Cache)(nil).Close(); err != nil {
		t.Errorf("(*Cache)(nil).Close() = %v, want nil", err)
	}
}
