package verifyio

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

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
	stripTiming := func(rep *Report) string {
		var buf bytes.Buffer
		rep.Render(&buf)
		var kept []string
		for _, line := range strings.Split(buf.String(), "\n") {
			if strings.HasPrefix(line, "timing:") {
				continue
			}
			kept = append(kept, line)
		}
		return strings.Join(kept, "\n")
	}
	for i := range got {
		g, w := stripTiming(got[i]), stripTiming(want[i])
		if g != w {
			t.Errorf("%s: salvaged-trace report differs from intact-prefix report:\n--- salvaged\n%s\n--- intact\n%s",
				got[i].Model, g, w)
		}
	}
}
