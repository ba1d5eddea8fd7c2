package verifyio

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"
	"time"

	"verifyio/internal/corpus"
	"verifyio/internal/trace"
	"verifyio/internal/verify"
)

// TestVerifyAllStreamPublicAPI checks the public directory entry points
// against the in-memory ones, including the wrapped report fields the CLI
// prints (Ranks/Records) and single-model VerifyStream.
func TestVerifyAllStreamPublicAPI(t *testing.T) {
	fingerprint := func(rep *Report) []byte {
		cp := *rep
		cp.Ledger = Ledger{}
		cp.Workers = 0
		b, err := json.Marshal(&cp)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, name := range []string{"flexible", "pmulti_dset"} {
		tr := corpusTraceT(t, name)
		dir := filepath.Join(t.TempDir(), "trace")
		if err := trace.WriteDir(dir, tr, trace.DefaultEncodeOptions()); err != nil {
			t.Fatal(err)
		}
		mt, _, err := ReadTraceDirOpts(dir, ReadOptions{})
		if err != nil {
			t.Fatal(err)
		}
		opts := &Options{ContinueOnUnmatched: true}
		want, err := VerifyAll(mt, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, rec, err := VerifyAllStream(dir, ReadOptions{WindowBytes: goldenWindow}, opts)
		if err != nil {
			t.Fatal(err)
		}
		if rec != nil {
			t.Errorf("%s: non-nil Recovery without Tolerate", name)
		}
		if len(want) != len(got) {
			t.Fatalf("%s: %d vs %d reports", name, len(want), len(got))
		}
		for i := range want {
			if got[i].Ranks != tr.NumRanks() || got[i].Records != tr.NumRecords() {
				t.Errorf("%s: streamed report says %d ranks / %d records, trace has %d / %d",
					name, got[i].Ranks, got[i].Records, tr.NumRanks(), tr.NumRecords())
			}
			if w, g := fingerprint(want[i]), fingerprint(got[i]); !bytes.Equal(w, g) {
				t.Errorf("%s model=%s: public streamed report differs\nmaterialized: %s\nstreamed:     %s",
					name, want[i].Model, w, g)
			}
		}
		one, rec, err := VerifyStream(dir, POSIX, ReadOptions{Tolerate: true, WindowBytes: goldenWindow}, opts)
		if err != nil {
			t.Fatal(err)
		}
		if rec == nil || !rec.Clean() {
			t.Errorf("%s: tolerate on an intact trace should return a clean non-nil Recovery, got %+v", name, rec)
		}
		if w, g := fingerprint(want[0]), fingerprint(one); !bytes.Equal(w, g) {
			t.Errorf("%s: VerifyStream(POSIX) differs from VerifyAll's POSIX report", name)
		}
	}
}

// TestStreamPeakIndependentOfTraceSize is the directory source's memory
// contract on the path `verifyio -window` runs: the window is divided among
// the rank readers, so the decoded records resident at once stay within it —
// within one record, since a batch closes at the first record that reaches
// its share — at any worker count, for a trace of 2 000 ops per rank as for
// one 25× that size.
func TestStreamPeakIndependentOfTraceSize(t *testing.T) {
	const (
		ranks  = 8
		window = int64(256 << 10)
		slack  = int64(1 << 10)
	)
	for _, ops := range []int{2000, 50000} {
		dir := filepath.Join(t.TempDir(), "trace")
		if err := corpus.WriteScalingDir(dir, ranks, ops, 1<<18, 7, trace.DefaultEncodeOptions()); err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			reps, _, err := VerifyAllStream(dir, ReadOptions{WindowBytes: window}, &Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			read := reps[0].Ledger.Read
			if got, want := read.Out, int64(ranks*corpus.ScalingRankRecords(ops)); got != want {
				t.Fatalf("ops=%d, Workers=%d: decoded %d records, staged %d", ops, workers, got, want)
			}
			if peak := read.Bytes; peak <= 0 || peak > window+slack {
				t.Errorf("ops=%d, Workers=%d: %d decoded bytes resident at peak, want in (0, %d]", ops, workers, peak, window+slack)
			}
		}
	}
}

// TestVerifyAllStreamReadsTraceOnce: a run of a racy trace off its directory
// decodes the directory in the analysis pass and never again — race details
// come from the detector's signature table, not from a second read.
func TestVerifyAllStreamReadsTraceOnce(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "trace")
	if err := trace.WriteDir(dir, corpusTraceT(t, "pmulti_dset"), trace.DefaultEncodeOptions()); err != nil {
		t.Fatal(err)
	}
	tel := NewTelemetry()
	reps, _, err := VerifyAllStream(dir, ReadOptions{}, &Options{Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	racy := 0
	for _, rep := range reps {
		if rep.RaceCount == 0 {
			continue
		}
		racy++
		if len(rep.Races) == 0 || len(rep.Races[0].ChainX) < 2 {
			t.Fatalf("%s: %d races but no detail with a full call chain", rep.Model, rep.RaceCount)
		}
	}
	if racy == 0 {
		t.Fatal("trace raced under no model; the test needs race details to be asked for")
	}
	reads := 0
	for _, e := range tel.tracer.Events() {
		if e.Ph == "X" && e.Name == "read-trace" {
			reads++
		}
	}
	if reads != 1 {
		t.Errorf("streamed verification recorded %d read-trace spans, want exactly 1", reads)
	}
}

// TestVerifyAllStreamIgnoresStrayFiles is the public face of
// trace.TestStrayFilesNeverReplaceARank: leftovers next to the rank files
// change nothing about a streamed verification.
func TestVerifyAllStreamIgnoresStrayFiles(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "trace")
	if err := trace.WriteDir(dir, corpusTraceT(t, "flexible"), trace.DefaultEncodeOptions()); err != nil {
		t.Fatal(err)
	}
	render := func() []byte {
		t.Helper()
		reps, _, err := VerifyAllStream(dir, ReadOptions{}, &Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		for _, rep := range reps {
			rep.inner.Ledger = verify.Ledger{}
			rep.Render(&buf)
		}
		return buf.Bytes()
	}
	want := render()
	data, err := os.ReadFile(filepath.Join(dir, "rank-0.viot"))
	if err != nil {
		t.Fatal(err)
	}
	for _, stray := range []string{"rank-0.viot.bak", "rank-01.viot"} {
		if err := os.WriteFile(filepath.Join(dir, stray), data[:len(data)/2], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if got := render(); !bytes.Equal(got, want) {
		t.Errorf("reports changed once stray files sat in the directory:\n%s\nwant:\n%s", got, want)
	}
}

// destroyHeader overwrites the rank file's magic, the damage a file zeroed by
// a crashed writer shows.
func destroyHeader(t *testing.T, dir string, rank int) {
	t.Helper()
	path := filepath.Join(dir, "rank-"+strconv.Itoa(rank)+".viot")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	copy(data, "\x00\x00\x00\x00")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestDamagedHeaderReportedAsBefore: a directory is opened from its file
// names and one rank file's metadata, every other file only when its rank is
// read — and a destroyed header is still reported with the texts the
// open-time scan of every file gave it, from memory and off the directory.
func TestDamagedHeaderReportedAsBefore(t *testing.T) {
	stage := func() string {
		dir := filepath.Join(t.TempDir(), "trace")
		if err := trace.WriteDir(dir, corpusTraceT(t, "flexible"), trace.DefaultEncodeOptions()); err != nil {
			t.Fatal(err)
		}
		return dir
	}

	dir := stage()
	destroyHeader(t, dir, 2)
	const strict = "trace: rank-2.viot: trace: header at payload offset 0: corrupt: bad magic, not a VerifyIO trace"
	if _, err := ReadTraceDir(dir); err == nil || err.Error() != strict {
		t.Errorf("ReadTraceDir: error %v, want %q", err, strict)
	}
	for _, workers := range []int{1, 4} {
		_, _, err := VerifyAllStream(dir, ReadOptions{}, &Options{Workers: workers})
		if want := "verify: read trace: " + strict; err == nil || err.Error() != want {
			t.Errorf("VerifyAllStream, Workers=%d: error %v, want %q", workers, err, want)
		}
	}

	// Rank 0's header gone and the last rank's file missing: the rank count
	// still comes from the metadata (rank 1's), not from the highest name.
	dir = stage()
	destroyHeader(t, dir, 0)
	if err := os.Remove(filepath.Join(dir, "rank-3.viot")); err != nil {
		t.Fatal(err)
	}
	want := []RankRecovery{
		{Rank: 0, Salvaged: 0, Dropped: -1, Reason: "trace: header at payload offset 0: corrupt: bad magic, not a VerifyIO trace"},
		{Rank: 3, Salvaged: 0, Dropped: -1, Reason: "trace: directory: rank 3 at payload offset 0: truncated: missing rank file"},
	}
	tr, rec, err := ReadTraceDirOpts(dir, ReadOptions{Tolerate: true})
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumRanks() != 4 || !reflect.DeepEqual(rec.Ranks, want) {
		t.Errorf("ReadTraceDirOpts: %d ranks, recovery %+v; want 4 ranks, %+v", tr.NumRanks(), rec.Ranks, want)
	}
	for _, workers := range []int{1, 4} {
		_, rec, err := VerifyAllStream(dir, ReadOptions{Tolerate: true}, &Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rec.Ranks, want) {
			t.Errorf("VerifyAllStream, Workers=%d: recovery %+v, want %+v", workers, rec.Ranks, want)
		}
	}
}

// TestStageLedgerSumsToWall: at Workers = 1 nothing overlaps, so the ledger's
// analysis rows plus each model's verify row must account for the caller's
// stopwatch around a whole run — at most all of it, and all but 5 % (the
// report wrapping, the directory's open, the gaps between stages) — from
// memory and off the directory. The trace is large enough (49 520 records)
// that those fixed costs stay under 5 %.
func TestStageLedgerSumsToWall(t *testing.T) {
	tr := &Trace{t: corpus.ScalingTrace(8, 6000, 256<<10, 1)}
	dir := filepath.Join(t.TempDir(), "trace")
	if err := tr.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	opts := &Options{Workers: 1}
	for _, run := range []struct {
		name   string
		verify func() ([]*Report, error)
	}{
		{"memory", func() ([]*Report, error) { return VerifyAll(tr, opts) }},
		{"directory", func() ([]*Report, error) {
			reps, _, err := VerifyAllStream(dir, ReadOptions{}, opts)
			return reps, err
		}},
	} {
		start := time.Now()
		reps, err := run.verify()
		wall := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		l := reps[0].Ledger
		sum := l.Total() - l.Verify.Time
		for _, rep := range reps {
			sum += rep.Ledger.Verify.Time
		}
		ratio := float64(sum) / float64(wall)
		if ratio < 0.95 || ratio > 1 {
			t.Errorf("%s: stage rows sum to %v of a %v run (%.3f), want 0.95–1", run.name, sum, wall, ratio)
		}
		t.Logf("%s: stage rows sum to %v of a %v run (%.3f)", run.name, sum, wall, ratio)
	}
}
