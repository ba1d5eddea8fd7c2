package faultinject

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"verifyio"
	"verifyio/internal/corpus"
	"verifyio/internal/trace"
	"verifyio/internal/verify"
)

// Faults past one rank: the analysis reads several rank files at once, so
// what it returns on damage must not depend on which reader got there first.

// stageCorpus writes a corpus test's trace as an uncompressed directory, so
// a rank file can be cut on a record boundary.
func stageCorpus(t *testing.T, name string) (string, *trace.Trace) {
	t.Helper()
	tc, err := corpus.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := corpus.Run(tc)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), name)
	if err := trace.WriteDir(dir, tr, trace.EncodeOptions{Compress: false}); err != nil {
		t.Fatal(err)
	}
	return dir, tr
}

// cutRank truncates the rank's file right after its first keep records.
func cutRank(t *testing.T, dir string, rank, keep int) {
	t.Helper()
	path := filepath.Join(dir, fmt.Sprintf("rank-%d.viot", rank))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	spans, err := trace.Layout(data)
	if err != nil {
		t.Fatal(err)
	}
	cut, ok := trace.SpanByName(spans, "record", 0, keep-1)
	if !ok {
		t.Fatalf("rank %d has no record %d", rank, keep-1)
	}
	if err := os.WriteFile(path, data[:cut.End], 0o644); err != nil {
		t.Fatal(err)
	}
}

// noGoroutineLeft runs f and fails if a goroutine it started outlives it.
func noGoroutineLeft(t *testing.T, f func()) {
	t.Helper()
	before := runtime.NumGoroutine()
	f()
	for wait := time.Millisecond; runtime.NumGoroutine() > before; wait *= 2 {
		if wait > time.Second {
			t.Fatalf("%d goroutines before the call, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(wait)
	}
}

// TestTwoDamagedRanksStrictNamesTheLower: rank 1's file breaks at its last
// record, rank 2's at its second — a reader of rank 2 fails long before a
// reader of rank 1 does. Strict mode still returns rank 1's error, the one a
// rank-by-rank read meets first, with the same text at every worker count.
func TestTwoDamagedRanksStrictNamesTheLower(t *testing.T) {
	dir, tr := stageCorpus(t, "flexible")
	cutRank(t, dir, 1, len(tr.Ranks[1])-1)
	cutRank(t, dir, 2, 1)
	var want string
	for _, workers := range []int{1, 4, 4, 4, 4} {
		noGoroutineLeft(t, func() {
			_, _, err := verifyio.VerifyAllStream(dir, verifyio.ReadOptions{}, &verifyio.Options{Workers: workers})
			if err == nil {
				t.Fatal("strict run accepted two truncated rank files")
			}
			if de, ok := trace.AsDecodeError(err); !ok || de.Kind != trace.Truncated || de.Rank != 1 {
				t.Fatalf("Workers=%d: error %q, want a truncation classified on rank 1", workers, err)
			}
			if want == "" {
				want = err.Error()
			} else if err.Error() != want {
				t.Fatalf("Workers=%d: error %q, at Workers=1 %q", workers, err, want)
			}
		})
	}
}

// TestRankFileGoneBetweenScanAndOpen: the directory is scanned, then a rank
// file disappears before its reader opens it. Strict mode fails with a
// classified error naming the rank; tolerate mode analyses the other ranks
// and reports the rank as lost, its record count unknown.
func TestRankFileGoneBetweenScanAndOpen(t *testing.T) {
	for _, workers := range []int{1, 4} {
		for _, tolerate := range []bool{false, true} {
			dir, tr := stageCorpus(t, "flexible")
			d, err := trace.OpenDir(dir, trace.StreamOptions{DecodeOptions: trace.DecodeOptions{Tolerate: tolerate}}, workers)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Remove(filepath.Join(dir, "rank-2.viot")); err != nil {
				t.Fatal(err)
			}
			noGoroutineLeft(t, func() {
				a, err := verify.Analyze(d, verify.AlgoVectorClock, verify.AnalyzeOptions{Workers: workers})
				d.Close()
				if !tolerate {
					de, ok := trace.AsDecodeError(err)
					if !ok || de.Section != "directory" || de.Rank != 2 {
						t.Fatalf("Workers=%d strict: error %v, want a directory error classified on rank 2", workers, err)
					}
					return
				}
				if err != nil {
					t.Fatalf("Workers=%d tolerate: %v", workers, err)
				}
				if want := tr.NumRecords() - len(tr.Ranks[2]); a.NumRanks() != 4 || a.NumRecords() != want {
					t.Errorf("Workers=%d tolerate: analysed %d ranks, %d records; want 4 and %d",
						workers, a.NumRanks(), a.NumRecords(), want)
				}
				lost := d.Stats().Ranks
				if len(lost) != 1 || lost[0].Rank != 2 || lost[0].Salvaged != 0 || lost[0].Dropped != -1 {
					t.Errorf("Workers=%d tolerate: recovery %+v, want rank 2 lost with its count unknown", workers, lost)
				}
			})
		}
	}
}

// TestTolerateEqualsTheSerialReader pins tolerate mode on TestCLITolerate's
// input (scalar, rank 1 cut at half its records) to what the rank-by-rank
// reader of the commit before the per-rank readers produced: the Recovery,
// reason text included, and the rendered reports, at both worker counts and
// from both sources.
func TestTolerateEqualsTheSerialReader(t *testing.T) {
	dir, tr := stageCorpus(t, "scalar")
	keep := len(tr.Ranks[1]) / 2
	cutRank(t, dir, 1, keep)
	const (
		wantReason  = "trace: records: rank 1 record 26 at payload offset 1138: truncated: varint: EOF"
		wantReports = "12435e78247c08fbe6c4a0e399d8c2ea249eeda6906ba3adda0320b365659115"
	)
	check := func(how string, reps []*verifyio.Report, rec *verifyio.Recovery) {
		t.Helper()
		if len(rec.Ranks) != 1 {
			t.Fatalf("%s: recovery %+v, want one damaged rank", how, rec)
		}
		if got, want := rec.Ranks[0], (verifyio.RankRecovery{Rank: 1, Salvaged: keep, Dropped: len(tr.Ranks[1]) - keep, Reason: wantReason}); got != want {
			t.Errorf("%s: recovery %+v, want %+v", how, got, want)
		}
		var buf bytes.Buffer
		for _, rep := range reps {
			rep.Render(&buf)
		}
		h := sha256.New()
		for _, line := range strings.SplitAfter(buf.String(), "\n") {
			if !strings.HasPrefix(line, "workers:") && !strings.HasPrefix(line, "timing:") {
				h.Write([]byte(line))
			}
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != wantReports {
			t.Errorf("%s: reports digest %s, want %s\n%s", how, got, wantReports, buf.String())
		}
	}
	for _, workers := range []int{1, 4} {
		opts := &verifyio.Options{Workers: workers}
		noGoroutineLeft(t, func() {
			reps, rec, err := verifyio.VerifyAllStream(dir, verifyio.ReadOptions{Tolerate: true}, opts)
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("directory, Workers=%d", workers), reps, rec)
		})
		loaded, rec, err := verifyio.ReadTraceDirOpts(dir, verifyio.ReadOptions{Tolerate: true})
		if err != nil {
			t.Fatal(err)
		}
		reps, err := verifyio.VerifyAll(loaded, opts)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("memory, Workers=%d", workers), reps, rec)
	}
}
