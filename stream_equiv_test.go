package verifyio

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"testing"

	"verifyio/internal/corpus"
	"verifyio/internal/dfg"
	"verifyio/internal/obs"
	"verifyio/internal/semantics"
	"verifyio/internal/trace"
	"verifyio/internal/verify"
)

// streamEquivWindow is deliberately tiny so every corpus trace splits into
// many batches — the equivalence below must hold regardless of where the
// window boundaries land.
const streamEquivWindow = int64(1 << 12)

func verifyAllReports(t *testing.T, a *verify.Analysis, workers int) []*verify.Report {
	t.Helper()
	reps, err := a.VerifyAll(semantics.All(), verify.Options{Workers: workers, ContinueOnUnmatched: true})
	if err != nil {
		t.Fatal(err)
	}
	return reps
}

// TestStreamEquivalenceCorpus is source equivalence: for every corpus test,
// encoding the trace and analyzing it off the directory, in batches of a tiny
// window, must produce byte-identical reports (races, counts, problems,
// ordering — everything but wall times) to analyzing the decoded trace in
// memory, across all four models, serial and parallel workers, and with
// tolerate on and off.
func TestStreamEquivalenceCorpus(t *testing.T) {
	workerCounts := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		workerCounts = append(workerCounts, n)
	}
	for _, name := range corpus.Names() {
		tr := corpusTraceT(t, name)
		dir := filepath.Join(t.TempDir(), "trace")
		if err := trace.WriteDir(dir, tr, trace.DefaultEncodeOptions()); err != nil {
			t.Fatal(err)
		}
		for _, tolerate := range []bool{false, true} {
			dopts := trace.DecodeOptions{Tolerate: tolerate}
			mt, _, err := trace.ReadDirWithOptions(dir, dopts)
			if err != nil {
				t.Fatalf("%s: read: %v", name, err)
			}
			for _, workers := range workerCounts {
				ma, err := verify.AnalyzeOpts(mt, verify.AlgoAuto, verify.AnalyzeOptions{Workers: workers})
				if err != nil {
					t.Fatalf("%s: analyze: %v", name, err)
				}
				sa, err := verify.AnalyzeStream(dir, verify.AlgoAuto, verify.StreamAnalyzeOptions{
					AnalyzeOptions: verify.AnalyzeOptions{Workers: workers},
					Decode:         dopts,
					WindowBytes:    streamEquivWindow,
				})
				if err != nil {
					t.Fatalf("%s: analyze stream: %v", name, err)
				}
				want := verifyAllReports(t, ma, workers)
				got := verifyAllReports(t, sa, workers)
				if len(want) != len(got) {
					t.Fatalf("%s: %d materialized reports, %d streamed", name, len(want), len(got))
				}
				for i := range want {
					w := reportFingerprint(t, want[i])
					g := reportFingerprint(t, got[i])
					if !bytes.Equal(w, g) {
						t.Errorf("%s model=%s workers=%d tolerate=%v: streamed report differs\nmaterialized: %s\nstreamed:     %s",
							name, want[i].Model, workers, tolerate, w, g)
					}
				}
			}
		}
	}
}

// TestVerifyAllStreamPublicAPI checks the public directory entry points
// against the in-memory ones, including the wrapped report fields the CLI
// prints (Ranks/Records) and single-model VerifyStream.
func TestVerifyAllStreamPublicAPI(t *testing.T) {
	fingerprint := func(rep *Report) []byte {
		cp := *rep
		cp.Timing = Timing{}
		cp.Workers = 0
		cp.Cache = nil
		cp.Metrics = nil
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
		got, rec, err := VerifyAllStream(dir, ReadOptions{WindowBytes: streamEquivWindow}, opts)
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
		one, rec, err := VerifyStream(dir, POSIX, ReadOptions{Tolerate: true, WindowBytes: streamEquivWindow}, opts)
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

// TestStreamPeakIndependentOfTraceSize is the streaming path's memory
// contract: with each batch fed to the DFG builder (O(nodes+edges) state per
// rank) and then released, peak resident decoded bytes are set by the window,
// not by the trace — a 25× larger directory reaches exactly the same peak,
// within one record of the window. The workload is symmetric across ranks,
// so no rank may score anomalous.
func TestStreamPeakIndependentOfTraceSize(t *testing.T) {
	const (
		ranks  = 8
		window = int64(256 << 10)
		slack  = int64(1 << 10) // a batch closes at the first record that reaches the window
	)
	var peaks []int64
	for _, ops := range []int{2000, 50000} {
		dir := filepath.Join(t.TempDir(), "trace")
		if err := corpus.WriteScalingDir(dir, ranks, ops, 1<<18, 7, trace.DefaultEncodeOptions()); err != nil {
			t.Fatal(err)
		}
		s, err := trace.OpenStream(dir, trace.StreamOptions{WindowBytes: window})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		db := dfg.NewBuilder(ranks, obs.Ctx{})
		decoded := 0
		for {
			b, err := s.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			decoded += len(b.Recs)
			db.Feed(b.Rank, b.Recs)
			b.Release()
		}
		if want := ranks * corpus.ScalingRankRecords(ops); decoded != want {
			t.Fatalf("ops=%d: decoded %d records, staged %d", ops, decoded, want)
		}
		if anom := db.Finish().AnomalousRanks; len(anom) != 0 {
			t.Errorf("ops=%d: anomalous ranks %v on a symmetric workload", ops, anom)
		}
		peaks = append(peaks, s.PeakResidentBytes())
	}
	if peaks[0] != peaks[1] || peaks[0] <= 0 || peaks[0] > window+slack {
		t.Errorf("peak resident bytes %v: want equal at both sizes and in (0, %d]", peaks, window+slack)
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
	reps, _, err := VerifyAllStream(dir, ReadOptions{Telemetry: tel}, &Options{Telemetry: tel})
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
			rep.inner.Timing = verify.Timing{}
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
	tr, rec, err := ReadTraceDirTolerant(dir)
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumRanks() != 4 || !reflect.DeepEqual(rec.Ranks, want) {
		t.Errorf("ReadTraceDirTolerant: %d ranks, recovery %+v; want 4 ranks, %+v", tr.NumRanks(), rec.Ranks, want)
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
