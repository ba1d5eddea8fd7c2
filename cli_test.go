package verifyio

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"verifyio/internal/obs"
	itrace "verifyio/internal/trace"
)

// buildCLIs compiles the command binaries once per test binary run.
func buildCLIs(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("CLI integration skipped in -short mode")
	}
	bin := t.TempDir()
	for _, cmd := range []string{"verifyio", "verifyio-trace", "wrappergen", "reproduce"} {
		out, err := exec.Command("go", "build", "-o", filepath.Join(bin, cmd), "./cmd/"+cmd).CombinedOutput()
		if err != nil {
			t.Fatalf("building %s: %v\n%s", cmd, err, out)
		}
	}
	return bin
}

// runCLI runs one of the built commands and returns its stdout followed by
// its stderr.
func runCLI(t *testing.T, bin string, wantExit int, args ...string) string {
	t.Helper()
	stdout, stderr := runCLISplit(t, bin, wantExit, args...)
	return stdout + stderr
}

// runCLISplit is runCLI keeping the two streams apart.
func runCLISplit(t *testing.T, bin string, wantExit int, args ...string) (string, string) {
	t.Helper()
	cmd := exec.Command(filepath.Join(bin, args[0]), args[1:]...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	exit := 0
	if ee, ok := err.(*exec.ExitError); ok {
		exit = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("%v: %v\n%s%s", args, err, &stdout, &stderr)
	}
	if exit != wantExit {
		t.Fatalf("%v: exit %d, want %d\n%s%s", args, exit, wantExit, &stdout, &stderr)
	}
	return stdout.String(), stderr.String()
}

// TestCLIWorkflow drives the whole command-line workflow end to end:
// trace → dump → verify (clean and racy and unmatched) → diagnose → json,
// then the wrapper generator and the reproduction.
func TestCLIWorkflow(t *testing.T) {
	bin := buildCLIs(t)
	traces := t.TempDir()

	// List includes the named tests.
	out := runCLI(t, bin, 0, "verifyio-trace", "-list")
	if !strings.Contains(out, "flexible") || !strings.Contains(out, "parallel5") {
		t.Fatalf("-list output missing tests:\n%s", out)
	}

	// Trace three representative executions.
	for _, name := range []string{"flexible", "scalar", "collective_error"} {
		dir := filepath.Join(traces, name)
		out := runCLI(t, bin, 0, "verifyio-trace", "-test", name, "-out", dir)
		if !strings.Contains(out, name) {
			t.Fatalf("trace output missing test name:\n%s", out)
		}
	}

	// Dump shows the nested call structure.
	out = runCLI(t, bin, 0, "verifyio", "-trace", filepath.Join(traces, "flexible"), "-dump")
	for _, want := range []string{"ncmpi_create", "MPI_File_open", "open(flexible.nc"} {
		if !strings.Contains(out, want) {
			t.Fatalf("-dump missing %q:\n%s", want, out)
		}
	}

	// Clean test: exit 0, properly synchronized everywhere.
	out = runCLI(t, bin, 0, "verifyio", "-trace", filepath.Join(traces, "scalar"), "-model", "all")
	if strings.Count(out, "properly synchronized") != 4 {
		t.Fatalf("scalar verdicts wrong:\n%s", out)
	}

	// Racy test: exit 1, POSIX clean, MPI-IO racy; diagnose names pnetcdf.
	out = runCLI(t, bin, 1, "verifyio", "-trace", filepath.Join(traces, "flexible"), "-model", "all", "-diagnose")
	if !strings.Contains(out, "POSIX    properly synchronized") ||
		!strings.Contains(out, "data races") ||
		!strings.Contains(out, "responsible: pnetcdf") {
		t.Fatalf("flexible verdicts wrong:\n%s", out)
	}

	// Unmatched test: exit 2.
	out = runCLI(t, bin, 2, "verifyio", "-trace", filepath.Join(traces, "collective_error"), "-model", "posix")
	if !strings.Contains(out, "unmatched") {
		t.Fatalf("collective_error output wrong:\n%s", out)
	}

	// JSON output: stdout is one document, nothing else, and carries the
	// verdicts.
	out, _ = runCLISplit(t, bin, 1, "verifyio", "-trace", filepath.Join(traces, "flexible"), "-model", "all", "-json")
	var reports []map[string]any
	if err := json.Unmarshal([]byte(out), &reports); err != nil {
		t.Fatalf("-json stdout does not parse: %v\n%s", err, out)
	}
	if len(reports) != 4 || reports[0]["Model"] != "posix" {
		t.Fatalf("json reports = %v", reports)
	}

	// wrappergen counts the PnetCDF surface.
	out = runCLI(t, bin, 0, "wrappergen", "-sig", "internal/recorder/sigs/pnetcdf.sig", "-count")
	if !strings.Contains(out, "pnetcdf:") {
		t.Fatalf("wrappergen -count output:\n%s", out)
	}

	// wrappergen generates a compilable registration file.
	gen := filepath.Join(t.TempDir(), "gen.go")
	runCLI(t, bin, 0, "wrappergen", "-sig", "internal/recorder/sigs/netcdf.sig", "-out", gen, "-package", "wrappers")
	data, err := os.ReadFile(gen)
	if err != nil || !strings.Contains(string(data), "NetcdfFunctions") {
		t.Fatalf("generated file: %v", err)
	}

	// reproduce regenerates the quick artifacts.
	results := t.TempDir()
	out = runCLI(t, bin, 0, "reproduce", "-out", results, "-only", "table1,table2")
	if !strings.Contains(out, "Session") || !strings.Contains(out, "recorder+") {
		t.Fatalf("reproduce output:\n%s", out)
	}
	if _, err := os.Stat(filepath.Join(results, "table1.txt")); err != nil {
		t.Fatalf("artifact missing: %v", err)
	}
}

// TestNoHTTPStackLinked: neither the library nor the two commands built on
// it link an HTTP server, expvar or TLS — nothing in a batch verifier
// serves anything.
func TestNoHTTPStackLinked(t *testing.T) {
	if testing.Short() {
		t.Skip("go list skipped in -short mode")
	}
	out, err := exec.Command("go", "list", "-deps", ".", "./cmd/verifyio", "./cmd/reproduce").CombinedOutput()
	if err != nil {
		t.Fatalf("go list -deps: %v\n%s", err, out)
	}
	deps := strings.Fields(string(out))
	for _, banned := range []string{"net/http", "expvar", "crypto/tls"} {
		if slices.Contains(deps, banned) {
			t.Errorf("%s is linked into the library or its commands", banned)
		}
	}
}

// TestCLIDiagnoseRunsThePipelineOnce: -diagnose reads the reports it has,
// so a telemetry-instrumented "-model all -diagnose" run on a trace that
// races under three models analyses the directory exactly once and verifies
// each model once. The span file the binary wrote is schema-valid: spans
// nest and include each rank's replay and scan shards. The -json reports of
// the same trace carry the stage ledger, the read row with the window's
// high-water mark.
func TestCLIDiagnoseRunsThePipelineOnce(t *testing.T) {
	bin := buildCLIs(t)
	dir := filepath.Join(t.TempDir(), "flexible")
	runCLI(t, bin, 0, "verifyio-trace", "-test", "flexible", "-out", dir)
	spans := filepath.Join(t.TempDir(), "spans.json")
	out := runCLI(t, bin, 1, "verifyio", "-trace", dir, "-model", "all", "-diagnose", "-workers", "4",
		"-trace-out", spans)
	if strings.Count(out, "diagnosis #1 ") != 3 {
		t.Fatalf("want diagnoses under three models:\n%s", out)
	}
	data, err := os.ReadFile(spans)
	if err != nil {
		t.Fatal(err)
	}
	events, err := obs.ParseChromeTrace(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateEvents(events); err != nil {
		t.Errorf("-trace-out: %v", err)
	}
	count := map[string]int{}
	for _, e := range events {
		if e.Ph == "X" {
			count[e.Name]++
		}
	}
	if count["analyze"] != 1 || count["read-trace"] != 1 || count["verify"] != 4 {
		t.Errorf("spans: %d analyze, %d read-trace, %d verify; want 1, 1 and 4",
			count["analyze"], count["read-trace"], count["verify"])
	}
	for _, stage := range []string{"detect", "match", "build-graph"} {
		if count[stage] == 0 {
			t.Errorf("no %q span among %d events", stage, len(events))
		}
	}
	// flexible has 4 ranks: one rank-task span each.
	if count["rank"] != 4 {
		t.Errorf("rank-task spans: %d, want 4", count["rank"])
	}

	out, _ = runCLISplit(t, bin, 1, "verifyio", "-trace", dir, "-model", "all", "-json", "-workers", "4")
	var reports []struct {
		Records int
		Ledger  Ledger
	}
	if err := json.Unmarshal([]byte(out), &reports); err != nil {
		t.Fatalf("-json stdout does not parse: %v\n%s", err, out)
	}
	for _, rep := range reports {
		l := rep.Ledger
		if l.Read.Out != int64(rep.Records) || l.Read.Bytes <= 0 || l.Detect.Out <= 0 ||
			l.Graph.Out <= 0 || l.Verify.In != l.Detect.Out || l.Verify.Out <= 0 {
			t.Errorf("-json ledger: %+v for %d records", l, rep.Records)
		}
	}
}

// TestExamplesRun executes every example program and checks its headline
// output — the examples are living documentation of the paper's findings.
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("examples skipped in -short mode")
	}
	cases := []struct {
		dir   string
		wants []string
	}{
		{"quickstart", []string{
			"POSIX    properly synchronized",
			"Commit   properly synchronized",
			"Session  1 data races",
			"MPI-IO   1 data races",
		}},
		{"hdf5-race", []string{
			"improper", "4 data races", "proper", "sync-barrier-sync",
		}},
		{"pnetcdf-flexible", []string{
			"POSIX    properly synchronized",
			"ncmpi_enddef",
			"collective buffering OFF",
			"0 conflicts",
		}},
		{"corruption", []string{
			"STALE — silent corruption",
			`rank 1 read "IMPORTANT-RESULT"  (correct)`,
		}},
		{"diagnose", []string{
			"unordered-conflict", "missing-sync-construct",
			"library-internal-conflict", "responsible: pnetcdf",
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.dir, func(t *testing.T) {
			out, err := exec.Command("go", "run", "./examples/"+tc.dir).CombinedOutput()
			if err != nil {
				t.Fatalf("example failed: %v\n%s", err, out)
			}
			for _, want := range tc.wants {
				if !strings.Contains(string(out), want) {
					t.Errorf("output missing %q:\n%s", want, out)
				}
			}
		})
	}
}

// TestCLITolerate drives the -tolerate flag end to end: a trace directory
// with one rank file truncated mid-stream fails a strict run with a
// classified error, while a tolerant run salvages the prefix, reports the
// damage on stderr, and still verifies.
func TestCLITolerate(t *testing.T) {
	bin := buildCLIs(t)

	tr, err := RunCorpusTest("scalar")
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "damaged")
	// Uncompressed so the truncation point can be placed on a record
	// boundary via the layout map.
	if err := itrace.WriteDir(dir, tr.t, itrace.EncodeOptions{Compress: false}); err != nil {
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
	keep := len(tr.t.Ranks[1]) / 2
	cut, ok := itrace.SpanByName(spans, "record", 0, keep-1)
	if !ok {
		t.Fatalf("no span for record %d", keep-1)
	}
	if err := os.WriteFile(path, data[:cut.End], 0o644); err != nil {
		t.Fatal(err)
	}

	// Strict: refused with a classified, located error.
	out := runCLI(t, bin, 2, "verifyio", "-trace", dir, "-model", "posix")
	if !strings.Contains(out, "truncated") || !strings.Contains(out, "rank 1") {
		t.Fatalf("strict error does not classify the damage:\n%s", out)
	}

	// Tolerant dump: succeeds on the salvaged prefix.
	out = runCLI(t, bin, 0, "verifyio", "-trace", dir, "-dump", "-tolerate")
	if !strings.Contains(out, "open") {
		t.Fatalf("tolerant -dump output:\n%s", out)
	}

	// Tolerant verify: reports per-rank salvage counts and proceeds to a
	// verdict (whatever the partial evidence supports — the point is it
	// runs and is explicit about coverage).
	cmd := exec.Command(filepath.Join(bin, "verifyio"), "-trace", dir, "-model", "posix", "-tolerate")
	var buf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &buf, &buf
	_ = cmd.Run() // exit code depends on what the salvaged prefix proves
	got := buf.String()
	wantSalvaged := fmt.Sprintf("rank 1 damaged: %d records salvaged, %d records dropped",
		keep, len(tr.t.Ranks[1])-keep)
	for _, want := range []string{wantSalvaged, "salvaged prefix", "trace:"} {
		if !strings.Contains(got, want) {
			t.Errorf("tolerant run output missing %q:\n%s", want, got)
		}
	}
}
