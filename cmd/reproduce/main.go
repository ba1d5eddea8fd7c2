// Command reproduce regenerates every table and figure of the paper's
// evaluation (§V) from the simulated corpus:
//
//	table1 — consistency-model specifications (S and MSC)
//	table2 — tracer API coverage (Recorder vs Recorder⁺)
//	fig4   — data races per test execution × consistency model (91 rows)
//	table3 — test executions that are not properly synchronized
//	table4 — workflow execution-time breakdown of the three slowest tests
//	fig3   — pruning ablation (properly-synchronized checks saved)
//
// Absolute numbers differ from the paper (the substrate is a simulator, not
// Lassen, and workloads are scaled down — see EXPERIMENTS.md); the shape of
// every result is preserved.
//
// Usage:
//
//	reproduce [-out DIR] [-only table1,fig4,...] [-workers N] [-trace-out FILE]
//	          [-cpuprofile FILE] [-memprofile FILE]
//
// The stored-trace pass (table4) writes each trace to a directory and
// analyzes it while decoding it in the default 4 MiB window; its stage rows
// are the analysis' ledger (the decode is the "Read trace" row) with the
// four models' verify rows summed.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"verifyio/internal/corpus"
	"verifyio/internal/obs"
	"verifyio/internal/recorder"
	"verifyio/internal/semantics"
	"verifyio/internal/trace"
	"verifyio/internal/verify"
)

func main() {
	os.Exit(run())
}

type artifact struct {
	name string
	fn   func(w io.Writer) error
}

func run() int {
	var (
		out     = flag.String("out", "results", "output directory for the artifacts")
		only    = flag.String("only", "", "comma-separated subset (table1,table2,table3,table4,fig3,fig4)")
		workers = flag.Int("workers", 0, "analysis+verification worker goroutines for steps 2–4 (0 = GOMAXPROCS, 1 = serial); conflict detection shards across files and within single shared files")

		traceOut = flag.String("trace-out", "", "write telemetry spans as Chrome trace_event JSON to this file")
		prof     obs.Profiling
	)
	prof.RegisterFlags(flag.CommandLine)
	flag.Parse()
	stopProf, err := prof.Start()
	if err != nil {
		fmt.Fprintf(os.Stderr, "reproduce: %v\n", err)
		return 2
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(os.Stderr, "reproduce: %v\n", err)
		}
	}()
	var oc obs.Ctx
	if *traceOut != "" {
		oc = obs.Ctx{T: obs.NewTracer()}
	}
	defer func() {
		if err := obs.WriteFileWith(*traceOut, oc.T.WriteChromeTrace); err != nil {
			fmt.Fprintf(os.Stderr, "reproduce: write -trace-out: %v\n", err)
		}
	}()
	want := map[string]bool{}
	if *only != "" {
		for _, n := range strings.Split(*only, ",") {
			want[strings.TrimSpace(n)] = true
		}
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "reproduce: %v\n", err)
		return 2
	}
	for _, a := range artifacts(verify.Options{Workers: *workers, Obs: oc}) {
		if len(want) > 0 && !want[a.name] {
			continue
		}
		path := filepath.Join(*out, a.name+".txt")
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "reproduce: %v\n", err)
			return 2
		}
		if err := a.write(io.MultiWriter(os.Stdout, f)); err != nil {
			fmt.Fprintf(os.Stderr, "reproduce: %s: %v\n", a.name, err)
			f.Close()
			return 2
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "reproduce: %v\n", err)
			return 2
		}
	}
	return 0
}

// artifacts returns every artifact in output order; fig4 is computed once and
// shared with table3.
func artifacts(vopts verify.Options) []artifact {
	var rows []*corpus.Row
	rowsOnce := func() ([]*corpus.Row, error) {
		if rows != nil {
			return rows, nil
		}
		for _, tc := range corpus.Tests() {
			row, err := corpus.VerifyOpts(tc, verify.AlgoVectorClock, vopts)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
		return rows, nil
	}
	return []artifact{
		{"table1", table1},
		{"table2", table2},
		{"fig4", func(w io.Writer) error { return fig4(w, rowsOnce) }},
		{"table3", func(w io.Writer) error { return table3(w, rowsOnce) }},
		{"table4", func(w io.Writer) error { return table4(w, vopts) }},
		{"fig3", func(w io.Writer) error { return fig3(w, vopts) }},
	}
}

// write renders the artifact as its results file holds it: a header line,
// the body and a blank line.
func (a artifact) write(w io.Writer) error {
	fmt.Fprintf(w, "==== %s ====\n", a.name)
	if err := a.fn(w); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w)
	return err
}

// table1 prints the synchronization-operation set S and the MSC per model.
func table1(w io.Writer) error {
	fmt.Fprintf(w, "%-10s %-45s %s\n", "Model", "S", "MSC")
	for _, m := range semantics.All() {
		s := "{}"
		if len(m.SyncSet) > 0 {
			s = "{" + strings.Join(m.SyncSet, ", ") + "}"
		}
		fmt.Fprintf(w, "%-10s %-45s %s\n", m.Name, s, m.MSC.String())
	}
	return nil
}

// table2 prints the tracer coverage comparison.
func table2(w io.Writer) error {
	reg := recorder.DefaultRegistry()
	libs := []string{"hdf5", "netcdf", "pnetcdf"}
	fmt.Fprintf(w, "%-12s %8s %8s %8s\n", "Tracer", "HDF5", "NetCDF", "PnetCDF")
	for _, cov := range []recorder.Coverage{recorder.CoverageLegacy, recorder.CoveragePlus} {
		fmt.Fprintf(w, "%-12s", cov.String())
		for _, lib := range libs {
			n := reg.Count(cov, lib)
			if n == 0 {
				fmt.Fprintf(w, "%8s", "-")
			} else {
				fmt.Fprintf(w, "%8d", n)
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "(recorder+ fully covers each simulated library's API surface;\n")
	fmt.Fprintf(w, " the legacy recorder supports a fixed 84-function HDF5 subset only)\n")
	return nil
}

// fig4 prints races per test × model; green = 0 races, gray = unmatched.
func fig4(w io.Writer, rowsOnce func() ([]*corpus.Row, error)) error {
	rows, err := rowsOnce()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-24s %-8s %10s %10s %10s %10s %10s\n",
		"test", "library", "conflicts", "POSIX", "Commit", "Session", "MPI-IO")
	lib := ""
	for _, row := range rows {
		if row.Test.Library != lib {
			lib = row.Test.Library
			fmt.Fprintf(w, "-- %s --\n", lib)
		}
		if row.Unmatched {
			fmt.Fprintf(w, "%-24s %-8s %10s %10s %10s %10s %10s\n",
				row.Test.Name, lib, "-", "unmatched", "unmatched", "unmatched", "unmatched")
			continue
		}
		fmt.Fprintf(w, "%-24s %-8s %10d %10d %10d %10d %10d\n",
			row.Test.Name, lib, row.Conflicts,
			row.Races[0], row.Races[1], row.Races[2], row.Races[3])
	}
	return nil
}

// table3 prints the not-properly-synchronized summary.
func table3(w io.Writer, rowsOnce func() ([]*corpus.Row, error)) error {
	rows, err := rowsOnce()
	if err != nil {
		return err
	}
	s := corpus.Summarize(rows)
	libs := corpus.Libraries()
	fmt.Fprintf(w, "%-10s", "Semantics")
	for _, lib := range libs {
		fmt.Fprintf(w, " %9s", fmt.Sprintf("%s (%d)", lib, s.TestsPerLibrary[lib]))
	}
	fmt.Fprintf(w, " %10s\n", "Total (91)")
	for m, model := range semantics.All() {
		fmt.Fprintf(w, "%-10s", model.Name)
		for _, lib := range libs {
			fmt.Fprintf(w, " %9d", s.NotSynced[m][lib])
		}
		fmt.Fprintf(w, " %10d\n", corpus.Totals(s.NotSynced[m]))
	}
	fmt.Fprintf(w, "unmatched MPI calls (gray rows): %d\n", corpus.Totals(s.Unmatched))
	return nil
}

// table4 prints the stage-time breakdown of the three slowest tests.
func table4(w io.Writer, vopts verify.Options) error {
	names := []string{"nc4perf", "cache", "pmulti_dset"}
	type breakdown struct {
		name       string
		ledger     verify.Ledger
		wall       time.Duration
		nodes      int
		edges      int
		skelNodes  int
		skelLevels int
		pairs      int64
	}
	var rows []breakdown
	for _, name := range names {
		tc, err := corpus.ByName(name)
		if err != nil {
			return err
		}
		tr, err := corpus.Run(tc)
		if err != nil {
			return err
		}
		// The paper's first stage is reading the stored trace: round-trip
		// through the on-disk format, and analyze off the directory.
		dir, err := os.MkdirTemp("", "verifyio-table4-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		if err := trace.WriteDir(dir, tr, trace.DefaultEncodeOptions()); err != nil {
			return err
		}
		start := time.Now()
		a, err := verify.AnalyzeStream(dir, verify.AlgoVectorClock, verify.StreamAnalyzeOptions{
			AnalyzeOptions: verify.AnalyzeOptions{Workers: vopts.Workers, Obs: vopts.Obs},
		})
		wall := time.Since(start)
		if err != nil {
			return err
		}
		// Verification time = sum over the four models (the paper
		// verifies each model; we report the aggregate pass).
		l := a.Ledger
		for _, m := range semantics.All() {
			o := vopts
			o.Model = m
			rep, err := a.Verify(o)
			if err != nil {
				return err
			}
			l.Verify.Time += rep.Ledger.Verify.Time
		}
		rows = append(rows, breakdown{
			name: name, ledger: l, wall: wall,
			nodes: a.Graph.Nodes(), edges: a.Graph.SyncEdges(),
			skelNodes: a.Graph.SkeletonNodes(), skelLevels: a.Graph.SkeletonLevels(),
			pairs: a.Conflicts.Pairs,
		})
	}
	fmt.Fprintf(w, "%-32s", "Stage")
	for _, r := range rows {
		fmt.Fprintf(w, " %16s", r.name)
	}
	fmt.Fprintln(w)
	stage := func(label string, pick func(breakdown) time.Duration) {
		fmt.Fprintf(w, "%-32s", label)
		for _, r := range rows {
			fmt.Fprintf(w, " %16s", pick(r).Round(time.Microsecond))
		}
		fmt.Fprintln(w)
	}
	// Table IV's row names, in the ledger's stage order.
	labels := [len(verify.Stages)]string{"Read trace", "Detect conflicts", "Match MPI calls",
		"Build the happens-before graph", "Generate vector clock", "Verification (4 models)"}
	for i, label := range labels {
		stage(label, func(r breakdown) time.Duration { return r.ledger.Rows()[i].Time })
	}
	stage("Total", func(r breakdown) time.Duration { return r.ledger.Total() })
	stage("Analysis wall clock", func(r breakdown) time.Duration { return r.wall })
	fmt.Fprintf(w, "%-32s", "graph nodes / sync edges")
	for _, r := range rows {
		fmt.Fprintf(w, " %16s", fmt.Sprintf("%d/%d", r.nodes, r.edges))
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-32s", "skeleton nodes / levels")
	for _, r := range rows {
		fmt.Fprintf(w, " %16s", fmt.Sprintf("%d/%d", r.skelNodes, r.skelLevels))
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-32s", "conflict pairs")
	for _, r := range rows {
		fmt.Fprintf(w, " %16d", r.pairs)
	}
	fmt.Fprintln(w)
	return nil
}

// fig3 prints the pruning ablation: properly-synchronized checks performed
// with and without the four pruning rules, per racy test.
func fig3(w io.Writer, vopts verify.Options) error {
	names := []string{"shapesame", "pmulti_dset", "nc4perf", "interleaved"}
	fmt.Fprintf(w, "%-16s %12s %14s %14s %8s\n", "test", "conflicts", "checks(prune)", "checks(full)", "saving")
	for _, name := range names {
		tc, err := corpus.ByName(name)
		if err != nil {
			return err
		}
		tr, err := corpus.Run(tc)
		if err != nil {
			return err
		}
		a, err := verify.Analyze(tr, verify.AlgoVectorClock,
			verify.AnalyzeOptions{Workers: vopts.Workers, Obs: vopts.Obs})
		if err != nil {
			return err
		}
		o := vopts
		o.Model = semantics.MPIIOModel()
		pruned, err := a.Verify(o)
		if err != nil {
			return err
		}
		o.DisablePruning = true
		full, err := a.Verify(o)
		if err != nil {
			return err
		}
		if pruned.RaceCount != full.RaceCount {
			return fmt.Errorf("%s: pruning changed the result (%d vs %d races)",
				name, pruned.RaceCount, full.RaceCount)
		}
		saving := 1 - float64(pruned.ChecksPerformed)/float64(full.ChecksPerformed)
		fmt.Fprintf(w, "%-16s %12d %14d %14d %7.1f%%\n",
			name, pruned.ConflictPairs, pruned.ChecksPerformed, full.ChecksPerformed, 100*saving)
	}
	return nil
}
