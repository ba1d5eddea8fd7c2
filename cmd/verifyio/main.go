// Command verifyio runs steps 2–4 of the VerifyIO workflow on a trace
// directory: conflict detection, MPI matching, and consistency-semantics
// verification against one or all models.
//
// Usage:
//
//	verifyio -trace DIR [-model posix|commit|session|mpi-io|all]
//	         [-workers N] [-no-pruning] [-max-races N] [-details] [-diagnose]
//	         [-tolerate] [-window BYTES] [-dump] [-json] [-trace-out FILE]
//	         [-cpuprofile FILE] [-memprofile FILE]
//
// The trace is verified while it is decoded, never loaded whole: up to
// -workers rank files are read at once, and conflict detection and MPI
// matching consume each record batch as it decodes, so peak memory is
// bounded by the decode window (-window BYTES, default 4 MiB, negative =
// unbounded) rather than the trace size. Only -dump materializes the trace.
//
// -trace-out writes the run's telemetry spans as Chrome trace_event JSON
// (load in chrome://tracing or https://ui.perfetto.dev).
//
// -json writes the reports as one JSON document, and nothing else, to
// stdout; the "trace:" banner goes to stderr then. Each report carries its
// stage ledger: per stage (read, detect, match, graph, oracle, verify) the
// time, the items in and out, and the most bytes held — the window's
// high-water mark, for the read row. -details renders the ledger's times
// as each report's "timing:" line.
//
// Exit status: 0 when every verified model is properly synchronized, 1 when
// data races were found, 2 when verification aborted on unmatched MPI calls
// or an error occurred.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"verifyio"
	"verifyio/internal/obs"
	"verifyio/internal/trace"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		traceDir = flag.String("trace", "", "trace directory (written by verifyio-trace)")
		model    = flag.String("model", "all", "consistency model: posix, commit, session, mpi-io, or all")
		noPrune  = flag.Bool("no-pruning", false, "disable conflict-group pruning (Fig. 3)")
		workers  = flag.Int("workers", 0, "analysis+verification worker goroutines for steps 2–4 (0 = GOMAXPROCS, 1 = serial); conflict detection shards across files and within single shared files")
		maxRaces = flag.Int("max-races", 16, "maximum races reported in detail (0 = 256, negative = none; the count is always exact)")
		details  = flag.Bool("details", false, "print full reports with call chains")
		diagnose = flag.Bool("diagnose", false, "classify each race and suggest a fix")
		dump     = flag.Bool("dump", false, "print the trace as text and exit")
		jsonOut  = flag.Bool("json", false, "emit the reports as JSON")
		tolerate = flag.Bool("tolerate", false, "salvage damaged or truncated rank streams instead of failing")
		window   = flag.Int64("window", 0, "bytes of decoded records resident at once (0 = default 4 MiB, negative = unbounded)")

		traceOut = flag.String("trace-out", "", "write telemetry spans as Chrome trace_event JSON to this file")
		prof     obs.Profiling
	)
	prof.RegisterFlags(flag.CommandLine)
	flag.Parse()
	if *traceDir == "" {
		fmt.Fprintln(os.Stderr, "verifyio: -trace DIR is required")
		flag.Usage()
		return 2
	}
	stopProf, err := prof.Start()
	if err != nil {
		fmt.Fprintf(os.Stderr, "verifyio: %v\n", err)
		return 2
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(os.Stderr, "verifyio: %v\n", err)
		}
	}()

	var tel *verifyio.Telemetry
	if *traceOut != "" {
		tel = verifyio.NewTelemetry()
	}
	defer func() {
		if err := obs.WriteFileWith(*traceOut, tel.WriteChromeTrace); err != nil {
			fmt.Fprintf(os.Stderr, "verifyio: write -trace-out: %v\n", err)
		}
	}()
	if *dump {
		raw, _, err := trace.ReadDirWithOptions(*traceDir, trace.DecodeOptions{Tolerate: *tolerate})
		if err != nil {
			fmt.Fprintf(os.Stderr, "verifyio: %v\n", err)
			return 2
		}
		if err := trace.WriteText(os.Stdout, raw); err != nil {
			fmt.Fprintf(os.Stderr, "verifyio: %v\n", err)
			return 2
		}
		return 0
	}

	opts := &verifyio.Options{
		DisablePruning: *noPrune,
		MaxRaceDetails: *maxRaces,
		Workers:        *workers,
		Telemetry:      tel,
	}
	ropts := verifyio.ReadOptions{
		Tolerate:    *tolerate,
		WindowBytes: *window,
	}

	var (
		reports []*verifyio.Report
		rec     *verifyio.Recovery
	)
	start := time.Now()
	if *model == "all" {
		reports, rec, err = verifyio.VerifyAllStream(*traceDir, ropts, opts)
	} else {
		var rep *verifyio.Report
		rep, rec, err = verifyio.VerifyStream(*traceDir, verifyio.Model(*model), ropts, opts)
		reports = []*verifyio.Report{rep}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "verifyio: %v\n", err)
		return 2
	}
	warnRecovery(rec)
	banner := os.Stdout
	if *jsonOut {
		banner = os.Stderr
	}
	fmt.Fprintf(banner, "trace: %s (%d ranks, %d records, read and analyzed in %v)\n",
		*traceDir, reports[0].Ranks, reports[0].Records, time.Since(start).Round(time.Millisecond))

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(reports); err != nil {
			fmt.Fprintf(os.Stderr, "verifyio: %v\n", err)
			return 2
		}
		for _, rep := range reports {
			if !rep.Verified {
				return 2
			}
			if !rep.ProperlySynchronized {
				return 1
			}
		}
		return 0
	}

	status := 0
	for _, rep := range reports {
		if *details {
			fmt.Println("----------------------------------------")
			rep.Render(os.Stdout)
		} else {
			fmt.Println(rep.Summary())
		}
		if *diagnose {
			for i, d := range rep.Diagnose() {
				fmt.Printf("  diagnosis #%d [%s] responsible: %s\n", i+1, d.Category, d.Responsible)
				fmt.Printf("    %s (rank %d) vs %s (rank %d) on %s\n",
					d.Race.FuncX, d.Race.RankX, d.Race.FuncY, d.Race.RankY, d.Race.File)
				fmt.Printf("    fix: %s\n", d.Suggestion)
			}
		}
		switch {
		case !rep.Verified:
			status = 2
		case !rep.ProperlySynchronized && status == 0:
			status = 1
		}
	}
	return status
}

// warnRecovery reports what lenient loading salvaged, rank by rank.
func warnRecovery(rec *verifyio.Recovery) {
	if rec.Clean() {
		return
	}
	for _, rr := range rec.Ranks {
		dropped := fmt.Sprintf("%d records dropped", rr.Dropped)
		if rr.Dropped < 0 {
			dropped = "unknown records dropped"
		}
		fmt.Fprintf(os.Stderr, "verifyio: rank %d damaged: %d records salvaged, %s (%s)\n",
			rr.Rank, rr.Salvaged, dropped, rr.Reason)
	}
	fmt.Fprintf(os.Stderr, "verifyio: verifying the salvaged prefix; results cover only the recovered records\n")
}
