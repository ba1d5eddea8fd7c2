// Command verifyio-dfg builds the fleet analytics of a trace directory: each
// rank's I/O directly-follows graph (nodes are normalized call classes
// tagged with file roles, edges are observed successions with counts, bytes,
// and inter-arrival histograms) plus the rank anomaly report — which ranks
// deviate from the rank-majority graph and by how much. It verifies nothing;
// cmd/verifyio does that.
//
// Usage:
//
//	verifyio-dfg -trace DIR [-out FILE] [-dot FILE] [-tolerate] [-window BYTES]
//
// -out writes the graphs and the anomaly report as JSON; -dot writes the
// graphs as Graphviz DOT (render with: dot -Tsvg dfg.dot -o dfg.svg;
// anomalous ranks are drawn red). Both artifacts are byte-deterministic. The
// directory is decoded once, in bounded windows (-window BYTES, default
// 4 MiB, negative = unbounded), so peak memory is the window plus the graphs.
// A one-line summary goes to stdout.
//
// Exit status: 0 on success, 2 on an error.
package main

import (
	"flag"
	"fmt"
	"os"

	"verifyio/internal/dfg"
	"verifyio/internal/obs"
	"verifyio/internal/trace"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		traceDir = flag.String("trace", "", "trace directory (written by verifyio-trace)")
		out      = flag.String("out", "", "write per-rank I/O directly-follows graphs and the rank anomaly report as JSON to this file")
		dot      = flag.String("dot", "", "write the per-rank directly-follows graphs as Graphviz DOT to this file (render: dot -Tsvg)")
		tolerate = flag.Bool("tolerate", false, "salvage damaged or truncated rank streams instead of failing")
		window   = flag.Int64("window", 0, "bytes of decoded records resident at once (0 = default 4 MiB, negative = unbounded)")
	)
	flag.Parse()
	if *traceDir == "" {
		fmt.Fprintln(os.Stderr, "verifyio-dfg: -trace DIR is required")
		flag.Usage()
		return 2
	}
	fleet, err := dfg.BuildStreamDir(*traceDir, dfg.StreamOptions{
		Decode:      trace.DecodeOptions{Tolerate: *tolerate},
		WindowBytes: *window,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "verifyio-dfg: %v\n", err)
		return 2
	}
	if err := obs.WriteFileWith(*out, fleet.WriteJSON); err != nil {
		fmt.Fprintf(os.Stderr, "verifyio-dfg: write -out: %v\n", err)
		return 2
	}
	if err := obs.WriteFileWith(*dot, fleet.WriteDOT); err != nil {
		fmt.Fprintf(os.Stderr, "verifyio-dfg: write -dot: %v\n", err)
		return 2
	}
	fmt.Println(fleet.Summary())
	return 0
}
