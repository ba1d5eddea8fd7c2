package verify_test

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"
	"time"

	"verifyio/internal/conflict"
	"verifyio/internal/corpus"
	"verifyio/internal/match"
	"verifyio/internal/semantics"
	"verifyio/internal/trace"
	"verifyio/internal/verify"
)

// renderReference is the fmt-based renderer Report.Render replaced: the
// specification its output is held to byte for byte.
func renderReference(r *verify.Report, w io.Writer) {
	fmt.Fprintf(w, "model:            %s\n", r.Model)
	if r.Workers > 0 {
		fmt.Fprintf(w, "workers:          %d\n", r.Workers)
	}
	fmt.Fprintf(w, "ranks:            %d\n", r.Ranks)
	fmt.Fprintf(w, "trace records:    %d\n", r.Records)
	if r.GraphNodes > 0 {
		fmt.Fprintf(w, "hb graph:         %d nodes, %d sync edges\n", r.GraphNodes, r.GraphSyncEdges)
	}
	if r.SkeletonNodes > 0 {
		fmt.Fprintf(w, "hb skeleton:      %d nodes, %d levels\n", r.SkeletonNodes, r.SkeletonLevels)
	}
	fmt.Fprintf(w, "conflict pairs:   %d\n", r.ConflictPairs)
	if !r.Verified {
		fmt.Fprintf(w, "result:           VERIFICATION ABORTED — unmatched MPI calls\n")
		for _, p := range r.Problems {
			fmt.Fprintf(w, "  [%s] %s\n", p.Kind, p.Detail)
		}
		return
	}
	if r.ProperlySynchronized {
		fmt.Fprintf(w, "result:           PROPERLY SYNCHRONIZED (no data races)\n")
	} else {
		fmt.Fprintf(w, "result:           %d DATA RACES\n", r.RaceCount)
	}
	fmt.Fprintf(w, "ps checks:        %d\n", r.ChecksPerformed)
	if len(r.Races) > 0 {
		fmt.Fprintf(w, "races (%d shown):\n", len(r.Races))
		for i, race := range r.Races {
			fmt.Fprintf(w, "  #%d %s: %s[%d,%d) @%v  vs  %s[%d,%d) @%v  (level: %s)\n",
				i+1, race.File,
				race.FuncX, race.X.Start, race.X.End, race.X.Ref,
				race.FuncY, race.Y.Start, race.Y.End, race.Y.Ref,
				race.Level())
			fmt.Fprintf(w, "      X chain: %s\n", strings.Join(race.ChainX, " -> "))
			fmt.Fprintf(w, "      Y chain: %s\n", strings.Join(race.ChainY, " -> "))
		}
	}
	fmt.Fprint(w, "timing:")
	for i, row := range r.Ledger.Rows() {
		fmt.Fprintf(w, " %s=%v", verify.Stages[i], row.Time)
	}
	fmt.Fprintf(w, " total=%v\n", r.Ledger.Total())
}

// sameAsReference fails unless Render and renderReference give the same bytes.
func sameAsReference(t *testing.T, name string, rep *verify.Report) {
	t.Helper()
	var got, want bytes.Buffer
	rep.Render(&got)
	renderReference(rep, &want)
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("%s: Render differs from the fmt reference\n got:\n%s\nwant:\n%s", name, got.Bytes(), want.Bytes())
	}
}

// TestRenderMatchesReferenceCorpus: every corpus report under the four
// models, verified at one worker and at the default, renders as the fmt
// reference does — the three unmatched-MPI traces as aborted reports.
func TestRenderMatchesReferenceCorpus(t *testing.T) {
	aborted := 0
	for _, tc := range corpus.Tests() {
		tr, err := corpus.Run(tc)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 0} {
			a, err := verify.Analyze(tr, verify.AlgoVectorClock, verify.AnalyzeOptions{Workers: workers})
			if err != nil {
				t.Fatalf("%s: %v", tc.Name, err)
			}
			reps, err := a.VerifyAll(semantics.All(), verify.Options{Workers: workers})
			if err != nil {
				t.Fatalf("%s: %v", tc.Name, err)
			}
			for _, rep := range reps {
				if !rep.Verified {
					aborted++
				}
				sameAsReference(t, fmt.Sprintf("%s/%s/workers=%d", tc.Name, rep.Model, workers), rep)
			}
		}
	}
	if aborted == 0 {
		t.Fatal("no corpus report was aborted; the unmatched-MPI branch went untested")
	}
}

// TestRenderMatchesReferenceBranches: reports built to reach every branch the
// corpus may not — an aborted report with problems,
// Workers 0, no races, and 256 races with multi-frame chains — render as the
// fmt reference does.
func TestRenderMatchesReferenceBranches(t *testing.T) {
	frame := func(l trace.Layer, fn, site string) string { return trace.FormatFrame(l, fn, site) }
	races := make([]verify.Race, 256)
	for i := range races {
		races[i] = verify.Race{
			X:     conflict.Op{Ref: trace.Ref{Rank: int32(i % 7), Seq: int32(3 * i)}, Start: int64(i) << 20, End: int64(i+1) << 20},
			Y:     conflict.Op{Ref: trace.Ref{Rank: int32(1 + i%5), Seq: math.MaxInt32 - int32(i)}, Start: -1, End: 1<<62 + int64(i)},
			File:  fmt.Sprintf("/scratch/run-%d/out.h5", i%3),
			FuncX: "pwrite", FuncY: "MPI_File_read_at_all",
			ChainX: []string{
				frame(trace.LayerHDF5, "H5Dwrite", fmt.Sprintf("main.c:%d", i)),
				frame(trace.LayerMPIIO, "MPI_File_write_at", ""),
				frame(trace.LayerPOSIX, "pwrite", ""),
			},
			ChainY: []string{frame(trace.LayerMPIIO, "MPI_File_read_at_all", "")},
		}
		switch i % 4 {
		case 1:
			races[i].ChainY = nil
		case 2:
			races[i].ChainX = []string{"not a frame", "posix:pwrite"}
		case 3:
			races[i].ChainY = append([]string{frame(trace.LayerPnetCDF, "ncmpi_put_vara_all", "x.c:9")}, races[i].ChainX...)
		}
	}
	ledger := verify.Ledger{
		Read:   verify.Row{Time: 1500 * time.Microsecond},
		Detect: verify.Row{Time: 2*time.Second + 3*time.Millisecond},
		Match:  verify.Row{Time: 999 * time.Nanosecond},
		Graph:  verify.Row{Time: 0},
		Oracle: verify.Row{Time: 90 * time.Minute},
		Verify: verify.Row{Time: 17 * time.Millisecond},
	}
	base := func() *verify.Report {
		return &verify.Report{
			Model: "MPI-IO", Ranks: 8, Records: 123456,
			ConflictPairs: 1 << 40, Workers: 4, GraphNodes: 99, GraphSyncEdges: 12,
			SkeletonNodes: 20, SkeletonLevels: 5, Verified: true, ChecksPerformed: 77,
			Ledger: ledger,
		}
	}
	cases := map[string]*verify.Report{}

	rep := base()
	rep.ProperlySynchronized = true
	cases["no races"] = rep

	rep = base()
	rep.Workers, rep.GraphNodes, rep.SkeletonNodes = 0, 0, 0
	rep.ProperlySynchronized = true
	cases["workers 0, no graph"] = rep

	rep = base()
	rep.Verified = false
	rep.Problems = []match.Problem{
		{Kind: match.ProblemKind(0), Detail: "rank 1: MPI_Send to 2 tag 7 has no receive"},
		{Kind: match.ProblemKind(1), Detail: "collective slot 3 mismatched"},
		{Kind: match.ProblemKind(1 << 20), Detail: ""},
	}
	cases["aborted with problems"] = rep

	rep = base()
	rep.Verified = false
	cases["aborted without problems"] = rep

	rep = base()
	rep.RaceCount, rep.Races = 1<<33, races
	cases["256 races"] = rep

	rep = base()
	rep.RaceCount, rep.Races = 1, races[:1]
	rep.Ledger = verify.Ledger{}
	cases["one race, zero times"] = rep

	for name, rep := range cases {
		sameAsReference(t, name, rep)
	}
}
