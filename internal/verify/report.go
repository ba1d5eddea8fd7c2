package verify

import (
	"fmt"
	"io"
	"strings"
)

// Render writes a human-readable report, including call chains for each
// detailed race — the output that helps users attribute a violation to the
// application or a library layer (§IV-D).
func (r *Report) Render(w io.Writer) {
	fmt.Fprintf(w, "model:            %s\n", r.Model)
	fmt.Fprintf(w, "algorithm:        %s\n", r.Algorithm)
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
	if r.Cache != nil {
		fmt.Fprintf(w, "verdict cache:    %d hits, %d misses (%d dirty chunks)\n",
			r.Cache.Hits, r.Cache.Misses, r.Cache.DirtyChunks)
	}
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
		fmt.Fprintf(w, " %s=%v", Stages[i], row.Time)
	}
	fmt.Fprintf(w, " total=%v\n", r.Ledger.Total())
}

// Summary returns a one-line summary suitable for Fig. 4-style tables.
func (r *Report) Summary() string {
	if !r.Verified {
		return fmt.Sprintf("%-8s unmatched MPI calls (%d problems)", r.Model, len(r.Problems))
	}
	if r.ProperlySynchronized {
		return fmt.Sprintf("%-8s properly synchronized (%d conflicts)", r.Model, r.ConflictPairs)
	}
	return fmt.Sprintf("%-8s %d data races (%d conflicts)", r.Model, r.RaceCount, r.ConflictPairs)
}
