package verify

import (
	"fmt"
	"io"
	"strconv"

	"verifyio/internal/trace"
)

// Render writes a human-readable report, including call chains for each
// detailed race — the output that helps users attribute a violation to the
// application or a library layer (§IV-D). The report is built in one buffer
// and written with one call.
func (r *Report) Render(w io.Writer) {
	w.Write(r.appendText(make([]byte, 0, 512+256*len(r.Races))))
}

// appendText appends the rendered report to b.
func (r *Report) appendText(b []byte) []byte {
	line := func(b []byte, label string, n int64) []byte {
		b = append(b, label...)
		return append(strconv.AppendInt(b, n, 10), '\n')
	}
	b = append(append(append(b, "model:            "...), r.Model...), '\n')
	if r.Workers > 0 {
		b = line(b, "workers:          ", int64(r.Workers))
	}
	b = line(b, "ranks:            ", int64(r.Ranks))
	b = line(b, "trace records:    ", int64(r.Records))
	if r.GraphNodes > 0 {
		b = strconv.AppendInt(append(b, "hb graph:         "...), int64(r.GraphNodes), 10)
		b = strconv.AppendInt(append(b, " nodes, "...), int64(r.GraphSyncEdges), 10)
		b = append(b, " sync edges\n"...)
	}
	if r.SkeletonNodes > 0 {
		b = strconv.AppendInt(append(b, "hb skeleton:      "...), int64(r.SkeletonNodes), 10)
		b = strconv.AppendInt(append(b, " nodes, "...), int64(r.SkeletonLevels), 10)
		b = append(b, " levels\n"...)
	}
	b = line(b, "conflict pairs:   ", r.ConflictPairs)
	if !r.Verified {
		b = append(b, "result:           VERIFICATION ABORTED — unmatched MPI calls\n"...)
		for _, p := range r.Problems {
			b = append(append(append(b, "  ["...), p.Kind.String()...), "] "...)
			b = append(append(b, p.Detail...), '\n')
		}
		return b
	}
	if r.ProperlySynchronized {
		b = append(b, "result:           PROPERLY SYNCHRONIZED (no data races)\n"...)
	} else {
		b = strconv.AppendInt(append(b, "result:           "...), r.RaceCount, 10)
		b = append(b, " DATA RACES\n"...)
	}
	b = line(b, "ps checks:        ", r.ChecksPerformed)
	if len(r.Races) > 0 {
		b = strconv.AppendInt(append(b, "races ("...), int64(len(r.Races)), 10)
		b = append(b, " shown):\n"...)
		for i := range r.Races {
			race := &r.Races[i]
			b = strconv.AppendInt(append(b, "  #"...), int64(i+1), 10)
			b = append(append(append(b, ' '), race.File...), ": "...)
			b = appendOp(b, race.FuncX, race.X.Start, race.X.End, race.X.Ref)
			b = append(b, "  vs  "...)
			b = appendOp(b, race.FuncY, race.Y.Start, race.Y.End, race.Y.Ref)
			b = append(append(append(b, "  (level: "...), race.Level()...), ")\n"...)
			b = appendChain(append(b, "      X chain: "...), race.ChainX)
			b = appendChain(append(b, "      Y chain: "...), race.ChainY)
		}
	}
	b = append(b, "timing:"...)
	for i, row := range r.Ledger.Rows() {
		b = append(append(append(append(b, ' '), Stages[i]...), '='), row.Time.String()...)
	}
	return append(append(append(b, " total="...), r.Ledger.Total().String()...), '\n')
}

// appendOp appends one side of a race line: "func[start,end) @rank:seq".
func appendOp(b []byte, fn string, start, end int64, ref trace.Ref) []byte {
	b = strconv.AppendInt(append(append(b, fn...), '['), start, 10)
	b = strconv.AppendInt(append(b, ','), end, 10)
	b = strconv.AppendInt(append(b, ") @"...), int64(ref.Rank), 10)
	return strconv.AppendInt(append(b, ':'), int64(ref.Seq), 10)
}

// appendChain appends a call chain, outermost frame first, and ends the line.
func appendChain(b []byte, chain []string) []byte {
	for i, fr := range chain {
		if i > 0 {
			b = append(b, " -> "...)
		}
		b = append(b, fr...)
	}
	return append(b, '\n')
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
