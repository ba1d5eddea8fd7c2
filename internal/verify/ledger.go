package verify

import "time"

// Ledger is the run record: one row per stage of Table IV, always filled.
// Analyze fills the first five rows; each Report copies them and adds its
// own verify row. DESIGN §9 gives each row's In, Out and Bytes.
type Ledger struct {
	// Read is the source producing record batches: decoding, for a trace
	// directory; next to nothing for a trace already in memory.
	Read Row
	// Detect is step 2: the per-rank replay, then the cross-rank merge and
	// pair sweep.
	Detect Row
	// Match is step 3: the per-rank scan, then the cross-rank matching.
	Match Row
	// Graph is the happens-before graph construction.
	Graph Row
	// Oracle is the happens-before oracle build, whichever oracle it is
	// (Table IV's "vector clock" row).
	Oracle Row
	// Verify is one model's conflict checking.
	Verify Row
}

// Row is one stage's line of the ledger.
type Row struct {
	// Time is summed over the stage's tasks, so at Workers = 1 the rows of
	// a run add up to its wall time.
	Time time.Duration
	// In and Out count what the stage consumed and produced; they are
	// identical at every worker count.
	In, Out int64
	// Bytes is the most bytes the stage held at once, where it has such a
	// figure (0 where it has none).
	Bytes int64
}

// Stages names the ledger's rows in pipeline order, as Rows returns them.
var Stages = [...]string{"read", "detect", "match", "graph", "oracle", "verify"}

// Rows returns the rows in pipeline order.
func (l *Ledger) Rows() [len(Stages)]Row {
	return [...]Row{l.Read, l.Detect, l.Match, l.Graph, l.Oracle, l.Verify}
}

// Total sums the stage times: Table IV's Total row.
func (l *Ledger) Total() time.Duration {
	var t time.Duration
	for _, r := range l.Rows() {
		t += r.Time
	}
	return t
}
