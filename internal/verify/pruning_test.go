package verify_test

import (
	"reflect"
	"testing"

	"verifyio/internal/corpus"
	"verifyio/internal/semantics"
	"verifyio/internal/trace"
	"verifyio/internal/verify"
)

// TestPruningMatchesExhaustive checks the Fig. 3 pruning against the
// exhaustive pair walk on every corpus trace plus a synthetic trace whose
// ranks both read and write: same race count and same detailed races under
// all four models, from strictly fewer properly-synchronized checks overall.
// The synthetic trace is the shape the pruning used to under-count (a run holding
// an unsynchronized write before a synchronized read, both before X); it is
// also verified at Workers 2 and 7, which holds the batched walk — class
// scratch carried across chunks, reset per batch — to the exhaustive one.
func TestPruningMatchesExhaustive(t *testing.T) {
	type input struct {
		name string
		tr   *trace.Trace
	}
	inputs := []input{{"scaling-mixed", corpus.ScalingTrace(4, 2048, 1<<16, 1)}}
	for _, tc := range corpus.Tests() {
		tr, err := corpus.Run(tc)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, input{tc.Name, tr})
	}
	var prunedChecks, exhaustiveChecks int64
	for _, in := range inputs {
		a, err := verify.Analyze(in.tr, verify.AlgoAuto, verify.AnalyzeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, model := range semantics.All() {
			opts := verify.Options{Model: model, ContinueOnUnmatched: true}
			pruned, err := a.Verify(opts)
			if err != nil {
				t.Fatal(err)
			}
			opts.DisablePruning = true
			exhaustive, err := a.Verify(opts)
			if err != nil {
				t.Fatal(err)
			}
			if pruned.RaceCount != exhaustive.RaceCount {
				t.Errorf("%s/%s: pruned %d races vs exhaustive %d",
					in.name, model.Name, pruned.RaceCount, exhaustive.RaceCount)
			}
			if !reflect.DeepEqual(pruned.Races, exhaustive.Races) {
				t.Errorf("%s/%s: pruned and exhaustive race details differ", in.name, model.Name)
			}
			prunedChecks += pruned.ChecksPerformed
			exhaustiveChecks += exhaustive.ChecksPerformed
			if in.name != "scaling-mixed" {
				continue
			}
			for _, workers := range []int{2, 7} {
				opts.DisablePruning, opts.Workers = false, workers
				batched, err := a.Verify(opts)
				if err != nil {
					t.Fatal(err)
				}
				if batched.RaceCount != exhaustive.RaceCount || !reflect.DeepEqual(batched.Races, exhaustive.Races) ||
					batched.ChecksPerformed != pruned.ChecksPerformed {
					t.Errorf("%s/%s/workers=%d: %d races from %d checks; exhaustive %d races, pruned %d checks",
						in.name, model.Name, workers, batched.RaceCount, batched.ChecksPerformed,
						exhaustive.RaceCount, pruned.ChecksPerformed)
				}
			}
		}
	}
	// The reduction is asserted in aggregate: it comes from long runs, and on
	// a one-op run the exhaustive walk short-circuits its second check.
	if prunedChecks >= exhaustiveChecks {
		t.Errorf("pruning performed %d checks over all inputs, exhaustive %d — no reduction",
			prunedChecks, exhaustiveChecks)
	}
}
