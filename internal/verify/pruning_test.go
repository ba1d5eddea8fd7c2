package verify_test

import (
	"reflect"
	"testing"

	"verifyio/internal/corpus"
	"verifyio/internal/obs"
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
//
// Everything runs at Workers pinned to 1 and to 4, and the exhaustive walk is
// held to what "each pair is verified once" means: a conflicting pair lives
// in one group, so the walk evaluates X ps Y and, only when that fails,
// Y ps X — between one and two checks per pair, the same number at both
// worker counts. (With a pair in both its ops' groups the ceiling was four.)
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
	serialChecks := map[string][2]int64{}
	for _, workers := range []int{1, 4} {
		var prunedChecks, exhaustiveChecks int64
		for _, in := range inputs {
			a, err := verify.Analyze(in.tr, verify.AlgoVectorClock, verify.AnalyzeOptions{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			for _, model := range semantics.All() {
				opts := verify.Options{Model: model, ContinueOnUnmatched: true, Workers: workers}
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
				if c, p := exhaustive.ChecksPerformed, exhaustive.ConflictPairs; c < p || c > 2*p {
					t.Errorf("%s/%s/workers=%d: exhaustive walk made %d checks for %d pairs, want between one and two per pair",
						in.name, model.Name, workers, c, p)
				}
				key := in.name + "/" + model.Name
				if workers == 1 {
					serialChecks[key] = [2]int64{pruned.ChecksPerformed, exhaustive.ChecksPerformed}
				} else if got := [2]int64{pruned.ChecksPerformed, exhaustive.ChecksPerformed}; got != serialChecks[key] {
					t.Errorf("%s/workers=%d: (pruned, exhaustive) checks %v, at workers=1 %v", key, workers, got, serialChecks[key])
				}
				prunedChecks += pruned.ChecksPerformed
				exhaustiveChecks += exhaustive.ChecksPerformed
				if in.name != "scaling-mixed" || workers != 1 {
					continue
				}
				for _, batchWorkers := range []int{2, 7} {
					opts.DisablePruning, opts.Workers = false, batchWorkers
					batched, err := a.Verify(opts)
					if err != nil {
						t.Fatal(err)
					}
					if batched.RaceCount != exhaustive.RaceCount || !reflect.DeepEqual(batched.Races, exhaustive.Races) ||
						batched.ChecksPerformed != pruned.ChecksPerformed {
						t.Errorf("%s/%s/workers=%d: %d races from %d checks; exhaustive %d races, pruned %d checks",
							in.name, model.Name, batchWorkers, batched.RaceCount, batched.ChecksPerformed,
							exhaustive.RaceCount, pruned.ChecksPerformed)
					}
				}
			}
		}
		// The reduction is asserted in aggregate: it comes from long runs, and
		// on a one-op run the exhaustive walk short-circuits its second check
		// where the pruned one searches both directions.
		if prunedChecks >= exhaustiveChecks {
			t.Errorf("workers=%d: pruning performed %d checks over all inputs, exhaustive %d — no reduction",
				workers, prunedChecks, exhaustiveChecks)
		}
	}
}

// TestPositionClassesAnswerMostChecks is the gate CI's obs-smoke job used to
// run on a metrics file: pmulti_dset is 220 groups of fan-out 220 in one sync
// neighbourhood, so over the four model passes at least half of the
// properly-synchronized checks must be answered from a position class's
// monotone bounds instead of being evaluated. Workers is pinned: both
// counters are the chunk plan's, equal at every worker count.
func TestPositionClassesAnswerMostChecks(t *testing.T) {
	tc, err := corpus.ByName("pmulti_dset")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := corpus.Run(tc)
	if err != nil {
		t.Fatal(err)
	}
	var serial [2]int64
	for _, workers := range []int{1, 4} {
		reg := obs.NewRegistry()
		oc := obs.Ctx{R: reg}
		a, err := verify.Analyze(tr, verify.AlgoVectorClock, verify.AnalyzeOptions{Workers: workers, Obs: oc})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.VerifyAll(semantics.All(), verify.Options{Workers: workers, Obs: oc}); err != nil {
			t.Fatal(err)
		}
		c := reg.Snapshot().Stable.Counters
		checks, hits := c["verify.checks"], c["verify.class_hits"]
		if checks == 0 || checks > 2*hits {
			t.Errorf("workers=%d: verify.checks = %d, verify.class_hits = %d, want 0 < checks <= 2·hits", workers, checks, hits)
		}
		if workers == 1 {
			serial = [2]int64{checks, hits}
			t.Logf("verify.checks = %d, verify.class_hits = %d", checks, hits)
		} else if got := [2]int64{checks, hits}; got != serial {
			t.Errorf("workers=%d: (checks, class_hits) = %v, at workers=1 %v", workers, got, serial)
		}
	}
}
