package conflict_test

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"verifyio/internal/conflict"
	"verifyio/internal/corpus"
	"verifyio/internal/trace"
)

// TestSignatureTableExactAndSmall holds the signature table to the records
// it stands in for, on every corpus trace: each operation's signature is its
// record's (Func, Layer, Site, Chain); the table holds every distinct
// signature once; and the materialized and the streaming front-end (ragged
// batches) number the signatures identically at every worker count.
func TestSignatureTableExactAndSmall(t *testing.T) {
	for _, tc := range corpus.Tests() {
		tr, err := corpus.Run(tc)
		if err != nil {
			t.Fatalf("%s: %v", tc.Name, err)
		}
		base, err := conflict.DetectOpts(tr, conflict.Options{Workers: 1})
		if err != nil {
			t.Fatalf("%s: %v", tc.Name, err)
		}
		if len(base.OpSig) != len(base.Ops) {
			t.Fatalf("%s: %d signature indices for %d ops", tc.Name, len(base.OpSig), len(base.Ops))
		}
		distinct := map[string]bool{}
		for i, op := range base.Ops {
			rec := tr.Record(op.Ref)
			got := base.Sigs[base.OpSig[i]]
			if got.Func != rec.Func || got.Layer != rec.Layer || got.Site != rec.Site() || !slices.Equal(got.Chain, rec.Chain()) {
				t.Fatalf("%s: op %d (%v) has signature %+v, its record says %s %v @%q chain %q",
					tc.Name, i, op.Ref, got, rec.Func, rec.Layer, rec.Site(), rec.Chain())
			}
			distinct[fmt.Sprintf("%q %d %q %q", rec.Func, rec.Layer, rec.Site(), rec.Chain())] = true
		}
		if len(base.Sigs) != len(distinct) {
			t.Errorf("%s: table holds %d signatures, the ops have %d distinct ones", tc.Name, len(base.Sigs), len(distinct))
		}

		for _, workers := range []int{1, 2, 7} {
			res, err := conflict.DetectOpts(tr, conflict.Options{Workers: workers})
			if err != nil {
				t.Fatalf("%s: %v", tc.Name, err)
			}
			sameSigs(t, tc.Name, fmt.Sprintf("DetectOpts workers=%d", workers), base, res)

			sd := conflict.NewDetector(len(tr.Ranks))
			for rank, recs := range tr.Ranks {
				for lo := 0; lo < len(recs); {
					hi := min(lo+1+lo%13, len(recs))
					// A batch buffer is recycled once fed: hand the detector
					// steps of a copy and scribble over it afterwards.
					batch := slices.Clone(recs[lo:hi])
					trace.Steps(batch, func(steps []trace.Step) { sd.Feed(rank, steps) })
					clear(batch)
					lo = hi
				}
			}
			res, err = sd.Finish(conflict.Options{Workers: workers})
			if err != nil {
				t.Fatalf("%s: %v", tc.Name, err)
			}
			sameSigs(t, tc.Name, fmt.Sprintf("Detector in batches, workers=%d", workers), base, res)
		}
	}
}

func sameSigs(t *testing.T, name, what string, want, got *conflict.Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Sigs, want.Sigs) || !slices.Equal(got.OpSig, want.OpSig) {
		t.Errorf("%s: %s numbers signatures differently from DetectOpts workers=1", name, what)
	}
}
