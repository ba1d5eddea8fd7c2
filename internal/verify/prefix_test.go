package verify_test

import (
	"math"
	"reflect"
	"testing"

	"verifyio/internal/corpus"
	"verifyio/internal/semantics"
	"verifyio/internal/verify"
)

// TestParallelMaxRaceDetailsPrefix: at every cap and worker count the
// report's races are exactly the first N of the uncapped report's, and its
// counts are the uncapped run's, on a trace whose plan has many batches, so
// the prefix is merged across batch boundaries. Each batch's tally holds at
// most MaxRaceDetails pairs.
func TestParallelMaxRaceDetailsPrefix(t *testing.T) {
	a, err := verify.Analyze(corpus.ScalingTrace(8, 6000, 256<<10, 1), verify.AlgoVectorClock, verify.AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range semantics.All() {
		full, err := a.Verify(verify.Options{Model: m, Workers: 1, MaxRaceDetails: math.MaxInt})
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(full.Races)) != full.RaceCount || full.RaceCount == 0 {
			t.Fatalf("%s: uncapped report holds %d of %d races", m.Name, len(full.Races), full.RaceCount)
		}
		n := int(full.RaceCount)
		for _, workers := range []int{1, 2, 7} {
			for _, cap := range []int{1, 7, 255, 256, 257, n, n + 1, -1} {
				rep, err := a.Verify(verify.Options{Model: m, Workers: workers, MaxRaceDetails: cap})
				if err != nil {
					t.Fatal(err)
				}
				if rep.RaceCount != full.RaceCount || rep.ChecksPerformed != full.ChecksPerformed ||
					rep.ClassHits != full.ClassHits || rep.Classes != full.Classes || rep.HBQueries != full.HBQueries {
					t.Errorf("%s workers %d cap %d: counts (races %d, checks %d, hits %d, classes %d, hb %d) "+
						"differ from uncapped (%d, %d, %d, %d, %d)", m.Name, workers, cap,
						rep.RaceCount, rep.ChecksPerformed, rep.ClassHits, rep.Classes, rep.HBQueries,
						full.RaceCount, full.ChecksPerformed, full.ClassHits, full.Classes, full.HBQueries)
				}
				want := full.Races[:min(max(cap, 0), n)]
				if len(want) == 0 {
					want = nil
				}
				if !reflect.DeepEqual(rep.Races, want) {
					t.Errorf("%s workers %d cap %d: %d races are not the uncapped report's first %d",
						m.Name, workers, cap, len(rep.Races), len(want))
				}
				if cap <= 0 || cap > 257 {
					continue
				}
				pairs := verify.RetainedPairs(a, verify.Options{Model: m, Workers: workers, MaxRaceDetails: cap})
				if len(pairs) < 2 {
					t.Fatalf("plan has %d batches; the prefix never crosses one", len(pairs))
				}
				for b, n := range pairs {
					if n > cap {
						t.Errorf("%s workers %d cap %d: batch %d's tally holds %d pairs",
							m.Name, workers, cap, b, n)
					}
				}
			}
		}
	}
}

// BenchmarkVerifyModels times one model pass per cell on the repository
// benchmark's dense shape (8 ranks × 12 288 ops in a 256 KiB window, about
// 470 k conflict pairs), where Session and MPI-IO race on most pairs.
func BenchmarkVerifyModels(b *testing.B) {
	a, err := verify.Analyze(corpus.ScalingTrace(8, 12288, 256<<10, 1), verify.AlgoVectorClock, verify.AnalyzeOptions{})
	if err != nil {
		b.Fatal(err)
	}
	// Analyze built the op plan, so every cell times the model pass alone.
	for _, m := range semantics.All() {
		b.Run(m.Name, func(b *testing.B) {
			b.ReportAllocs()
			var races int64
			for i := 0; i < b.N; i++ {
				rep, err := a.Verify(verify.Options{Model: m})
				if err != nil {
					b.Fatal(err)
				}
				races = rep.RaceCount
			}
			b.ReportMetric(float64(races), "races")
		})
	}
}
