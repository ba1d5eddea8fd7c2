package corpus

import (
	"strings"
	"testing"

	"verifyio/internal/recorder"
	"verifyio/internal/semantics"
	"verifyio/internal/sim/hdf5"
	"verifyio/internal/sim/pnetcdf"
	"verifyio/internal/sim/posixfs"
	"verifyio/internal/verify"
)

// TestLegacyTracerLosesAttribution is the coverage ablation behind Table II:
// re-running a corpus finding under the original Recorder's partial coverage
// still detects the race (POSIX and MPI records survive) but loses the
// NetCDF-level frames that attribute it to the misused API — the reason
// Recorder⁺ exists.
func TestLegacyTracerLosesAttribution(t *testing.T) {
	tc, err := ByName("parallel5")
	if err != nil {
		t.Fatal(err)
	}
	run := func(cov recorder.Coverage) *verify.Report {
		t.Helper()
		defer hdf5.ResetMetadata()
		defer pnetcdf.ResetMetadata()
		env := recorder.NewEnv(tc.Ranks, recorder.Options{FSMode: posixfs.ModePOSIX, Coverage: cov})
		if err := env.Run(tc.Prog); err != nil {
			t.Fatal(err)
		}
		a, err := verify.Analyze(env.Trace(), verify.AlgoVectorClock, verify.AnalyzeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := a.Verify(verify.Options{Model: semantics.POSIXModel()})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	plus := run(recorder.CoveragePlus)
	legacy := run(recorder.CoverageLegacy)

	// Both tracers catch the race: the POSIX-level conflict is visible
	// either way.
	if plus.RaceCount == 0 || legacy.RaceCount == 0 {
		t.Fatalf("race counts: plus=%d legacy=%d, both must be > 0", plus.RaceCount, legacy.RaceCount)
	}
	if plus.RaceCount != legacy.RaceCount {
		t.Errorf("race counts differ: plus=%d legacy=%d", plus.RaceCount, legacy.RaceCount)
	}

	chainHas := func(rep *verify.Report, fn string) bool {
		for _, race := range rep.Races {
			for _, frame := range append(append([]string{}, race.ChainX...), race.ChainY...) {
				if strings.Contains(frame, fn) {
					return true
				}
			}
		}
		return false
	}
	// Recorder⁺ attributes the race to the NetCDF call; the legacy
	// Recorder cannot (no NetCDF interception at all).
	if !chainHas(plus, "nc_put_var_schar") {
		t.Error("recorder+ chains lost the nc_put_var_schar attribution")
	}
	if chainHas(legacy, "nc_put_var_schar") {
		t.Error("legacy recorder chains unexpectedly contain NetCDF frames")
	}
	// Both still show the HDF5 frame (H5Dwrite is in the 84 subset).
	if !chainHas(plus, "H5Dwrite") || !chainHas(legacy, "H5Dwrite") {
		t.Error("H5Dwrite frame missing from a tracer's chains")
	}
	// The legacy trace is strictly smaller.
	if legacy.Records >= plus.Records {
		t.Errorf("legacy trace has %d records, plus %d — legacy should be smaller", legacy.Records, plus.Records)
	}
}
