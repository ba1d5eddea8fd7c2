package verify

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestTimingTotalSumsAllStages pins Total() to the Timing struct by
// reflection: every duration field must contribute to the sum except the
// wall-clock overlap fields, which are identified by the "Wall" name suffix.
// Those re-measure elapsed time across stages that run concurrently, so
// adding one to Total would double-report; the suffix convention makes the
// exclusion automatic and this test makes it load-bearing. Adding a stage
// field without updating Total — or naming an overlap field without the
// suffix — fails here.
func TestTimingTotalSumsAllStages(t *testing.T) {
	var tm Timing
	v := reflect.ValueOf(&tm).Elem()
	var want time.Duration
	var sawWall []string
	for i := 0; i < v.NumField(); i++ {
		f := v.Type().Field(i)
		if f.Type != reflect.TypeOf(time.Duration(0)) {
			t.Fatalf("Timing.%s is not a time.Duration; update this test", f.Name)
		}
		d := time.Duration(1) << uint(i) // distinct power of two per field
		v.Field(i).SetInt(int64(d))
		if strings.HasSuffix(f.Name, "Wall") {
			sawWall = append(sawWall, f.Name)
			continue
		}
		want += d
	}
	if got := tm.Total(); got != want {
		t.Errorf("Total() = %d, want %d: a stage field is missing from the sum (or a Wall-suffixed overlap field leaked in)", got, want)
	}
	// The overlap fields this PR series has introduced; a rename that breaks
	// the suffix convention shows up as a miscount here before it silently
	// double-reports in Total.
	if len(sawWall) != 2 {
		t.Errorf("found %d Wall-suffixed overlap fields %v, want 2 (DetectMatchWall, AnalyzeWall)", len(sawWall), sawWall)
	}
}

// TestTimingSerialWallEqualsSum checks the serial contract for the
// production oracle and for the segment reference: with Workers=1 the
// detect+match wall clock is the sum of the two stages (no overlap), the
// oracle build, whichever oracle, is in Timing.VectorClock, and the whole
// analysis wall clock covers the sum of its stages.
func TestTimingSerialWallEqualsSum(t *testing.T) {
	tr := runTraced(t, 2, fig2Program)
	for _, algo := range []Algo{AlgoVectorClock, AlgoSegment} {
		a, err := AnalyzeOpts(tr, algo, AnalyzeOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if a.Graph.SkeletonNodes() == 0 {
			t.Fatalf("%v: empty skeleton, nothing to build", algo)
		}
		tm := a.Timing
		if sum := tm.DetectConflicts + tm.Match; tm.DetectMatchWall < sum {
			t.Errorf("%v: serial wall %v < detect+match sum %v", algo, tm.DetectMatchWall, sum)
		}
		if tm.VectorClock <= 0 {
			t.Errorf("%v: oracle build time %v, want > 0", algo, tm.VectorClock)
		}
		if tm.AnalyzeWall < tm.Total() {
			t.Errorf("%v: analyze wall %v < stage sum %v", algo, tm.AnalyzeWall, tm.Total())
		}
	}
}
