package verify

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestTimingTotalSumsAllStages pins Rows, and so Total and the rendered
// timing line, to the Ledger struct by reflection: every field is a Row,
// Stages names them in declaration order, and Rows returns each one in its
// place. Adding a stage without updating Rows and Stages fails here before
// Total silently leaves it out.
func TestTimingTotalSumsAllStages(t *testing.T) {
	var l Ledger
	v := reflect.ValueOf(&l).Elem()
	if v.NumField() != len(Stages) {
		t.Fatalf("Ledger has %d fields, Stages names %d", v.NumField(), len(Stages))
	}
	var want time.Duration
	for i := 0; i < v.NumField(); i++ {
		f := v.Type().Field(i)
		if f.Type != reflect.TypeOf(Row{}) {
			t.Fatalf("Ledger.%s is not a Row", f.Name)
		}
		if strings.ToLower(f.Name) != Stages[i] {
			t.Errorf("Ledger field %d is %s, Stages[%d] is %q", i, f.Name, i, Stages[i])
		}
		d := time.Duration(1) << uint(i) // distinct power of two per stage
		v.Field(i).Set(reflect.ValueOf(Row{Time: d, In: int64(i)}))
		want += d
	}
	for i, row := range l.Rows() {
		if row.In != int64(i) {
			t.Errorf("Rows()[%d] is stage %d", i, row.In)
		}
	}
	if got := l.Total(); got != want {
		t.Errorf("Total() = %d, want %d: a stage is missing from the sum", got, want)
	}
}

// TestTimingSerialWallEqualsSum checks the serial contract for the
// production oracle and for the segment reference: with Workers=1 the
// oracle build, whichever oracle, is in the oracle row, and the caller's
// stopwatch around the analysis covers the sum of its rows.
func TestTimingSerialWallEqualsSum(t *testing.T) {
	tr := runTraced(t, 2, fig2Program)
	for _, algo := range []Algo{AlgoVectorClock, AlgoSegment} {
		start := time.Now()
		a, err := AnalyzeOpts(tr, algo, AnalyzeOptions{Workers: 1})
		wall := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		if a.Graph.SkeletonNodes() == 0 {
			t.Fatalf("%v: empty skeleton, nothing to build", algo)
		}
		l := a.Ledger
		if l.Oracle.Time <= 0 || l.Oracle.Bytes <= 0 {
			t.Errorf("%v: oracle row %+v, want its build time and arena", algo, l.Oracle)
		}
		if wall < l.Total() {
			t.Errorf("%v: analysis wall %v < stage sum %v", algo, wall, l.Total())
		}
	}
}
