package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// compareFiles prints one row per (workload, metric) the result sets A and B
// share, with both values, the relative change from A to B and the bound.
// An end-to-end metric fails when B is worse than A by more than its bound,
// a count made by the traced pass when the two differ at all; times and
// sizes measured by the traced pass are shown and never gated. It returns an
// error when any row failed.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := readResultSet(pathA)
	if err != nil {
		return err
	}
	b, err := readResultSet(pathB)
	if err != nil {
		return err
	}
	for _, s := range []struct {
		label string
		set   *resultSet
	}{{"A", a}, {"B", b}} {
		fmt.Fprintf(w, "%s: commit=%s go=%s nproc=%d gomaxprocs=%d seed=%d host.calib_ms=%.1f\n", s.label,
			s.set.Stamp.Commit, s.set.Stamp.Go, s.set.Stamp.NProc, s.set.Stamp.GOMAXPROCS, s.set.Stamp.Seed, s.set.meanCalib())
	}
	sameSeed := a.Stamp.Seed == b.Stamp.Seed
	if !sameSeed {
		fmt.Fprintln(w, "seeds differ: counts are shown and not held equal")
	}

	fmt.Fprintf(w, "%-10s %-32s %14s %14s %9s %7s  %s\n", "workload", "metric", "A", "B", "delta", "bound", "")
	failures, rows := 0, 0
	for i := range a.Passes {
		pa := &a.Passes[i]
		pb := b.find(pa.Workload, pa.Traced)
		if pb == nil {
			continue
		}
		table := endToEnd
		if pa.Traced {
			table = perLayer
		}
		if pa.VerdictErrors > 0 || pb.VerdictErrors > 0 {
			fmt.Fprintf(w, "%-10s %-32s %14d %14d %9s %7s  FAIL\n", pa.Workload, "verdict_errors",
				pa.VerdictErrors, pb.VerdictErrors, "", "0")
			failures++
		}
		for _, m := range table {
			va, okA := pa.Metrics[m.Name]
			vb, okB := pb.Metrics[m.Name]
			if !okA || !okB {
				continue
			}
			rows++
			delta := 0.0
			if va.Value != 0 {
				delta = (vb.Value - va.Value) / va.Value
			}
			worse := delta
			if m.Better == "higher" {
				worse = -delta
			}
			bound, verdict := "", ""
			switch {
			case !pa.Traced:
				bound, verdict = fmt.Sprintf("%.0f%%", m.Bound*100), "ok"
				if worse > m.Bound {
					verdict = "FAIL"
				}
			case m.exact() && sameSeed:
				bound, verdict = "exact", "ok"
				if va.Value != vb.Value {
					verdict = "FAIL"
				}
			}
			if verdict == "FAIL" {
				failures++
			}
			fmt.Fprintf(w, "%-10s %-32s %14.4f %14.4f %+8.1f%% %7s  %s\n",
				pa.Workload, m.Name, va.Value, vb.Value, delta*100, bound, verdict)
		}
	}
	if rows == 0 {
		return fmt.Errorf("%s and %s share no pass", pathA, pathB)
	}
	if failures > 0 {
		return fmt.Errorf("%d of %d rows failed", failures, rows)
	}
	fmt.Fprintf(w, "%d rows, none failed\n", rows)
	return nil
}

func readResultSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set resultSet
	if err := json.Unmarshal(data, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &set, nil
}

func (s *resultSet) find(workload string, traced bool) *pass {
	for i := range s.Passes {
		if s.Passes[i].Workload == workload && s.Passes[i].Traced == traced {
			return &s.Passes[i]
		}
	}
	return nil
}

// meanCalib is the mean of the reference kernel's time over the set's passes.
func (s *resultSet) meanCalib() float64 {
	sum := 0.0
	for i := range s.Passes {
		sum += s.Passes[i].HostCalibMS
	}
	return sum / float64(max(len(s.Passes), 1))
}
