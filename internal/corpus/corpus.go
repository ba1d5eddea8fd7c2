// Package corpus holds the 91 test-case executions of the evaluation (§V):
// 15 HDF5, 17 NetCDF, and 59 PnetCDF programs written against the simulated
// I/O libraries, each with its expected verification outcome. The corpus
// reproduces the shape of Fig. 4 and Table III:
//
//   - 6 tests are not properly synchronized even under POSIX
//     (3 HDF5, 1 NetCDF, 2 PnetCDF — including the paper's parallel5,
//     null_args and test_erange);
//   - 28 tests are not properly synchronized under the relaxed models, with
//     the Commit, Session and MPI-IO columns identical (7 HDF5, 9 NetCDF,
//     12 PnetCDF — including flexible and the shapesame pattern);
//   - 3 PnetCDF executions abort verification with unmatched MPI calls
//     (collective_error plus two executions of the ncmpi_wait
//     implementation bug) — the gray rows.
//
// Workload sizes are scaled down from the paper's runs (§V reports hundreds
// of millions of conflicts on Lassen); EXPERIMENTS.md records the scale
// factor per experiment.
package corpus

import (
	"fmt"
	"sort"

	"verifyio/internal/recorder"
	"verifyio/internal/semantics"
	"verifyio/internal/sim/hdf5"
	"verifyio/internal/sim/pnetcdf"
	"verifyio/internal/sim/posixfs"
	"verifyio/internal/trace"
	"verifyio/internal/verify"
)

// Test is one corpus entry.
type Test struct {
	// Name is the test-case name (the paper's tests keep their original
	// names).
	Name string
	// Library is "hdf5", "netcdf" or "pnetcdf".
	Library string
	// Ranks is the MPI world size the test runs with.
	Ranks int
	// Prog is the test program.
	Prog func(r *recorder.Rank) error
	// Expect is the expected verification outcome.
	Expect Expect
}

// Expect is a test's expected outcome across the four models.
type Expect struct {
	// Unmatched: verification aborts with unmatched MPI calls (gray row).
	Unmatched bool
	// RacesPOSIX: data races under POSIX consistency.
	RacesPOSIX bool
	// RacesRelaxed: data races under Commit, Session and MPI-IO (the
	// three relaxed columns are identical across the corpus, matching
	// the paper's observation).
	RacesRelaxed bool
}

// Tests returns the full corpus: 15 HDF5 + 17 NetCDF + 59 PnetCDF = 91.
func Tests() []Test {
	var out []Test
	out = append(out, hdf5Tests()...)
	out = append(out, netcdfTests()...)
	out = append(out, pnetcdfTests()...)
	return out
}

// ByName returns the named test.
func ByName(name string) (Test, error) {
	for _, t := range Tests() {
		if t.Name == name {
			return t, nil
		}
	}
	return Test{}, fmt.Errorf("corpus: no test named %q", name)
}

// Names lists all test names, grouped by library in corpus order.
func Names() []string {
	ts := Tests()
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.Name
	}
	return out
}

// Run executes the test under Recorder⁺ on a strict-POSIX file system (the
// paper traces on GPFS) and returns the trace.
func Run(t Test) (*trace.Trace, error) {
	defer hdf5.ResetMetadata()
	defer pnetcdf.ResetMetadata()
	env := recorder.NewEnv(t.Ranks, recorder.Options{FSMode: posixfs.ModePOSIX})
	if err := env.Run(t.Prog); err != nil {
		return nil, fmt.Errorf("corpus: %s: %w", t.Name, err)
	}
	tr := env.Trace()
	tr.Meta["program"] = t.Name
	tr.Meta["library"] = t.Library
	return tr, nil
}

// Row is one line of Fig. 4: a test's race counts under the four models.
type Row struct {
	Test      Test
	Unmatched bool
	Conflicts int64
	// Races is indexed like semantics.All(): POSIX, Commit, Session,
	// MPI-IO. Zero-valued when Unmatched.
	Races [4]int64
	// Reports are the underlying verification reports (same order).
	Reports []*verify.Report
}

// Verify runs the full pipeline on one test against all four models.
func Verify(t Test, algo verify.Algo) (*Row, error) {
	return VerifyOpts(t, algo, verify.Options{})
}

// VerifyOpts is Verify with explicit verification options (opts.Model is
// set per model pass; opts.Workers > 1 verifies groups and models in
// parallel).
func VerifyOpts(t Test, algo verify.Algo, opts verify.Options) (*Row, error) {
	tr, err := Run(t)
	if err != nil {
		return nil, err
	}
	if opts.Cache != nil && opts.CacheID == "" {
		// Name the verdict-cache manifest after the corpus test so warm
		// reruns of the same test find their incremental baseline.
		opts.CacheID = "corpus/" + t.Name
	}
	a, err := verify.Analyze(tr, algo, verify.AnalyzeOptions{Workers: opts.Workers, Digest: opts.Cache != nil, Obs: opts.Obs})
	if err != nil {
		return nil, fmt.Errorf("corpus: %s: %w", t.Name, err)
	}
	reps, err := a.VerifyAll(semantics.All(), opts)
	if err != nil {
		return nil, fmt.Errorf("corpus: %s: %w", t.Name, err)
	}
	row := &Row{Test: t, Conflicts: a.Conflicts.Pairs, Reports: reps}
	for i, rep := range reps {
		if !rep.Verified {
			row.Unmatched = true
			break
		}
		row.Races[i] = rep.RaceCount
	}
	return row, nil
}

// Check compares a row against the test's expectation, returning a
// description of every deviation.
func (r *Row) Check() []string {
	var bad []string
	e := r.Test.Expect
	if r.Unmatched != e.Unmatched {
		bad = append(bad, fmt.Sprintf("unmatched = %v, want %v", r.Unmatched, e.Unmatched))
		return bad
	}
	if r.Unmatched {
		return nil
	}
	if got := r.Races[0] > 0; got != e.RacesPOSIX {
		bad = append(bad, fmt.Sprintf("POSIX races = %d, want racy=%v", r.Races[0], e.RacesPOSIX))
	}
	for i, name := range []string{"Commit", "Session", "MPI-IO"} {
		if got := r.Races[i+1] > 0; got != e.RacesRelaxed {
			bad = append(bad, fmt.Sprintf("%s races = %d, want racy=%v", name, r.Races[i+1], e.RacesRelaxed))
		}
	}
	// The paper's observation: the three relaxed columns are identical.
	if r.Races[1] != r.Races[2] || r.Races[2] != r.Races[3] {
		bad = append(bad, fmt.Sprintf("relaxed columns differ: %d/%d/%d", r.Races[1], r.Races[2], r.Races[3]))
	}
	// Model strictness: a relaxed-model MSC instance is a happens-before
	// chain, so POSIX races are a subset of every relaxed model's races.
	for i := 1; i < 4; i++ {
		if r.Races[0] > r.Races[i] {
			bad = append(bad, fmt.Sprintf("POSIX races (%d) exceed model %d races (%d)", r.Races[0], i, r.Races[i]))
		}
	}
	return bad
}

// Summary aggregates rows into Table III: tests not properly synchronized
// per library per model, plus the total.
type Summary struct {
	// NotSynced[model][library] counts improperly synchronized tests;
	// libraries are "hdf5", "netcdf", "pnetcdf", models index
	// semantics.All().
	NotSynced [4]map[string]int
	// Unmatched counts gray rows per library.
	Unmatched map[string]int
	// TestsPerLibrary counts corpus entries per library.
	TestsPerLibrary map[string]int
}

// Summarize builds Table III from Fig. 4 rows.
func Summarize(rows []*Row) *Summary {
	s := &Summary{Unmatched: map[string]int{}, TestsPerLibrary: map[string]int{}}
	for i := range s.NotSynced {
		s.NotSynced[i] = map[string]int{}
	}
	for _, row := range rows {
		lib := row.Test.Library
		s.TestsPerLibrary[lib]++
		if row.Unmatched {
			s.Unmatched[lib]++
			continue
		}
		for m := 0; m < 4; m++ {
			if row.Races[m] > 0 {
				s.NotSynced[m][lib]++
			}
		}
	}
	return s
}

// Libraries returns the corpus libraries in the paper's order.
func Libraries() []string { return []string{"hdf5", "netcdf", "pnetcdf"} }

// Totals sums a per-library count map.
func Totals(m map[string]int) int {
	total := 0
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		total += m[k]
	}
	return total
}
