package corpus

import (
	"strings"
	"testing"

	"verifyio/internal/verify"
)

func TestCorpusShape(t *testing.T) {
	ts := Tests()
	if len(ts) != 91 {
		t.Fatalf("corpus has %d tests, want 91", len(ts))
	}
	perLib := map[string]int{}
	names := map[string]bool{}
	for _, tc := range ts {
		perLib[tc.Library]++
		if names[tc.Name] {
			t.Errorf("duplicate test name %q", tc.Name)
		}
		names[tc.Name] = true
		if tc.Ranks < 2 {
			t.Errorf("%s: ranks = %d, corpus tests are parallel", tc.Name, tc.Ranks)
		}
		if tc.Prog == nil {
			t.Errorf("%s: no program", tc.Name)
		}
	}
	if perLib["hdf5"] != 15 || perLib["netcdf"] != 17 || perLib["pnetcdf"] != 59 {
		t.Errorf("per-library counts = %v, want 15/17/59", perLib)
	}
}

func TestExpectedOutcomeCounts(t *testing.T) {
	// Table III's expectation, encoded in the corpus metadata.
	wantPOSIX := map[string]int{"hdf5": 3, "netcdf": 1, "pnetcdf": 2}
	wantRelaxed := map[string]int{"hdf5": 7, "netcdf": 9, "pnetcdf": 12}
	wantUnmatched := map[string]int{"pnetcdf": 3}
	gotP, gotR, gotU := map[string]int{}, map[string]int{}, map[string]int{}
	for _, tc := range Tests() {
		if tc.Expect.RacesPOSIX {
			gotP[tc.Library]++
		}
		if tc.Expect.RacesRelaxed {
			gotR[tc.Library]++
		}
		if tc.Expect.Unmatched {
			gotU[tc.Library]++
		}
	}
	for lib, n := range wantPOSIX {
		if gotP[lib] != n {
			t.Errorf("%s POSIX-racy = %d, want %d", lib, gotP[lib], n)
		}
	}
	for lib, n := range wantRelaxed {
		if gotR[lib] != n {
			t.Errorf("%s relaxed-racy = %d, want %d", lib, gotR[lib], n)
		}
	}
	for lib, n := range wantUnmatched {
		if gotU[lib] != n {
			t.Errorf("%s unmatched = %d, want %d", lib, gotU[lib], n)
		}
	}
	if Totals(gotP) != 6 || Totals(gotR) != 28 || Totals(gotU) != 3 {
		t.Errorf("totals POSIX/relaxed/unmatched = %d/%d/%d, want 6/28/3",
			Totals(gotP), Totals(gotR), Totals(gotU))
	}
}

// TestFullCorpusVerification is the evaluation's integration test: every
// test execution must match its expected Fig. 4 outcome.
func TestFullCorpusVerification(t *testing.T) {
	if testing.Short() {
		t.Skip("full corpus run skipped in -short mode")
	}
	rows := make([]*Row, 0, 91)
	for _, tc := range Tests() {
		tc := tc
		t.Run(tc.Name, func(t *testing.T) {
			row, err := Verify(tc, verify.AlgoVectorClock)
			if err != nil {
				t.Fatalf("pipeline: %v", err)
			}
			for _, dev := range row.Check() {
				t.Errorf("%s: %s", tc.Name, dev)
			}
			rows = append(rows, row)
		})
	}
	if t.Failed() || len(rows) != 91 {
		return
	}
	// Table III from the actual runs.
	s := Summarize(rows)
	if got := Totals(s.NotSynced[0]); got != 6 {
		t.Errorf("POSIX not-properly-synchronized total = %d, want 6", got)
	}
	for m := 1; m < 4; m++ {
		if got := Totals(s.NotSynced[m]); got != 28 {
			t.Errorf("relaxed model %d total = %d, want 28", m, got)
		}
	}
	if got := Totals(s.Unmatched); got != 3 {
		t.Errorf("unmatched total = %d, want 3", got)
	}
}

func TestByName(t *testing.T) {
	tc, err := ByName("flexible")
	if err != nil || tc.Library != "pnetcdf" {
		t.Fatalf("ByName(flexible) = %+v, %v", tc, err)
	}
	if _, err := ByName("no-such-test"); err == nil {
		t.Fatal("ByName accepted unknown test")
	}
	if len(Names()) != 91 {
		t.Errorf("Names() = %d entries", len(Names()))
	}
}

// TestNamedFindingsDetail spot-checks the §V findings on their named tests.
func TestNamedFindingsDetail(t *testing.T) {
	t.Run("parallel5 call chain blames nc_put_var_schar", func(t *testing.T) {
		tc, _ := ByName("parallel5")
		row, err := Verify(tc, verify.AlgoVectorClock)
		if err != nil {
			t.Fatal(err)
		}
		if row.Races[0] == 0 {
			t.Fatal("parallel5 must race under POSIX")
		}
		rep := row.Reports[0]
		if len(rep.Races) == 0 {
			t.Fatal("no race details")
		}
		chain := strings.Join(rep.Races[0].ChainX, " ")
		for _, fn := range []string{"nc_put_var_schar", "H5Dwrite", "MPI_File_write_at", "pwrite"} {
			if !strings.Contains(chain, fn) {
				t.Errorf("chain %q missing %s", chain, fn)
			}
		}
	})
	t.Run("flexible races trace to enddef fill vs aggregated write", func(t *testing.T) {
		tc, _ := ByName("flexible")
		row, err := Verify(tc, verify.AlgoVectorClock)
		if err != nil {
			t.Fatal(err)
		}
		if row.Races[0] != 0 {
			t.Errorf("flexible races under POSIX = %d, want 0", row.Races[0])
		}
		if row.Races[3] == 0 {
			t.Fatal("flexible must race under MPI-IO")
		}
		rep := row.Reports[3]
		sawEnddef, sawPut := false, false
		for _, race := range rep.Races {
			all := strings.Join(append(race.ChainX, race.ChainY...), " ")
			if strings.Contains(all, "ncmpi_enddef") {
				sawEnddef = true
			}
			if strings.Contains(all, "ncmpi_put_vara_all") {
				sawPut = true
			}
		}
		if !sawEnddef || !sawPut {
			t.Errorf("flexible races do not show enddef (%v) + put_vara_all (%v)", sawEnddef, sawPut)
		}
	})
	t.Run("i_vara_wait reports the write_at_all/write_all mismatch", func(t *testing.T) {
		tc, _ := ByName("i_vara_wait")
		row, err := Verify(tc, verify.AlgoVectorClock)
		if err != nil {
			t.Fatal(err)
		}
		if !row.Unmatched {
			t.Fatal("i_vara_wait must abort with unmatched MPI calls")
		}
		found := false
		for _, p := range row.Reports[0].Problems {
			if strings.Contains(p.Detail, "MPI_File_write_at_all") &&
				strings.Contains(p.Detail, "MPI_File_write_all") {
				found = true
			}
		}
		if !found {
			t.Errorf("problems do not name the mismatched collectives: %v", row.Reports[0].Problems)
		}
	})
	t.Run("shapesame produces the largest relaxed race count", func(t *testing.T) {
		tc, _ := ByName("shapesame")
		row, err := Verify(tc, verify.AlgoVectorClock)
		if err != nil {
			t.Fatal(err)
		}
		if row.Races[3] < 100 {
			t.Errorf("shapesame MPI-IO races = %d, want a large count", row.Races[3])
		}
	})
}

// TestAlgorithmsAgreeOnRepresentativeTests cross-validates the five
// happens-before algorithms on representative corpus executions (the paper
// runs at least two per experiment; property tests in internal/hbgraph
// cover random graphs).
func TestAlgorithmsAgreeOnRepresentativeTests(t *testing.T) {
	names := []string{"parallel5", "flexible", "shapesame", "tst_open_par", "record", "t_pflush"}
	algos := []verify.Algo{
		verify.AlgoVectorClock, verify.AlgoReachability,
		verify.AlgoOnTheFly, verify.AlgoSegment,
	}
	for _, name := range names {
		tc, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		var base *Row
		for _, algo := range algos {
			row, err := Verify(tc, algo)
			if err != nil {
				t.Fatalf("%s/%v: %v", name, algo, err)
			}
			if base == nil {
				base = row
				continue
			}
			if row.Unmatched != base.Unmatched || row.Races != base.Races {
				t.Errorf("%s: %v verdicts %v differ from vector-clock %v",
					name, algo, row.Races, base.Races)
			}
		}
	}
}
