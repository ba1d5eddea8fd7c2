package verify

import (
	"testing"

	"verifyio/internal/recorder"
	"verifyio/internal/semantics"
	"verifyio/internal/sim/posixfs"
)

// The semantics framework is an extension point: models are data, and every
// model, built in or custom, takes the same witness-frontier MSC search.
// reference_test.go holds that search to a brute-force chain enumeration.

// doubleCommit is a synthetic stricter-than-commit model: two commit
// operations must separate conflicting accesses
// (-hb-> commit -hb-> commit -hb->), k = 3 edges.
func doubleCommit() semantics.Model {
	commit := semantics.OpClass{Name: "commit", Funcs: []string{"fsync", "fdatasync"}}
	return semantics.Model{
		Name:    "DoubleCommit",
		SyncSet: commit.Funcs,
		MSC: semantics.MSC{
			Edges: []semantics.EdgeKind{semantics.HB, semantics.HB, semantics.HB},
			Ops:   []semantics.OpClass{commit, commit},
		},
	}
}

// writerReader builds a trace where rank 0 writes, issues nSyncs fsyncs,
// both ranks barrier, rank 1 reads — or, readFirst, reads before the
// barrier, which leaves the pair racing under every model.
func writerReader(t *testing.T, nSyncs int, readFirst bool) *Analysis {
	t.Helper()
	env := recorder.NewEnv(2, recorder.Options{FSMode: posixfs.ModePOSIX})
	err := env.Run(func(r *recorder.Rank) error {
		c := r.Proc().CommWorld()
		fd, err := r.Open("f", posixfs.ORdwr|posixfs.OCreate)
		if err != nil {
			return err
		}
		if r.Rank() == 0 {
			if _, err := r.Pwrite(fd, []byte("data"), 0); err != nil {
				return err
			}
			for s := 0; s < nSyncs; s++ {
				if err := r.Fsync(fd); err != nil {
					return err
				}
			}
		}
		read := func() error {
			if r.Rank() == 1 {
				_, err := r.Pread(fd, 4, 0)
				return err
			}
			return nil
		}
		if readFirst {
			if err := read(); err != nil {
				return err
			}
		}
		if err := r.Barrier(c); err != nil {
			return err
		}
		if !readFirst {
			if err := read(); err != nil {
				return err
			}
		}
		return r.Close(fd)
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(env.Trace(), AlgoVectorClock, AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestCustomModelDoubleCommit(t *testing.T) {
	model := doubleCommit()
	cases := []struct {
		nSyncs    int
		wantRaces int64
	}{
		{0, 1}, // no commit at all
		{1, 1}, // one commit: enough for Commit, not for DoubleCommit
		{2, 0}, // two commits: satisfied
		{3, 0}, // more than enough
	}
	for _, tc := range cases {
		a := writerReader(t, tc.nSyncs, false)
		rep, err := a.Verify(Options{Model: model})
		if err != nil {
			t.Fatal(err)
		}
		if rep.RaceCount != tc.wantRaces {
			t.Errorf("nSyncs=%d: DoubleCommit races = %d, want %d",
				tc.nSyncs, rep.RaceCount, tc.wantRaces)
		}
		// Sanity: the ordinary Commit model is satisfied from 1 sync on.
		crep, err := a.Verify(Options{Model: semantics.CommitModel()})
		if err != nil {
			t.Fatal(err)
		}
		wantCommit := int64(1)
		if tc.nSyncs >= 1 {
			wantCommit = 0
		}
		if crep.RaceCount != wantCommit {
			t.Errorf("nSyncs=%d: Commit races = %d, want %d", tc.nSyncs, crep.RaceCount, wantCommit)
		}
	}
}

// TestCustomModelSearchCost holds a custom model's MSC search to the
// witness-frontier bound: O(P log C) probes per position class, not one
// per chain of candidates. With the read before the barrier no chain exists,
// so a search that enumerates chains tries every pair of fsyncs: 8× the
// fsyncs would cost ≈ 64× the probes; the frontier costs a few more binary
// search steps.
func TestCustomModelSearchCost(t *testing.T) {
	queries := func(nSyncs int) int64 {
		a := writerReader(t, nSyncs, true)
		rep, err := a.Verify(Options{Model: doubleCommit(), Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if rep.RaceCount != 1 {
			t.Fatalf("nSyncs=%d: %d races, want 1", nSyncs, rep.RaceCount)
		}
		return rep.HBQueries
	}
	q8, q64 := queries(8), queries(64)
	if q8 == 0 || q64 > 4*q8 {
		t.Errorf("HBQueries: %d at 8 fsyncs, %d at 64; want growth of at most 4×", q8, q64)
	}
}

// TestModelStrictnessOrdering checks the containment the framework implies:
// a relaxed-model MSC instance is built from hb/po chains, so any pair
// properly synchronized under a relaxed model is also properly synchronized
// under POSIX — POSIX races are a subset of every relaxed model's races.
func TestModelStrictnessOrdering(t *testing.T) {
	for _, nSyncs := range []int{0, 1, 2} {
		a := writerReader(t, nSyncs, false)
		reps, err := a.VerifyAll(semantics.All(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		posix := reps[0].RaceCount
		for _, rep := range reps[1:] {
			if posix > rep.RaceCount {
				t.Errorf("nSyncs=%d: POSIX races (%d) exceed %s races (%d)",
					nSyncs, posix, rep.Model, rep.RaceCount)
			}
		}
	}
}
