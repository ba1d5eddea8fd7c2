package verify

import (
	"testing"

	"verifyio/internal/recorder"
	"verifyio/internal/semantics"
	"verifyio/internal/sim/posixfs"
)

// The semantics framework is an extension point: models are data. These
// tests exercise the generic MSC search (mscDFS) that custom models use,
// and cross-validate it against the Table I fast paths.

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
// both ranks barrier, rank 1 reads.
func writerReader(t *testing.T, nSyncs int) *Analysis {
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
		if err := r.Barrier(c); err != nil {
			return err
		}
		if r.Rank() == 1 {
			if _, err := r.Pread(fd, 4, 0); err != nil {
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
		a := writerReader(t, tc.nSyncs)
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

// TestGenericDFSAgreesWithFastPaths forces the generic MSC search on the
// built-in models and checks it reproduces the fast-path verdicts on
// representative executions.
func TestGenericDFSAgreesWithFastPaths(t *testing.T) {
	for _, nSyncs := range []int{0, 1} {
		a := writerReader(t, nSyncs)
		for _, model := range semantics.All() {
			fast, err := a.Verify(Options{Model: model})
			if err != nil {
				t.Fatal(err)
			}
			slow, err := a.Verify(Options{Model: model, DisableFastPaths: true})
			if err != nil {
				t.Fatal(err)
			}
			if fast.RaceCount != slow.RaceCount {
				t.Errorf("nSyncs=%d %s: fast path %d races, generic DFS %d",
					nSyncs, model.Name, fast.RaceCount, slow.RaceCount)
			}
		}
	}
}

// TestGenericDFSAgreesOnSessionPattern covers the PO-edged shapes through
// the generic search: a close→barrier→open pattern that is session-clean.
func TestGenericDFSAgreesOnSessionPattern(t *testing.T) {
	env := recorder.NewEnv(2, recorder.Options{FSMode: posixfs.ModePOSIX})
	err := env.Run(func(r *recorder.Rank) error {
		c := r.Proc().CommWorld()
		if r.Rank() == 0 {
			fd, err := r.Open("s", posixfs.OWronly|posixfs.OCreate)
			if err != nil {
				return err
			}
			if _, err := r.Pwrite(fd, []byte("x"), 0); err != nil {
				return err
			}
			if err := r.Close(fd); err != nil {
				return err
			}
		}
		if err := r.Barrier(c); err != nil {
			return err
		}
		if r.Rank() == 1 {
			fd, err := r.Open("s", posixfs.ORdonly)
			if err != nil {
				return err
			}
			if _, err := r.Pread(fd, 1, 0); err != nil {
				return err
			}
			return r.Close(fd)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(env.Trace(), AlgoVectorClock, AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, disable := range []bool{false, true} {
		rep, err := a.Verify(Options{Model: semantics.SessionModel(), DisableFastPaths: disable})
		if err != nil {
			t.Fatal(err)
		}
		if rep.RaceCount != 0 {
			t.Errorf("disableFastPaths=%v: session races = %d, want 0", disable, rep.RaceCount)
		}
	}
}

// TestModelStrictnessOrdering checks the containment the framework implies:
// a relaxed-model MSC instance is built from hb/po chains, so any pair
// properly synchronized under a relaxed model is also properly synchronized
// under POSIX — POSIX races are a subset of every relaxed model's races.
func TestModelStrictnessOrdering(t *testing.T) {
	for _, nSyncs := range []int{0, 1, 2} {
		a := writerReader(t, nSyncs)
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
