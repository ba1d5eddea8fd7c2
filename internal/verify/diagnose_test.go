package verify

import (
	"strings"
	"testing"

	"verifyio/internal/recorder"
	"verifyio/internal/semantics"
	"verifyio/internal/sim/mpiio"
	"verifyio/internal/sim/netcdf"
	"verifyio/internal/sim/pnetcdf"
	"verifyio/internal/sim/posixfs"
)

func analyzeProgram(t *testing.T, ranks int, prog func(r *recorder.Rank) error) *Analysis {
	t.Helper()
	env := recorder.NewEnv(ranks, recorder.Options{FSMode: posixfs.ModePOSIX})
	if err := env.Run(prog); err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(env.Trace(), AlgoVectorClock, AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func diagnoseModel(t *testing.T, a *Analysis, model semantics.Model) []Diagnosis {
	t.Helper()
	rep, err := a.Verify(Options{Model: model})
	if err != nil {
		t.Fatal(err)
	}
	return rep.Diagnose(model)
}

// TestDiagnoseUnorderedSameCall reproduces the parallel5 signature: the same
// high-level call writing the whole variable from every rank, no ordering.
func TestDiagnoseUnorderedSameCall(t *testing.T) {
	a := analyzeProgram(t, 2, func(r *recorder.Rank) error {
		comm := r.Proc().CommWorld()
		f, err := netcdf.CreatePar(r, comm, "p5.nc", mpiio.DefaultConfig())
		if err != nil {
			return err
		}
		d, _ := f.DefDim("x", 8)
		v, err := f.DefVar("v", "NC_BYTE", d)
		if err != nil {
			return err
		}
		if err := f.EndDef(); err != nil {
			return err
		}
		return f.PutVarSchar(v, make([]byte, 8))
	})
	ds := diagnoseModel(t, a, semantics.POSIXModel())
	if len(ds) == 0 {
		t.Fatal("no diagnoses")
	}
	d := ds[0]
	if d.Category != UnorderedConflict {
		t.Errorf("category = %v, want UnorderedConflict", d.Category)
	}
	if d.Responsible != "application" {
		t.Errorf("responsible = %s, want application", d.Responsible)
	}
	if !strings.Contains(d.Suggestion, "nc_put_var_schar") {
		t.Errorf("suggestion does not name the misused call: %s", d.Suggestion)
	}
}

// TestDiagnoseLibraryInternal reproduces the flexible signature: enddef
// fill vs aggregated flexible put — a library-internal conflict.
func TestDiagnoseLibraryInternal(t *testing.T) {
	a := analyzeProgram(t, 4, func(r *recorder.Rank) error {
		comm := r.Proc().CommWorld()
		f, err := pnetcdf.Create(r, comm, "flex.nc", mpiio.DefaultConfig())
		if err != nil {
			return err
		}
		d, _ := f.DefDim("x", 16)
		v, err := f.DefVar("v", "NC_INT", d)
		if err != nil {
			return err
		}
		if err := f.SetFill(true); err != nil {
			return err
		}
		if err := f.EndDef(); err != nil {
			return err
		}
		me := int64(r.Rank())
		return f.PutVaraAll(v, []int64{me * 4}, []int64{4}, make([]byte, 4))
	})
	defer pnetcdf.ResetMetadata()
	ds := diagnoseModel(t, a, semantics.MPIIOModel())
	if len(ds) == 0 {
		t.Fatal("no diagnoses")
	}
	found := false
	for _, d := range ds {
		if d.Category == LibraryInternalConflict {
			found = true
			if d.Responsible != "pnetcdf" {
				t.Errorf("responsible = %s, want pnetcdf", d.Responsible)
			}
			if !strings.Contains(d.Suggestion, "library") {
				t.Errorf("suggestion = %s", d.Suggestion)
			}
		}
	}
	if !found {
		t.Errorf("no library-internal diagnosis among %d races", len(ds))
	}
}

// TestDiagnoseMissingConstruct reproduces the Fig. 6 signature: ordered by
// a barrier, but missing the model's construct; each model gets its own
// advice.
func TestDiagnoseMissingConstruct(t *testing.T) {
	a := analyzeProgram(t, 2, func(r *recorder.Rank) error {
		comm := r.Proc().CommWorld()
		f, err := mpiio.Open(r, comm, "f", mpiio.ModeRdwr|mpiio.ModeCreate, mpiio.Config{})
		if err != nil {
			return err
		}
		if r.Rank() == 0 {
			if err := f.WriteAt(0, []byte("abcd")); err != nil {
				return err
			}
		}
		if err := r.Barrier(comm); err != nil {
			return err
		}
		if r.Rank() == 1 {
			if _, err := f.ReadAt(0, 4); err != nil {
				return err
			}
		}
		return f.Close()
	})
	wantHints := map[semantics.ID]string{
		semantics.Commit:  "fsync",
		semantics.Session: "close",
		semantics.MPIIO:   "MPI_File_sync",
	}
	for _, model := range semantics.All()[1:] {
		ds := diagnoseModel(t, a, model)
		if len(ds) != 1 {
			t.Fatalf("%s: %d diagnoses", model.Name, len(ds))
		}
		d := ds[0]
		if d.Category != MissingSyncConstruct {
			t.Errorf("%s: category = %v", model.Name, d.Category)
		}
		if d.Responsible != "application" {
			t.Errorf("%s: responsible = %s", model.Name, d.Responsible)
		}
		if hint := wantHints[model.ID]; !strings.Contains(d.Suggestion, hint) {
			t.Errorf("%s: suggestion %q missing %q", model.Name, d.Suggestion, hint)
		}
	}
}
