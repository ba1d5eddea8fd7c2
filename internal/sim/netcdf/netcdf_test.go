package netcdf

import (
	"errors"
	"fmt"
	"testing"

	"verifyio/internal/recorder"
	"verifyio/internal/sim/hdf5"
	"verifyio/internal/sim/mpiio"
	"verifyio/internal/sim/posixfs"
	"verifyio/internal/trace"
)

func newEnv(t *testing.T, n int) *recorder.Env {
	t.Helper()
	t.Cleanup(hdf5.ResetMetadata)
	return recorder.NewEnv(n, recorder.Options{FSMode: posixfs.ModePOSIX})
}

func TestDefineModeLifecycle(t *testing.T) {
	env := newEnv(t, 1)
	err := env.Run(func(r *recorder.Rank) error {
		f, err := CreatePar(r, r.Proc().CommWorld(), "n.nc", mpiio.DefaultConfig())
		if err != nil {
			return err
		}
		d, err := f.DefDim("x", 8)
		if err != nil {
			return err
		}
		v, err := f.DefVar("temp", "NC_BYTE", d)
		if err != nil {
			return err
		}
		// Data calls are rejected in define mode.
		if err := f.PutVarSchar(v, make([]byte, 8)); !errors.Is(err, ErrDefineMode) {
			return fmt.Errorf("put in define mode = %v", err)
		}
		if err := f.EndDef(); err != nil {
			return err
		}
		// Define calls are rejected in data mode.
		if _, err := f.DefDim("y", 2); err == nil {
			return errors.New("def_dim accepted in data mode")
		}
		if err := f.PutVarSchar(v, []byte("12345678")); err != nil {
			return err
		}
		got, err := f.GetVaraInt(v, []int64{0}, []int64{8})
		if err != nil {
			return err
		}
		if string(got) != "12345678" {
			return fmt.Errorf("read back %q", got)
		}
		return f.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPutVarWholeVariableCallChain(t *testing.T) {
	// The parallel5 mechanism: nc_put_var_schar → H5Dwrite →
	// MPI_File_write_at → pwrite, with the full chain on the POSIX record.
	env := newEnv(t, 1)
	err := env.Run(func(r *recorder.Rank) error {
		f, err := CreatePar(r, r.Proc().CommWorld(), "n.nc", mpiio.DefaultConfig())
		if err != nil {
			return err
		}
		d, _ := f.DefDim("x", 4)
		v, err := f.DefVar("v", "NC_BYTE", d)
		if err != nil {
			return err
		}
		if err := f.EndDef(); err != nil {
			return err
		}
		return f.PutVarSchar(v, []byte("abcd"))
	})
	if err != nil {
		t.Fatal(err)
	}
	var pw *trace.Record
	for _, rec := range env.Trace().Ranks[0] {
		rec := rec
		if rec.Func == "pwrite" {
			pw = &rec
		}
	}
	if pw == nil {
		t.Fatal("no pwrite")
	}
	wantChain := []string{"nc_put_var_schar", "H5Dwrite", "MPI_File_write_at"}
	chain := pw.Chain()
	if len(chain) != len(wantChain) {
		t.Fatalf("chain = %v", chain)
	}
	for i, fn := range wantChain {
		fr, err := trace.ParseFrame(chain[i])
		if err != nil || fr.Func != fn {
			t.Errorf("chain[%d] = %v, want %s", i, chain[i], fn)
		}
	}
}

func TestConcurrentPutVarWritesSameOffsets(t *testing.T) {
	// Two ranks both writing the whole variable → same offset, both write.
	env := newEnv(t, 2)
	err := env.Run(func(r *recorder.Rank) error {
		c := r.Proc().CommWorld()
		f, err := CreatePar(r, c, "p5.nc", mpiio.DefaultConfig())
		if err != nil {
			return err
		}
		d, _ := f.DefDim("x", 4)
		v, err := f.DefVar("v", "NC_BYTE", d)
		if err != nil {
			return err
		}
		if err := f.EndDef(); err != nil {
			return err
		}
		return f.PutVarSchar(v, []byte{byte('0' + r.Rank()), 'x', 'x', 'x'})
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := env.Trace()
	var offs []string
	for rank := 0; rank < 2; rank++ {
		for _, rec := range tr.Ranks[rank] {
			if rec.Func == "pwrite" {
				offs = append(offs, rec.Arg(2))
			}
		}
	}
	if len(offs) != 2 || offs[0] != offs[1] {
		t.Errorf("pwrite offsets = %v, want two writes to one offset", offs)
	}
}

func TestVaraSubarrayAndParAccess(t *testing.T) {
	env := newEnv(t, 2)
	err := env.Run(func(r *recorder.Rank) error {
		c := r.Proc().CommWorld()
		f, err := CreatePar(r, c, "v.nc", mpiio.DefaultConfig())
		if err != nil {
			return err
		}
		d, _ := f.DefDim("x", 8)
		v, err := f.DefVar("v", "NC_INT", d)
		if err != nil {
			return err
		}
		if err := f.EndDef(); err != nil {
			return err
		}
		if err := f.VarParAccess(v, true); err != nil {
			return err
		}
		me := int64(r.Rank())
		if err := f.PutVaraInt(v, []int64{me * 4}, []int64{4}, []byte(fmt.Sprintf("rk%d-", r.Rank()))); err != nil {
			return err
		}
		got, err := f.GetVaraInt(v, []int64{me * 4}, []int64{4})
		if err != nil {
			return err
		}
		if string(got) != fmt.Sprintf("rk%d-", r.Rank()) {
			return fmt.Errorf("vara read %q", got)
		}
		return f.Sync()
	})
	if err != nil {
		t.Fatal(err)
	}
	// nc_sync flushed through to MPI_File_sync.
	n := 0
	for _, rec := range env.Trace().Ranks[0] {
		if rec.Func == "MPI_File_sync" {
			n++
		}
	}
	if n != 1 {
		t.Errorf("MPI_File_sync records = %d, want 1", n)
	}
}

func TestDefVarValidation(t *testing.T) {
	env := newEnv(t, 1)
	err := env.Run(func(r *recorder.Rank) error {
		f, err := CreatePar(r, r.Proc().CommWorld(), "x.nc", mpiio.DefaultConfig())
		if err != nil {
			return err
		}
		if _, err := f.DefVar("bad", "NC_BYTE", 7); !errors.Is(err, ErrNotFound) {
			return fmt.Errorf("undefined dim = %v", err)
		}
		if _, err := f.DefVar("none", "NC_BYTE"); err == nil {
			return errors.New("0-dim var accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAttributes(t *testing.T) {
	env := newEnv(t, 2)
	err := env.Run(func(r *recorder.Rank) error {
		c := r.Proc().CommWorld()
		f, err := CreatePar(r, c, "att.nc", mpiio.DefaultConfig())
		if err != nil {
			return err
		}
		d, _ := f.DefDim("x", 4)
		v, err := f.DefVar("v", "NC_INT", d)
		if err != nil {
			return err
		}
		if err := f.EndDef(); err != nil {
			return err
		}
		// Collective attribute writes (rank 0 performs the metadata I/O).
		if err := f.PutAttText(nil, "title", []byte("demo")); err != nil {
			return err
		}
		if err := f.PutAttText(v, "units", []byte("m")); err != nil {
			return err
		}
		if err := r.Barrier(c); err != nil {
			return err
		}
		got, err := f.GetAttText(nil, "title")
		if err != nil || string(got) != "demo" {
			return fmt.Errorf("GetAttText = %q, %v", got, err)
		}
		if _, err := f.GetAttText(v, "missing"); err == nil {
			return errors.New("missing attribute read succeeded")
		}
		return f.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	// Only rank 0 issued the attribute's pwrite.
	tr := env.Trace()
	for rank := 0; rank < 2; rank++ {
		writes := 0
		for _, rec := range tr.Ranks[rank] {
			if rec.Func == "H5Awrite" {
				writes++
			}
		}
		if rank == 0 && writes != 2 {
			t.Errorf("rank 0 H5Awrite count = %d, want 2", writes)
		}
		if rank != 0 && writes != 0 {
			t.Errorf("rank %d H5Awrite count = %d, want 0", rank, writes)
		}
	}
}
