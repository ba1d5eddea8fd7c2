package hdf5

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"verifyio/internal/recorder"
	"verifyio/internal/sim/mpiio"
	"verifyio/internal/sim/posixfs"
	"verifyio/internal/trace"
)

func newEnv(t *testing.T, n int, fsMode posixfs.Mode) *recorder.Env {
	t.Helper()
	t.Cleanup(ResetMetadata)
	return recorder.NewEnv(n, recorder.Options{FSMode: fsMode})
}

func TestDatasetRoundTrip1D(t *testing.T) {
	env := newEnv(t, 2, posixfs.ModePOSIX)
	err := env.Run(func(r *recorder.Rank) error {
		c := r.Proc().CommWorld()
		f, err := Create(r, c, "a.h5", mpiio.DefaultConfig())
		if err != nil {
			return err
		}
		ds, err := f.CreateDataset("d", 8)
		if err != nil {
			return err
		}
		me := int64(r.Rank())
		hs := Hyperslab{Start: []int64{me * 4}, Count: []int64{4}}
		if err := ds.Write(Independent, hs, []byte(fmt.Sprintf("wr%d.", r.Rank()))); err != nil {
			return err
		}
		if err := r.Barrier(c); err != nil {
			return err
		}
		got, err := ds.Read(Independent, hs)
		if err != nil {
			return err
		}
		if string(got) != fmt.Sprintf("wr%d.", r.Rank()) {
			return fmt.Errorf("read back %q", got)
		}
		return f.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	data, _ := env.FS().CommittedData("a.h5")
	if string(data[headerSize:headerSize+8]) != "wr0.wr1." {
		t.Errorf("dataset bytes = %q", data[headerSize:headerSize+8])
	}
}

func TestDataset2DHyperslabRows(t *testing.T) {
	env := newEnv(t, 1, posixfs.ModePOSIX)
	err := env.Run(func(r *recorder.Rank) error {
		f, err := Create(r, r.Proc().CommWorld(), "b.h5", mpiio.DefaultConfig())
		if err != nil {
			return err
		}
		ds, err := f.CreateDataset("m", 4, 6) // 4 rows x 6 cols
		if err != nil {
			return err
		}
		// Select a 2x3 block at (1,2): two non-contiguous row extents.
		hs := Hyperslab{Start: []int64{1, 2}, Count: []int64{2, 3}}
		if err := ds.Write(Independent, hs, []byte("ABCdef")); err != nil {
			return err
		}
		got, err := ds.Read(Independent, hs)
		if err != nil {
			return err
		}
		if string(got) != "ABCdef" {
			return fmt.Errorf("block read %q", got)
		}
		// Collective transfers reject non-contiguous selections.
		if err := ds.Write(Collective, hs, []byte("ABCdef")); err == nil {
			return errors.New("collective write accepted 2-row selection")
		}
		return f.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	// Row layout: row 1 cols 2..4 = ABC, row 2 cols 2..4 = def.
	data, _ := env.FS().CommittedData("b.h5")
	r1 := data[headerSize+1*6+2 : headerSize+1*6+5]
	r2 := data[headerSize+2*6+2 : headerSize+2*6+5]
	if string(r1) != "ABC" || string(r2) != "def" {
		t.Errorf("rows = %q %q", r1, r2)
	}
}

func TestSelectionBounds(t *testing.T) {
	env := newEnv(t, 1, posixfs.ModePOSIX)
	err := env.Run(func(r *recorder.Rank) error {
		f, err := Create(r, r.Proc().CommWorld(), "c.h5", mpiio.DefaultConfig())
		if err != nil {
			return err
		}
		ds, err := f.CreateDataset("d", 4)
		if err != nil {
			return err
		}
		if err := ds.Write(Independent, Hyperslab{Start: []int64{2}, Count: []int64{4}}, make([]byte, 4)); !errors.Is(err, ErrBounds) {
			return fmt.Errorf("out-of-bounds write = %v", err)
		}
		if err := ds.Write(Independent, Hyperslab{Start: []int64{0, 0}, Count: []int64{1, 1}}, make([]byte, 1)); !errors.Is(err, ErrBounds) {
			return fmt.Errorf("rank-mismatched selection = %v", err)
		}
		if err := ds.Write(Independent, ds.All(), []byte("xy")); !errors.Is(err, ErrBounds) {
			return fmt.Errorf("short buffer = %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicLayoutAcrossRanks(t *testing.T) {
	env := newEnv(t, 4, posixfs.ModePOSIX)
	err := env.Run(func(r *recorder.Rank) error {
		f, err := Create(r, r.Proc().CommWorld(), "d.h5", mpiio.DefaultConfig())
		if err != nil {
			return err
		}
		d1, err := f.CreateDataset("one", 16)
		if err != nil {
			return err
		}
		d2, err := f.CreateDataset("two", 16)
		if err != nil {
			return err
		}
		if d1.ext.off == d2.ext.off {
			return errors.New("datasets share an extent")
		}
		if d1.ext.off != headerSize || d2.ext.off != headerSize+16 {
			return fmt.Errorf("layout %d %d", d1.ext.off, d2.ext.off)
		}
		// Reopening by name resolves to the same extent.
		d1b, err := f.OpenDataset("one")
		if err != nil {
			return err
		}
		if d1b.ext.off != d1.ext.off {
			return errors.New("open resolved a different extent")
		}
		return f.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestOpenFileAndMissingObjects(t *testing.T) {
	env := newEnv(t, 1, posixfs.ModePOSIX)
	err := env.Run(func(r *recorder.Rank) error {
		c := r.Proc().CommWorld()
		f, err := Create(r, c, "e.h5", mpiio.DefaultConfig())
		if err != nil {
			return err
		}
		if _, err := f.CreateDataset("d", 4); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		f2, err := OpenFile(r, c, "e.h5", mpiio.DefaultConfig())
		if err != nil {
			return err
		}
		if _, err := f2.OpenDataset("d"); err != nil {
			return err
		}
		if _, err := f2.OpenDataset("nope"); !errors.Is(err, ErrNotFound) {
			return fmt.Errorf("missing dataset = %v", err)
		}
		if _, err := f2.OpenAttr("nope"); !errors.Is(err, ErrNotFound) {
			return fmt.Errorf("missing attr = %v", err)
		}
		return f2.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	// Opening a file that was never created as HDF5 fails.
	err = env.Run(func(r *recorder.Rank) error {
		_, err := OpenFile(r, r.Proc().CommWorld(), "never.h5", mpiio.DefaultConfig())
		return err
	})
	if err == nil {
		t.Fatal("OpenFile on non-HDF5 path succeeded")
	}
}

func TestAttrWriteTargetsHeaderArea(t *testing.T) {
	env := newEnv(t, 2, posixfs.ModePOSIX)
	err := env.Run(func(r *recorder.Rank) error {
		c := r.Proc().CommWorld()
		f, err := Create(r, c, "f.h5", mpiio.DefaultConfig())
		if err != nil {
			return err
		}
		a, err := f.CreateAttr("units", 8)
		if err != nil {
			return err
		}
		// Both ranks write the same attribute — the same-offset conflict
		// behind the HDF5 POSIX races.
		if err := a.Write([]byte("meters!!")); err != nil {
			return err
		}
		if err := r.Barrier(c); err != nil {
			return err
		}
		got, err := a.Read()
		if err != nil {
			return err
		}
		if string(got) != "meters!!" {
			return fmt.Errorf("attr read %q", got)
		}
		return f.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	// Both ranks' pwrites hit the same header offset.
	tr := env.Trace()
	offs := map[string]int{}
	for rank := 0; rank < 2; rank++ {
		for _, rec := range tr.Ranks[rank] {
			if rec.Func == "pwrite" {
				offs[rec.Arg(2)]++
			}
		}
	}
	if len(offs) != 1 {
		t.Errorf("attr pwrites at offsets %v, want one shared offset", offs)
	}
}

func TestFlushMapsToFileSync(t *testing.T) {
	env := newEnv(t, 1, posixfs.ModeMPIIO)
	err := env.Run(func(r *recorder.Rank) error {
		f, err := Create(r, r.Proc().CommWorld(), "g.h5", mpiio.DefaultConfig())
		if err != nil {
			return err
		}
		ds, err := f.CreateDataset("d", 4)
		if err != nil {
			return err
		}
		if err := ds.Write(Independent, ds.All(), []byte("data")); err != nil {
			return err
		}
		return f.Flush()
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := env.Trace()
	foundSync := false
	for _, rec := range tr.Ranks[0] {
		if rec.Func == "MPI_File_sync" {
			foundSync = true
			if chain := rec.Chain(); len(chain) != 1 {
				t.Errorf("MPI_File_sync chain = %v", chain)
			} else if fr, _ := trace.ParseFrame(chain[0]); fr.Func != "H5Fflush" {
				t.Errorf("MPI_File_sync caller = %v", chain[0])
			}
		}
	}
	if !foundSync {
		t.Fatal("H5Fflush did not issue MPI_File_sync")
	}
	// And the flush published the data on the MPI-IO-mode FS.
	data, err := env.FS().CommittedData("g.h5")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data[headerSize:headerSize+4], []byte("data")) {
		t.Errorf("committed dataset = %q", data[headerSize:headerSize+4])
	}
}

func TestAttrSlotValidation(t *testing.T) {
	env := newEnv(t, 1, posixfs.ModePOSIX)
	err := env.Run(func(r *recorder.Rank) error {
		f, err := Create(r, r.Proc().CommWorld(), "h.h5", mpiio.DefaultConfig())
		if err != nil {
			return err
		}
		if _, err := f.CreateAttr("too-big", attrSlot+1); err == nil {
			return errors.New("oversized attribute accepted")
		}
		a, err := f.CreateAttr("ok", 4)
		if err != nil {
			return err
		}
		if err := a.Write(make([]byte, 9)); !errors.Is(err, ErrBounds) {
			return fmt.Errorf("overlong attr write = %v", err)
		}
		return a.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}
