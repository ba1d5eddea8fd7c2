// hdf5-race: the paper's Fig. 6 — improperly vs properly synchronized HDF5
// code under MPI-IO semantics.
//
// The improper variant is the recurring pattern found in HDF5's own tests
// (shapesame, testphdf5): H5Dwrite, MPI_Barrier, H5Dread. The barrier
// establishes temporal order, which is enough only on POSIX file systems;
// MPI-IO semantics requires the sync-barrier-sync construct, so the data
// returned by H5Dread is undefined on weaker systems.
//
// The proper variant inserts H5Fflush (→ MPI_File_sync) on both sides of
// the barrier, exactly the fix the paper's Fig. 6 shows.
package main

import (
	"fmt"
	"log"

	"verifyio"
	"verifyio/internal/sim/hdf5"
	"verifyio/internal/sim/mpiio"
)

func pattern(withFlush bool) func(r *verifyio.Rank) error {
	return func(r *verifyio.Rank) error {
		comm := r.Proc().CommWorld()
		f, err := hdf5.Create(r, comm, "dset.h5", mpiio.DefaultConfig())
		if err != nil {
			return err
		}
		ds, err := f.CreateDataset("d", int64(comm.Size())*8)
		if err != nil {
			return err
		}
		me := int64(r.Rank())
		own := hdf5.Hyperslab{Start: []int64{me * 8}, Count: []int64{8}}
		if err := ds.Write(hdf5.Independent, own, []byte(fmt.Sprintf("rank%04d", r.Rank()))); err != nil {
			return err
		}
		if withFlush {
			if err := f.Flush(); err != nil { // H5Fflush → MPI_File_sync
				return err
			}
		}
		if err := r.Barrier(comm); err != nil {
			return err
		}
		if withFlush {
			if err := f.Flush(); err != nil {
				return err
			}
		}
		neighbour := (me + 1) % int64(comm.Size())
		other := hdf5.Hyperslab{Start: []int64{neighbour * 8}, Count: []int64{8}}
		if _, err := ds.Read(hdf5.Independent, other); err != nil {
			return err
		}
		return f.Close()
	}
}

func main() {
	for _, variant := range []struct {
		name      string
		withFlush bool
	}{
		{"improper (write / barrier / read)", false},
		{"proper   (write / flush / barrier / flush / read)", true},
	} {
		hdf5.ResetMetadata()
		tr, err := verifyio.TraceProgram(4, verifyio.POSIX, pattern(variant.withFlush))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("== %s ==\n", variant.name)
		reps, err := verifyio.VerifyAll(tr, nil)
		if err != nil {
			log.Fatal(err)
		}
		for _, rep := range reps {
			if rep.Model != verifyio.POSIX && rep.Model != verifyio.MPIIO {
				continue
			}
			fmt.Printf("  %s\n", rep.Summary())
			if rep.RaceCount > 0 && len(rep.Races) > 0 {
				race := rep.Races[0]
				fmt.Printf("    e.g. rank %d %s vs rank %d %s on %s\n",
					race.RankX, race.FuncX, race.RankY, race.FuncY, race.File)
			}
		}
		fmt.Println()
	}
	fmt.Println("The flush calls invoke MPI_File_sync, completing the")
	fmt.Println("sync-barrier-sync construct that MPI-IO consistency requires.")
}
