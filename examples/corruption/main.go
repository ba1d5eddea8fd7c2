// corruption: why improper synchronization matters — the silent data
// corruption the paper warns about (§V-C2), made visible.
//
// The same program runs twice on a simulated file system that provides
// MPI-IO consistency (writes stay invisible to other processes until an
// MPI_File_sync/close publishes them — how burst-buffer file systems
// behave):
//
//   - the improper variant (write / barrier / read) really reads stale
//     bytes: the barrier orders the processes in time, but time is not
//     visibility on a relaxed file system;
//   - the proper variant (write / sync / barrier / sync / read) reads the
//     data correctly.
//
// VerifyIO's verdict under the MPI-IO model predicts exactly this: the
// improper execution is flagged as a data race, the proper one is clean —
// without ever looking at the data.
package main

import (
	"bytes"
	"fmt"
	"log"

	"verifyio"
	"verifyio/internal/recorder"
	"verifyio/internal/sim/mpiio"
	"verifyio/internal/sim/posixfs"
)

const payload = "IMPORTANT-RESULT"

func program(withSync bool, got *[]byte) func(r *recorder.Rank) error {
	return func(r *recorder.Rank) error {
		comm := r.Proc().CommWorld()
		f, err := mpiio.Open(r, comm, "out.bin", mpiio.ModeRdwr|mpiio.ModeCreate, mpiio.Config{})
		if err != nil {
			return err
		}
		if r.Rank() == 0 {
			if err := f.WriteAt(0, []byte(payload)); err != nil {
				return err
			}
		}
		if withSync {
			if err := f.Sync(); err != nil { // collective MPI_File_sync
				return err
			}
		}
		if err := r.Barrier(comm); err != nil {
			return err
		}
		if withSync {
			if err := f.Sync(); err != nil {
				return err
			}
		}
		if r.Rank() == 1 {
			data, err := f.ReadAt(0, len(payload))
			if err != nil {
				return err
			}
			*got = data
		}
		// Keep the close (which also publishes) strictly after every
		// read, so the observed bytes depend only on the synchronization
		// pattern, not on scheduling luck.
		if err := r.Barrier(comm); err != nil {
			return err
		}
		return f.Close()
	}
}

func main() {
	for _, variant := range []struct {
		name     string
		withSync bool
	}{
		{"improper: write / barrier / read", false},
		{"proper:   write / sync / barrier / sync / read", true},
	} {
		// Run on a relaxed (MPI-IO consistency) file system and observe
		// what rank 1 actually reads.
		var got []byte
		env := recorder.NewEnv(2, recorder.Options{FSMode: posixfs.ModeMPIIO})
		if err := env.Run(program(variant.withSync, &got)); err != nil {
			log.Fatal(err)
		}
		ok := bytes.Equal(got, []byte(payload))
		fmt.Printf("== %s ==\n", variant.name)
		if ok {
			fmt.Printf("  rank 1 read %q  (correct)\n", got)
		} else {
			fmt.Printf("  rank 1 read %q  (STALE — silent corruption!)\n", got)
		}

		// VerifyIO predicts the outcome from the trace alone.
		var got2 []byte
		tr, err := verifyio.TraceProgram(2, verifyio.POSIX, program(variant.withSync, &got2))
		if err != nil {
			log.Fatal(err)
		}
		reps, err := verifyio.VerifyAll(tr, nil)
		if err != nil {
			log.Fatal(err)
		}
		for _, rep := range reps {
			if rep.Model == verifyio.MPIIO {
				fmt.Printf("  VerifyIO (MPI-IO model): %s\n\n", rep.Summary())
			}
		}
	}
	fmt.Println("The verdicts match the observed behaviour: the execution VerifyIO")
	fmt.Println("flags is the one that silently reads stale data on a relaxed file")
	fmt.Println("system, while both behave identically on strict POSIX.")
}
