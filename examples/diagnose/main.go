// diagnose: the automated root-cause analysis of §V, over the three
// categories of consistency violation the paper identifies.
//
// Three buggy programs run through the pipeline; for each, the diagnosis
// answers the paper's central debugging questions — is the application or
// the library responsible, and what is the fix?
//
//  1. parallel5-style: every rank writes the whole variable through
//     nc_put_var_schar — unordered conflict, application must fix.
//  2. shapesame-style: H5Dwrite / barrier / H5Dread — the ordering exists
//     but the MPI-IO construct is missing; the application adds
//     H5Fflush (MPI_File_sync) around the barrier.
//  3. flexible-style: enddef fill vs aggregated collective write —
//     library-internal I/O; only the library can fix it.
package main

import (
	"fmt"
	"log"

	"verifyio"
	"verifyio/internal/sim/hdf5"
	"verifyio/internal/sim/mpiio"
	"verifyio/internal/sim/netcdf"
	"verifyio/internal/sim/pnetcdf"
)

func main() {
	scenarios := []struct {
		name  string
		ranks int
		model verifyio.Model
		prog  func(r *verifyio.Rank) error
	}{
		{"whole-variable writes from every rank (parallel5)", 2, verifyio.POSIX, parallel5Style},
		{"write / barrier / read without flush (shapesame)", 2, verifyio.MPIIO, shapesameStyle},
		{"fill vs aggregated flexible write (flexible)", 4, verifyio.MPIIO, flexibleStyle},
	}
	for _, sc := range scenarios {
		hdf5.ResetMetadata()
		pnetcdf.ResetMetadata()
		tr, err := verifyio.TraceProgram(sc.ranks, verifyio.POSIX, sc.prog)
		if err != nil {
			log.Fatal(err)
		}
		reps, err := verifyio.VerifyAll(tr, nil)
		if err != nil {
			log.Fatal(err)
		}
		for _, rep := range reps {
			if rep.Model != sc.model {
				continue
			}
			fmt.Printf("== %s ==\n", sc.name)
			fmt.Printf("   verdict under %s: %s\n", sc.model, rep.Summary())
			if diagnoses := rep.Diagnose(); len(diagnoses) > 0 {
				d := diagnoses[0]
				fmt.Printf("   category:    %s\n", d.Category)
				fmt.Printf("   responsible: %s\n", d.Responsible)
				fmt.Printf("   fix:         %s\n", d.Suggestion)
			}
			fmt.Println()
		}
	}
}

func parallel5Style(r *verifyio.Rank) error {
	comm := r.Proc().CommWorld()
	f, err := netcdf.CreatePar(r, comm, "p5.nc", mpiio.DefaultConfig())
	if err != nil {
		return err
	}
	d, err := f.DefDim("x", 16)
	if err != nil {
		return err
	}
	v, err := f.DefVar("v", "NC_BYTE", d)
	if err != nil {
		return err
	}
	if err := f.EndDef(); err != nil {
		return err
	}
	if err := f.PutVarSchar(v, make([]byte, 16)); err != nil {
		return err
	}
	return f.Close()
}

func shapesameStyle(r *verifyio.Rank) error {
	comm := r.Proc().CommWorld()
	f, err := hdf5.Create(r, comm, "s.h5", mpiio.DefaultConfig())
	if err != nil {
		return err
	}
	ds, err := f.CreateDataset("d", int64(comm.Size())*8)
	if err != nil {
		return err
	}
	me := int64(r.Rank())
	own := hdf5.Hyperslab{Start: []int64{me * 8}, Count: []int64{8}}
	if err := ds.Write(hdf5.Independent, own, make([]byte, 8)); err != nil {
		return err
	}
	if err := r.Barrier(comm); err != nil {
		return err
	}
	other := hdf5.Hyperslab{Start: []int64{(me + 1) % int64(comm.Size()) * 8}, Count: []int64{8}}
	if _, err := ds.Read(hdf5.Independent, other); err != nil {
		return err
	}
	return f.Close()
}

func flexibleStyle(r *verifyio.Rank) error {
	comm := r.Proc().CommWorld()
	f, err := pnetcdf.Create(r, comm, "flex.nc", mpiio.DefaultConfig())
	if err != nil {
		return err
	}
	d, err := f.DefDim("x", 16)
	if err != nil {
		return err
	}
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
}
