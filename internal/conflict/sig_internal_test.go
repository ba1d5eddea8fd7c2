package conflict

import (
	"testing"

	"verifyio/internal/trace"
)

// TestSigInternHitAllocatesNothing: interning runs once per data operation,
// so a signature already in the table — whether it is the previous hit or
// found through the hash — must cost no allocation.
func TestSigInternHitAllocatesNothing(t *testing.T) {
	tab := newSigTable()
	chain := []string{"hdf5:H5Dwrite@a", "mpi-io:MPI_File_write_at@b"}
	write := Sig{Func: "pwrite", Layer: trace.LayerPOSIX, Site: "s", Chain: chain}
	read := Sig{Func: "pread", Layer: trace.LayerPOSIX, Site: "s", Chain: chain}
	w, r := tab.intern(write), tab.intern(read)
	if w == r {
		t.Fatal("distinct signatures share an index")
	}
	chain[0] = "scribbled" // the table cloned what it kept
	if got := tab.sigs[w].Chain[0]; got != "hdf5:H5Dwrite@a" {
		t.Fatalf("interned chain aliases the caller's slice: %q", got)
	}
	chain[0] = "hdf5:H5Dwrite@a"
	allocs := testing.AllocsPerRun(100, func() {
		if tab.intern(write) != w || // hash hit
			tab.intern(write) != w || // previous hit
			tab.intern(read) != r {
			t.Fatal("a hit returned a different index")
		}
	})
	if allocs != 0 {
		t.Errorf("three hits allocated %.0f times, want 0", allocs)
	}
}
