package conflict

import (
	"fmt"
	"slices"
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

// TestRankSigsByContext: the replay finds a record's signature by (Func,
// Layer, Ctx pointer) without allocating on a hit, and two contexts with
// equal contents — records whose contexts were not interned together — end
// up with one signature in the Result.
func TestRankSigsByContext(t *testing.T) {
	var tab rankSigs
	ctx := trace.NewContext([]string{"mpi-io:MPI_File_write_at@b"}, "s")
	twin := trace.NewContext([]string{"mpi-io:MPI_File_write_at@b"}, "s")
	write := trace.Record{Func: "pwrite", Layer: trace.LayerPOSIX, Ctx: ctx}
	read := trace.Record{Func: "pread", Layer: trace.LayerPOSIX, Ctx: ctx}
	bare := trace.Record{Func: "pwrite", Layer: trace.LayerPOSIX}
	w, r, b := tab.intern(&write), tab.intern(&read), tab.intern(&bare)
	if w == r || w == b || r == b {
		t.Fatalf("distinct signatures share an index: %d %d %d", w, r, b)
	}
	if sg := tab.sigs[w]; sg.Func != "pwrite" || sg.Site != "s" || len(sg.Chain) != 1 || sg.Chain[0] != ctx.Chain[0] {
		t.Fatalf("signature %d = %+v", w, sg)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if tab.intern(&write) != w || // map hit
			tab.intern(&write) != w || // previous hit
			tab.intern(&read) != r {
			t.Fatal("a hit returned a different index")
		}
	})
	if allocs != 0 {
		t.Errorf("three hits allocated %.0f times, want 0", allocs)
	}

	tr := trace.New(1)
	tr.Append(trace.Record{Rank: 0, Func: "open", Layer: trace.LayerPOSIX, Args: []string{"f", "rw", "3"}, Tick: 1, Ret: 2})
	for i, c := range []*trace.Context{ctx, twin, ctx} {
		tr.Append(trace.Record{Rank: 0, Func: "pwrite", Layer: trace.LayerPOSIX, Ctx: c,
			Args: []string{"3", "8", fmt.Sprint(8 * i)}, Tick: int64(3 + 2*i), Ret: int64(4 + 2*i)})
	}
	res, err := Detect(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sigs) != 1 || !slices.Equal(res.OpSig, []int32{0, 0, 0}) {
		t.Errorf("three pwrites under equal contexts: signatures %+v, indices %v", res.Sigs, res.OpSig)
	}
}
