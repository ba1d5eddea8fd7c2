package pnetcdf

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"verifyio/internal/recorder"
	"verifyio/internal/sim/mpiio"
	"verifyio/internal/sim/posixfs"
	"verifyio/internal/trace"
)

func newEnv(n int) *recorder.Env {
	return recorder.NewEnv(n, recorder.Options{FSMode: posixfs.ModePOSIX})
}

func countFunc(tr *trace.Trace, rank int, fn string) int {
	n := 0
	for _, rec := range tr.Ranks[rank] {
		if rec.Func == fn {
			n++
		}
	}
	return n
}

func TestDefineAndDataModeRules(t *testing.T) {
	env := newEnv(1)
	err := env.Run(func(r *recorder.Rank) error {
		f, err := Create(r, r.Proc().CommWorld(), "a.nc", mpiio.DefaultConfig())
		if err != nil {
			return err
		}
		d, err := f.DefDim("x", 8)
		if err != nil {
			return err
		}
		v, err := f.DefVar("v", "NC_INT", d)
		if err != nil {
			return err
		}
		if err := f.PutVaraIntAll(v, []int64{0}, []int64{1}, []byte{1}); !errors.Is(err, ErrDefineMode) {
			return fmt.Errorf("put in define mode = %v", err)
		}
		if err := f.EndDef(); err != nil {
			return err
		}
		if _, err := f.DefDim("y", 2); !errors.Is(err, ErrDataMode) {
			return fmt.Errorf("def_dim in data mode = %v", err)
		}
		// Independent put requires independent data mode.
		if err := f.PutVaraInt(v, []int64{0}, []int64{2}, []byte("ab")); !errors.Is(err, ErrIndepMode) {
			return fmt.Errorf("independent put in collective mode = %v", err)
		}
		if err := f.BeginIndep(); err != nil {
			return err
		}
		if err := f.PutVaraInt(v, []int64{0}, []int64{2}, []byte("ab")); err != nil {
			return err
		}
		// Collective put rejected in independent mode.
		if err := f.PutVaraIntAll(v, []int64{0}, []int64{2}, []byte("ab")); !errors.Is(err, ErrIndepMode) {
			return fmt.Errorf("collective put in indep mode = %v", err)
		}
		if err := f.EndIndep(); err != nil {
			return err
		}
		return f.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestEndDefFillWritesDistinctPartitions(t *testing.T) {
	env := newEnv(4)
	err := env.Run(func(r *recorder.Rank) error {
		f, err := Create(r, r.Proc().CommWorld(), "fill.nc", mpiio.DefaultConfig())
		if err != nil {
			return err
		}
		d, _ := f.DefDim("x", 16)
		if _, err := f.DefVar("v", "NC_INT", d); err != nil {
			return err
		}
		if err := f.SetFill(true); err != nil {
			return err
		}
		if err := f.EndDef(); err != nil {
			return err
		}
		return f.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := env.Trace()
	// Each rank performed its own fill write (no view → no aggregation),
	// at distinct offsets; rank 0 additionally wrote the header at 0.
	offs := map[string]int{}
	for rank := 0; rank < 4; rank++ {
		want := 1
		if rank == 0 {
			want = 2 // header + fill
		}
		if n := countFunc(tr, rank, "pwrite"); n != want {
			t.Errorf("rank %d pwrites = %d, want %d", rank, n, want)
		}
		for _, rec := range tr.Ranks[rank] {
			if rec.Func == "pwrite" && rec.Arg(2) != "0" {
				offs[rec.Arg(2)]++
			}
		}
	}
	if len(offs) != 4 {
		t.Errorf("fill offsets = %v, want 4 distinct", offs)
	}
	// The file has 16 zero bytes at the variable's extent.
	size, _ := env.FS().CommittedSize("fill.nc")
	if size != headerBytes+16 {
		t.Errorf("file size = %d, want %d", size, headerBytes+16)
	}
	// enddef also issued the internal header-consistency allreduce.
	if countFunc(tr, 0, "MPI_Allreduce") != 1 {
		t.Error("enddef did not run the header-consistency allreduce")
	}
}

func TestFlexiblePutTriggersAggregation(t *testing.T) {
	// The flexible (§V-C1) mechanism: put_vara_all with an MPI datatype
	// sets the file view, arming collective buffering, so rank 0 performs
	// the entire write.
	env := newEnv(4)
	err := env.Run(func(r *recorder.Rank) error {
		f, err := Create(r, r.Proc().CommWorld(), "flex.nc", mpiio.DefaultConfig())
		if err != nil {
			return err
		}
		d, _ := f.DefDim("x", 8)
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
		return f.PutVaraAll(v, []int64{me * 2}, []int64{2}, []byte{byte('a' + r.Rank()), '!'})
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := env.Trace()
	// pwrites per rank: fill (1 each) + header and aggregated data write
	// (rank 0 only).
	if n := countFunc(tr, 0, "pwrite"); n != 3 {
		t.Errorf("rank 0 pwrites = %d, want 3 (header + fill + aggregated)", n)
	}
	for rank := 1; rank < 4; rank++ {
		if n := countFunc(tr, rank, "pwrite"); n != 1 {
			t.Errorf("rank %d pwrites = %d, want 1 (fill only)", rank, n)
		}
	}
	if countFunc(tr, 0, "MPI_File_set_view") != 1 {
		t.Error("flexible put did not set the file view")
	}
	data, _ := env.FS().CommittedData("flex.nc")
	if string(data[headerBytes:headerBytes+8]) != "a!b!c!d!" {
		t.Errorf("variable bytes = %q", data[headerBytes:headerBytes+8])
	}
}

func TestTypedPutsDoNotAggregate(t *testing.T) {
	// null_args mechanism: every rank's put_var1_text_all writes the same
	// location itself (no view, no aggregation).
	env := newEnv(3)
	err := env.Run(func(r *recorder.Rank) error {
		f, err := Create(r, r.Proc().CommWorld(), "n.nc", mpiio.DefaultConfig())
		if err != nil {
			return err
		}
		d, _ := f.DefDim("x", 4)
		v, err := f.DefVar("v", "NC_TEXT", d)
		if err != nil {
			return err
		}
		if err := f.EndDef(); err != nil {
			return err
		}
		return f.PutVar1TextAll(v, []int64{0}, byte('0'+r.Rank()))
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := env.Trace()
	offs := map[string]int{}
	for rank := 0; rank < 3; rank++ {
		want := 1
		if rank == 0 {
			want = 2 // header + data
		}
		if n := countFunc(tr, rank, "pwrite"); n != want {
			t.Errorf("rank %d pwrites = %d, want %d", rank, n, want)
		}
		for _, rec := range tr.Ranks[rank] {
			if rec.Func == "pwrite" && rec.Arg(2) != "0" {
				offs[rec.Arg(2)]++
			}
		}
	}
	if len(offs) != 1 {
		t.Errorf("data pwrite offsets = %v, want one shared location", offs)
	}
}

func TestNonblockingWaitAllUniformPath(t *testing.T) {
	env := newEnv(2)
	err := env.Run(func(r *recorder.Rank) error {
		f, err := Create(r, r.Proc().CommWorld(), "nb.nc", mpiio.DefaultConfig())
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
		me := int64(r.Rank())
		req, err := f.IputVara("int", v, []int64{me * 4}, []int64{4}, []byte(fmt.Sprintf("nb%d!", r.Rank())))
		if err != nil {
			return err
		}
		if req == "" {
			return errors.New("empty request id")
		}
		return f.WaitAll()
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := env.Trace()
	for rank := 0; rank < 2; rank++ {
		// Two write_at_all calls per rank: the enddef header write and
		// the wait_all completion.
		if countFunc(tr, rank, "MPI_File_write_at_all") != 2 {
			t.Errorf("rank %d: wait_all did not use write_at_all uniformly", rank)
		}
		if countFunc(tr, rank, "MPI_File_write_all") != 0 {
			t.Errorf("rank %d: wait_all used write_all", rank)
		}
	}
	data, _ := env.FS().CommittedData("nb.nc")
	if string(data[headerBytes:headerBytes+8]) != "nb0!nb1!" {
		t.Errorf("variable = %q", data[headerBytes:headerBytes+8])
	}
}

func TestBuggyWaitSplitsCollectivePaths(t *testing.T) {
	// §V-D: ncmpi_wait sends rank 0 down MPI_File_write_at_all and the
	// other ranks down MPI_File_write_all.
	env := newEnv(3)
	err := env.Run(func(r *recorder.Rank) error {
		f, err := Create(r, r.Proc().CommWorld(), "bug.nc", mpiio.DefaultConfig())
		if err != nil {
			return err
		}
		d, _ := f.DefDim("x", 6)
		v, err := f.DefVar("v", "NC_INT", d)
		if err != nil {
			return err
		}
		if err := f.EndDef(); err != nil {
			return err
		}
		me := int64(r.Rank())
		if _, err := f.IputVara("int", v, []int64{me * 2}, []int64{2}, []byte{byte('a' + r.Rank()), '.'}); err != nil {
			return err
		}
		return f.Wait()
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := env.Trace()
	// Every rank has one write_at_all from the enddef header write; the
	// buggy completion adds another on rank 0 and a write_all elsewhere.
	if countFunc(tr, 0, "MPI_File_write_at_all") != 2 || countFunc(tr, 0, "MPI_File_write_all") != 0 {
		t.Error("rank 0 should use write_at_all")
	}
	for rank := 1; rank < 3; rank++ {
		if countFunc(tr, rank, "MPI_File_write_all") != 1 || countFunc(tr, rank, "MPI_File_write_at_all") != 1 {
			t.Errorf("rank %d should use write_all for the completion", rank)
		}
	}
	// The data still lands correctly at runtime — the bug is a semantics
	// violation, not (on this system) a wrong result.
	data, _ := env.FS().CommittedData("bug.nc")
	if string(data[headerBytes:headerBytes+6]) != "a.b.c." {
		t.Errorf("variable = %q", data[headerBytes:headerBytes+6])
	}
}

func TestInqVaridAndAccessors(t *testing.T) {
	env := newEnv(1)
	err := env.Run(func(r *recorder.Rank) error {
		f, err := Create(r, r.Proc().CommWorld(), "q.nc", mpiio.DefaultConfig())
		if err != nil {
			return err
		}
		d, _ := f.DefDim("x", 5)
		v, err := f.DefVar("temp", "NC_INT", d)
		if err != nil {
			return err
		}
		if err := f.EndDef(); err != nil {
			return err
		}
		got, err := f.InqVarid("temp")
		if err != nil || got != v {
			return fmt.Errorf("InqVarid = %v, %v", got, err)
		}
		if _, err := f.InqVarid("nope"); !errors.Is(err, ErrNotFound) {
			return fmt.Errorf("missing var = %v", err)
		}
		if v.Name() != "temp" || v.Size() != 5 {
			return fmt.Errorf("accessors: %s %d", v.Name(), v.Size())
		}
		if len(f.Vars()) != 1 {
			return fmt.Errorf("vars = %d", len(f.Vars()))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSelectionValidation(t *testing.T) {
	env := newEnv(1)
	err := env.Run(func(r *recorder.Rank) error {
		f, err := Create(r, r.Proc().CommWorld(), "s.nc", mpiio.DefaultConfig())
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
		if err := f.PutVaraIntAll(v, []int64{3}, []int64{4}, make([]byte, 4)); err == nil {
			return errors.New("out-of-bounds put accepted")
		}
		if err := f.PutVaraIntAll(v, []int64{0, 0}, []int64{1, 1}, make([]byte, 1)); err == nil {
			return errors.New("rank-mismatched selection accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRedefReentersDefineMode(t *testing.T) {
	env := newEnv(1)
	err := env.Run(func(r *recorder.Rank) error {
		f, err := Create(r, r.Proc().CommWorld(), "rd.nc", mpiio.DefaultConfig())
		if err != nil {
			return err
		}
		d, _ := f.DefDim("x", 2)
		if _, err := f.DefVar("a", "NC_INT", d); err != nil {
			return err
		}
		if err := f.EndDef(); err != nil {
			return err
		}
		if err := f.Redef(); err != nil {
			return err
		}
		if _, err := f.DefVar("b", "NC_INT", d); err != nil {
			return err
		}
		if err := f.EndDef(); err != nil {
			return err
		}
		vs := f.Vars()
		if len(vs) != 2 || vs[0].off == vs[1].off {
			return fmt.Errorf("layout after redef: %+v", vs)
		}
		return f.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAttributesAndHeader(t *testing.T) {
	env := newEnv(2)
	err := env.Run(func(r *recorder.Rank) error {
		comm := r.Proc().CommWorld()
		f, err := Create(r, comm, "attr.nc", mpiio.DefaultConfig())
		if err != nil {
			return err
		}
		d, _ := f.DefDim("x", 4)
		v, err := f.DefVar("v", "NC_INT", d)
		if err != nil {
			return err
		}
		if err := f.PutAttText(nil, "title", []byte("demo")); err != nil {
			return err
		}
		if err := f.PutAttText(v, "units", []byte("K")); err != nil {
			return err
		}
		// Re-put overwrites.
		if err := f.PutAttText(nil, "title", []byte("demo2")); err != nil {
			return err
		}
		if err := f.EndDef(); err != nil {
			return err
		}
		// put_att outside define mode is rejected.
		if err := f.PutAttText(nil, "late", []byte("x")); !errors.Is(err, ErrDataMode) {
			return fmt.Errorf("late put_att = %v", err)
		}
		got, err := f.GetAttText(nil, "title")
		if err != nil || string(got) != "demo2" {
			return fmt.Errorf("GetAttText = %q, %v", got, err)
		}
		if _, err := f.GetAttText(v, "missing"); !errors.Is(err, ErrNotFound) {
			return fmt.Errorf("missing att = %v", err)
		}
		return f.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	// Rank 0 wrote the header at offset 0 ("CDF5" magic + entries).
	data, err := env.FS().CommittedData("attr.nc")
	if err != nil {
		t.Fatal(err)
	}
	head := string(data)
	if int64(len(head)) > headerBytes {
		head = head[:headerBytes]
	}
	for _, want := range []string{"CDF5", "d:x=4", "v:v@1024", `a:-1/title="demo2"`, `a:0/units="K"`} {
		if !strings.Contains(head, want) {
			t.Errorf("header missing %q:\n%s", want, head)
		}
	}
	// Only rank 0 performed the header pwrite.
	tr := env.Trace()
	headerWrites := 0
	for rank := 0; rank < 2; rank++ {
		for _, rec := range tr.Ranks[rank] {
			if rec.Func == "pwrite" && rec.Arg(2) == "0" {
				headerWrites++
				if rank != 0 {
					t.Errorf("rank %d wrote the header", rank)
				}
			}
		}
	}
	if headerWrites != 1 {
		t.Errorf("header writes = %d, want 1", headerWrites)
	}
}

func TestOpenReadsHeaderAndRecoversAttrs(t *testing.T) {
	env := newEnv(2)
	err := env.Run(func(r *recorder.Rank) error {
		comm := r.Proc().CommWorld()
		f, err := Create(r, comm, "hdr.nc", mpiio.DefaultConfig())
		if err != nil {
			return err
		}
		d, _ := f.DefDim("x", 4)
		if _, err := f.DefVar("v", "NC_INT", d); err != nil {
			return err
		}
		if err := f.PutAttText(nil, "run", []byte("42")); err != nil {
			return err
		}
		if err := f.EndDef(); err != nil {
			return err
		}
		if err := f.Sync(); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		if err := r.Barrier(comm); err != nil {
			return err
		}
		f2, err := Open(r, comm, "hdr.nc", mpiio.DefaultConfig())
		if err != nil {
			return err
		}
		got, err := f2.GetAttText(nil, "run")
		if err != nil || string(got) != "42" {
			return fmt.Errorf("recovered att = %q, %v", got, err)
		}
		return f2.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every rank read the header region at open.
	tr := env.Trace()
	for rank := 0; rank < 2; rank++ {
		found := false
		for _, rec := range tr.Ranks[rank] {
			if rec.Func == "pread" && rec.Arg(2) == "0" && rec.Arg(1) == fmt.Sprint(headerBytes) {
				found = true
			}
		}
		if !found {
			t.Errorf("rank %d did not read the header at open", rank)
		}
	}
	defer ResetMetadata()
}
