package mpiio

import (
	"errors"
	"fmt"
	"testing"

	"verifyio/internal/recorder"
	"verifyio/internal/sim/posixfs"
	"verifyio/internal/trace"
)

func newEnv(n int, fsMode posixfs.Mode) *recorder.Env {
	return recorder.NewEnv(n, recorder.Options{FSMode: fsMode})
}

func TestIndependentWriteReadAt(t *testing.T) {
	env := newEnv(2, posixfs.ModePOSIX)
	err := env.Run(func(r *recorder.Rank) error {
		f, err := Open(r, r.Proc().CommWorld(), "f.bin", ModeRdwr|ModeCreate, DefaultConfig())
		if err != nil {
			return err
		}
		me := int64(r.Rank())
		if err := f.WriteAt(me*4, []byte(fmt.Sprintf("rk%d!", r.Rank()))); err != nil {
			return err
		}
		if err := r.Barrier(f.Comm()); err != nil {
			return err
		}
		got, err := f.ReadAt((1-me)*4, 4)
		if err != nil {
			return err
		}
		want := fmt.Sprintf("rk%d!", 1-r.Rank())
		if string(got) != want {
			return fmt.Errorf("rank %d read %q, want %q", r.Rank(), got, want)
		}
		return f.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := env.FS().CommittedData("f.bin")
	if err != nil || string(data) != "rk0!rk1!" {
		t.Fatalf("committed = %q, %v", data, err)
	}
}

func TestFilePointerOps(t *testing.T) {
	env := newEnv(1, posixfs.ModePOSIX)
	err := env.Run(func(r *recorder.Rank) error {
		f, err := Open(r, r.Proc().CommWorld(), "f", ModeRdwr|ModeCreate, DefaultConfig())
		if err != nil {
			return err
		}
		if err := f.Write([]byte("abc")); err != nil {
			return err
		}
		if err := f.Write([]byte("def")); err != nil {
			return err
		}
		if err := f.FileSeek(1, posixfs.SeekSet); err != nil {
			return err
		}
		got, err := f.Read(4)
		if err != nil {
			return err
		}
		if string(got) != "bcde" {
			return fmt.Errorf("read %q", got)
		}
		return f.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMPIIOModeVisibilityRequiresSync(t *testing.T) {
	// On an MPI-IO-consistency file system, data written by rank 0 is not
	// visible to rank 1 until rank 0 issues MPI_File_sync — the behaviour
	// the sync-barrier-sync construct exists for.
	env := newEnv(2, posixfs.ModeMPIIO)
	err := env.Run(func(r *recorder.Rank) error {
		c := r.Proc().CommWorld()
		f, err := Open(r, c, "f", ModeRdwr|ModeCreate, DefaultConfig())
		if err != nil {
			return err
		}
		if r.Rank() == 0 {
			if err := f.WriteAt(0, []byte("DATA")); err != nil {
				return err
			}
		}
		if err := r.Barrier(c); err != nil {
			return err
		}
		if r.Rank() == 1 {
			got, err := f.ReadAt(0, 4)
			if err != nil {
				return err
			}
			if len(got) != 0 {
				return fmt.Errorf("rank 1 saw unpublished data %q", got)
			}
		}
		if err := r.Barrier(c); err != nil {
			return err
		}
		if r.Rank() == 0 {
			if err := f.Sync(); err != nil {
				return err
			}
		}
		if err := r.Barrier(c); err != nil {
			return err
		}
		if r.Rank() == 1 {
			got, err := f.ReadAt(0, 4)
			if err != nil {
				return err
			}
			if string(got) != "DATA" {
				return fmt.Errorf("after sync rank 1 read %q", got)
			}
		}
		return f.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCloseAlsoPublishes(t *testing.T) {
	env := newEnv(1, posixfs.ModeMPIIO)
	err := env.Run(func(r *recorder.Rank) error {
		f, err := Open(r, r.Proc().CommWorld(), "f", ModeWronly|ModeCreate, DefaultConfig())
		if err != nil {
			return err
		}
		if err := f.WriteAt(0, []byte("xy")); err != nil {
			return err
		}
		return f.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := env.FS().CommittedData("f")
	if err != nil || string(data) != "xy" {
		t.Fatalf("committed after close = %q, %v", data, err)
	}
}

func TestCollectiveWriteWithoutViewIsIndependent(t *testing.T) {
	env := newEnv(4, posixfs.ModePOSIX)
	aggregated := false
	err := env.Run(func(r *recorder.Rank) error {
		f, err := Open(r, r.Proc().CommWorld(), "f", ModeRdwr|ModeCreate, DefaultConfig())
		if err != nil {
			return err
		}
		if err := f.WriteAtAll(int64(r.Rank())*2, []byte{byte('a' + r.Rank()), '.'}); err != nil {
			return err
		}
		return f.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	// Without a view there is no aggregation: every rank issues its own
	// pwrite (4 pwrites total, one per rank).
	tr := env.Trace()
	for rank := 0; rank < 4; rank++ {
		n := countFunc(tr, rank, "pwrite")
		if n != 1 {
			aggregated = true
		}
	}
	if aggregated {
		t.Error("collective write aggregated without a file view")
	}
	data, _ := env.FS().CommittedData("f")
	if string(data) != "a.b.c.d." {
		t.Errorf("committed = %q", data)
	}
}

func TestCollectiveWriteAggregatesWithView(t *testing.T) {
	env := newEnv(4, posixfs.ModePOSIX)
	err := env.Run(func(r *recorder.Rank) error {
		c := r.Proc().CommWorld()
		f, err := Open(r, c, "f", ModeRdwr|ModeCreate, DefaultConfig())
		if err != nil {
			return err
		}
		if err := f.SetView(0, "MPI_BYTE", "interleaved"); err != nil {
			return err
		}
		if err := f.WriteAtAll(int64(r.Rank())*2, []byte{byte('a' + r.Rank()), '!'}); err != nil {
			return err
		}
		// Everyone can read the combined result collectively.
		got, err := f.ReadAtAll(int64(r.Rank())*2, 2)
		if err != nil {
			return err
		}
		if got[0] != byte('a'+r.Rank()) {
			return fmt.Errorf("rank %d read back %q", r.Rank(), got)
		}
		return f.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := env.Trace()
	// Aggregation: only rank 0 performs POSIX writes, and the contiguous
	// pieces coalesce into a single pwrite.
	if n := countFunc(tr, 0, "pwrite"); n != 1 {
		t.Errorf("rank 0 pwrites = %d, want 1 (coalesced)", n)
	}
	for rank := 1; rank < 4; rank++ {
		if n := countFunc(tr, rank, "pwrite"); n != 0 {
			t.Errorf("rank %d pwrites = %d, want 0 under aggregation", rank, n)
		}
	}
	// The exchange is visible in the trace as matched MPI collectives.
	if n := countFunc(tr, 0, "MPI_Gather"); n < 1 {
		t.Error("aggregation exchange not traced")
	}
	data, _ := env.FS().CommittedData("f")
	if string(data) != "a!b!c!d!" {
		t.Errorf("committed = %q", data)
	}
}

func TestCollectiveBufferingDisabled(t *testing.T) {
	cfg := Config{CollectiveBuffering: false}
	env := newEnv(2, posixfs.ModePOSIX)
	err := env.Run(func(r *recorder.Rank) error {
		f, err := Open(r, r.Proc().CommWorld(), "f", ModeRdwr|ModeCreate, cfg)
		if err != nil {
			return err
		}
		if err := f.SetView(0, "MPI_BYTE", "interleaved"); err != nil {
			return err
		}
		return f.WriteAtAll(int64(r.Rank()), []byte{byte('0' + r.Rank())})
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := env.Trace()
	for rank := 0; rank < 2; rank++ {
		if n := countFunc(tr, rank, "pwrite"); n != 1 {
			t.Errorf("rank %d pwrites = %d, want 1 with cb disabled", rank, n)
		}
	}
}

func TestViewDisplacementOffsetsIO(t *testing.T) {
	env := newEnv(1, posixfs.ModePOSIX)
	err := env.Run(func(r *recorder.Rank) error {
		f, err := Open(r, r.Proc().CommWorld(), "f", ModeRdwr|ModeCreate, Config{})
		if err != nil {
			return err
		}
		if err := f.SetView(100, "MPI_BYTE", "contig"); err != nil {
			return err
		}
		if err := f.WriteAt(0, []byte("zz")); err != nil {
			return err
		}
		return f.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	size, _ := env.FS().CommittedSize("f")
	if size != 102 {
		t.Errorf("size = %d, want 102 (displacement applied)", size)
	}
}

func TestDataSievingIssuesRead(t *testing.T) {
	env := newEnv(1, posixfs.ModePOSIX)
	err := env.Run(func(r *recorder.Rank) error {
		f, err := Open(r, r.Proc().CommWorld(), "f", ModeRdwr|ModeCreate, Config{DataSieving: true})
		if err != nil {
			return err
		}
		return f.WriteAt(10, []byte("abc"))
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := countFunc(env.Trace(), 0, "pread"); n != 1 {
		t.Errorf("sieving preads = %d, want 1", n)
	}
}

func TestUseAfterClose(t *testing.T) {
	env := newEnv(1, posixfs.ModePOSIX)
	err := env.Run(func(r *recorder.Rank) error {
		f, err := Open(r, r.Proc().CommWorld(), "f", ModeRdwr|ModeCreate, Config{})
		if err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		if err := f.WriteAt(0, []byte("x")); !errors.Is(err, ErrClosed) {
			return fmt.Errorf("WriteAt after close = %v", err)
		}
		if err := f.Close(); !errors.Is(err, ErrClosed) {
			return fmt.Errorf("double close = %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTraceShowsNestedPosixCalls(t *testing.T) {
	// The Fig. 2 property: MPI-IO records appear with their POSIX records
	// nested beneath them, each carrying the enclosing call chain.
	env := newEnv(1, posixfs.ModePOSIX)
	err := env.Run(func(r *recorder.Rank) error {
		f, err := Open(r, r.Proc().CommWorld(), "f", ModeRdwr|ModeCreate, Config{})
		if err != nil {
			return err
		}
		return f.WriteAt(0, []byte("abcd"))
	})
	if err != nil {
		t.Fatal(err)
	}
	recs := env.Trace().Ranks[0]
	var pw *trace.Record
	for i := range recs {
		if recs[i].Func == "pwrite" {
			pw = &recs[i]
		}
	}
	if pw == nil {
		t.Fatal("no pwrite record")
	}
	if pw.Depth() != 1 {
		t.Fatalf("pwrite depth=%d chain=%v", pw.Depth(), pw.Chain())
	}
	fr, err := trace.ParseFrame(pw.Chain()[0])
	if err != nil || fr.Func != "MPI_File_write_at" || fr.Layer != trace.LayerMPIIO {
		t.Errorf("chain frame = %+v, %v", fr, err)
	}
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
