package verify

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"verifyio/internal/semantics"
	"verifyio/internal/trace"
)

// TestPropertyPipelineNeverPanics feeds the whole pipeline structurally
// valid traces filled with adversarial record contents: realistic function
// names with randomized, often-garbage arguments. The pipeline must degrade
// gracefully — skipping uninterpretable records, reporting matcher problems
// — and never panic or loop, for every model and algorithm.
func TestPropertyPipelineNeverPanics(t *testing.T) {
	funcs := []string{
		"open", "close", "read", "write", "pread", "pwrite", "lseek",
		"fopen", "fclose", "fread", "fwrite", "fseek", "fsync",
		"ftruncate", "unlink", "readv", "writev", "stat",
		"MPI_Send", "MPI_Recv", "MPI_Isend", "MPI_Irecv", "MPI_Wait",
		"MPI_Waitall", "MPI_Test", "MPI_Testsome", "MPI_Barrier",
		"MPI_Bcast", "MPI_Reduce", "MPI_Allreduce", "MPI_Scan",
		"MPI_Sendrecv", "MPI_Comm_dup", "MPI_Comm_split",
		"MPI_File_open", "MPI_File_close", "MPI_File_sync",
		"MPI_File_write_at_all", "MPI_File_set_view",
	}
	argPool := []string{
		"", "0", "1", "3", "4", "-1", "comm-world", "comm-bogus", "f",
		"g", "rw|creat", "r", "SEEK_SET", "SEEK_END", "SEEK_BOGUS",
		"req-0.0", "req-9.9", "notanint", "9999999999999", "-7",
	}
	run := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nranks := 1 + rng.Intn(4)
		tr := trace.New(nranks)
		for rank := 0; rank < nranks; rank++ {
			tick := int64(0)
			n := rng.Intn(60)
			for i := 0; i < n; i++ {
				tick += 2
				nargs := rng.Intn(7)
				args := make([]string, nargs)
				for a := range args {
					args[a] = argPool[rng.Intn(len(argPool))]
				}
				tr.Append(trace.Record{
					Rank: rank, Func: funcs[rng.Intn(len(funcs))],
					Layer: trace.Layer(rng.Intn(7)),
					Args:  args, Tick: tick, Ret: tick + 1,
				})
			}
		}
		for _, algo := range []Algo{AlgoVectorClock, AlgoOnTheFly} {
			a, err := Analyze(tr, algo, AnalyzeOptions{})
			if err != nil {
				// Errors are acceptable (e.g. cyclic garbage edges are
				// impossible here, but analysis may reject traces);
				// panics are not.
				continue
			}
			for _, m := range semantics.All() {
				if _, err := a.Verify(Options{Model: m, ContinueOnUnmatched: rng.Intn(2) == 0}); err != nil {
					t.Logf("seed %d: verify error: %v", seed, err)
					return false
				}
			}
		}
		return true
	}
	// A pinned generator keeps the suite deterministic; bump MaxCount (or
	// drop Rand) locally to hunt with fresh seeds. Seed 2 covers the
	// huge-count regression this test originally caught (unbounded
	// Waitall/readv count loops).
	cfg := &quick.Config{MaxCount: 120, Rand: rand.New(rand.NewSource(2))}
	if err := quick.Check(run, cfg); err != nil {
		t.Error(err)
	}
}

// TestAnalyzeOracleErrorBesideDetection: the oracle build runs in the
// matching task, beside conflict detection's finish. On two ranks that reach
// the barriers of two communicators in opposite order (a cycle through two
// join nodes) Analyze returns the same vector-clock error at Workers 1 and 4,
// and when reading fails too — on both ranks, whichever task fails first —
// the lowest rank's read error still wins.
func TestAnalyzeOracleErrorBesideDetection(t *testing.T) {
	p := newIOProgram(2, "f")
	dup := p.split([]int{0, 0})[0]
	for rank, order := range [][]string{{"comm-world", dup}, {dup, "comm-world"}} {
		for _, comm := range order {
			p.emit(rank, trace.LayerMPI, "MPI_Barrier", comm)
		}
		p.access(rank, 0, 0, true)
	}
	errAt := func(src trace.Source, workers int) string {
		t.Helper()
		a, err := Analyze(src, AlgoVectorClock, AnalyzeOptions{Workers: workers})
		if err == nil {
			t.Fatalf("workers=%d: analysis of %d conflict pairs succeeded on a cyclic trace", workers, a.Conflicts.Pairs)
		}
		return err.Error()
	}
	serial := errAt(p.tr, 1)
	if !strings.HasPrefix(serial, "verify: vector clocks:") || !strings.Contains(serial, "cycle") {
		t.Fatalf("err = %q, want the vector-clock cycle error", serial)
	}
	if got := errAt(p.tr, 4); got != serial {
		t.Errorf("workers=4: err = %q, workers=1: %q", got, serial)
	}

	for _, workers := range []int{1, 4} {
		want := "verify: read trace: rank 0 unreadable"
		if got := errAt(failingSource{p.tr}, workers); got != want {
			t.Errorf("workers=%d: err = %q, want %q", workers, got, want)
		}
	}
}

// failingSource passes each rank's records on and then fails the read.
type failingSource struct{ *trace.Trace }

func (s failingSource) ReadRank(rank int, fn func([]trace.Record)) error {
	s.Trace.ReadRank(rank, fn)
	return fmt.Errorf("rank %d unreadable", rank)
}
