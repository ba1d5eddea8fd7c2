package verifyio

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"verifyio/internal/hbgraph"
	"verifyio/internal/match"
	itrace "verifyio/internal/trace"
)

// syncHeavyProgram is the benchmark's syncheavy shape as a traced program:
// every rank writes its own 16 bytes of one shared file per epoch, fsyncs,
// on every second epoch passes a message around the ring (even ranks send
// first), and closes the epoch with a world barrier.
func syncHeavyProgram(epochs int) func(r *Rank) error {
	return func(r *Rank) error {
		world, rank, size := r.Proc().CommWorld(), r.Rank(), r.Size()
		fd, err := r.Open("sync.dat", 0x2|0x40) // O_RDWR|O_CREAT
		if err != nil {
			return err
		}
		ring := func() error {
			if rank%2 == 0 {
				if err := r.Send(world, (rank+1)%size, 0, []byte("8")); err != nil {
					return err
				}
			}
			if _, _, err := r.Recv(world, (rank+size-1)%size, 0); err != nil {
				return err
			}
			if rank%2 == 1 {
				return r.Send(world, (rank+1)%size, 0, []byte("8"))
			}
			return nil
		}
		for e := range epochs {
			if _, err := r.Pwrite(fd, make([]byte, 16), int64(16*(e*size+rank))); err != nil {
				return err
			}
			if err := r.Fsync(fd); err != nil {
				return err
			}
			if e%2 == 1 {
				if err := ring(); err != nil {
					return err
				}
			}
			if err := r.Barrier(world); err != nil {
				return err
			}
		}
		return r.Close(fd)
	}
}

// TestSyncChainBytesPerEdge caps what matching's finish and the graph build
// allocate per stored edge on a 16-rank barrier-plus-ring program: the edge
// list is sized once and left in generation order, and the skeleton takes
// its members off a bitmap, so neither grows, sorts nor compacts anything
// per edge.
func TestSyncChainBytesPerEdge(t *testing.T) {
	const maxPerEdge = 100
	tr, err := TraceProgram(16, POSIX, syncHeavyProgram(200))
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, tr.t.NumRanks())
	for rank, recs := range tr.t.Ranks {
		counts[rank] = len(recs)
	}
	least, edges := ^uint64(0), 0
	for range 3 {
		m := match.NewMatcher(len(counts))
		for rank, recs := range tr.t.Ranks {
			m.Feed(rank, recs)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res := m.Finish(match.Options{})
		if _, err := hbgraph.BuildCounts(counts, res.Edges); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		least, edges = min(least, after.TotalAlloc-before.TotalAlloc), len(res.Edges)
	}
	perEdge := float64(least) / float64(edges)
	t.Logf("%d stored edges, %.1f bytes allocated per edge", edges, perEdge)
	if perEdge > maxPerEdge {
		t.Errorf("Finish plus BuildCounts allocate %.1f bytes per stored edge, want <= %d", perEdge, maxPerEdge)
	}
}

// barrierProgram is a random program of world barriers and accesses to one
// shared file. Each rank's steps are a list of segments, one more than the
// barriers, and every rank passes the same barrier between two segments.
type barrierProgram struct {
	ranks [][][]access // rank → segment → accesses
}

// access is one step inside a segment: a 4-byte write or read at off, or an
// fsync when sync is set.
type access struct {
	write, sync bool
	off         int64
}

func randomBarrierProgram(rng *rand.Rand) barrierProgram {
	p := barrierProgram{ranks: make([][][]access, 2+rng.Intn(3))}
	segments := 2 + rng.Intn(4)
	for rank := range p.ranks {
		for range segments {
			var seg []access
			for range rng.Intn(4) {
				seg = append(seg, access{write: rng.Intn(2) == 0, sync: rng.Intn(5) == 0, off: int64(4 * rng.Intn(3))})
			}
			p.ranks[rank] = append(p.ranks[rank], seg)
		}
	}
	return p
}

// withBarrier adds one barrier slot to every rank: each rank's segment seg is
// split in two at a random point.
func (p barrierProgram) withBarrier(rng *rand.Rand, seg int) barrierProgram {
	q := barrierProgram{ranks: make([][][]access, len(p.ranks))}
	for rank, segs := range p.ranks {
		cut := rng.Intn(len(segs[seg]) + 1)
		q.ranks[rank] = append(q.ranks[rank], segs[:seg]...)
		q.ranks[rank] = append(q.ranks[rank], segs[seg][:cut:cut], segs[seg][cut:])
		q.ranks[rank] = append(q.ranks[rank], segs[seg+1:]...)
	}
	return q
}

// withoutBarrier removes every rank's k-th barrier, joining the segments
// on either side of it.
func (p barrierProgram) withoutBarrier(k int) barrierProgram {
	q := barrierProgram{ranks: make([][][]access, len(p.ranks))}
	for rank, segs := range p.ranks {
		joined := append(append([]access(nil), segs[k]...), segs[k+1]...)
		q.ranks[rank] = append(q.ranks[rank], segs[:k]...)
		q.ranks[rank] = append(q.ranks[rank], joined)
		q.ranks[rank] = append(q.ranks[rank], segs[k+2:]...)
	}
	return q
}

// races traces p and returns its race count under each built-in model.
func (p barrierProgram) races(t *testing.T) [4]int64 {
	t.Helper()
	tr, err := TraceProgram(len(p.ranks), POSIX, func(r *Rank) error {
		fd, err := r.Open("meta.dat", 0x2|0x40) // O_RDWR|O_CREAT
		if err != nil {
			return err
		}
		for i, seg := range p.ranks[r.Rank()] {
			if i > 0 {
				if err := r.Barrier(r.Proc().CommWorld()); err != nil {
					return err
				}
			}
			for _, a := range seg {
				switch {
				case a.sync:
					err = r.Fsync(fd)
				case a.write:
					_, err = r.Pwrite(fd, []byte("abcd"), a.off)
				default:
					_, err = r.Pread(fd, 4, a.off)
				}
				if err != nil {
					return err
				}
			}
		}
		return r.Close(fd)
	})
	if err != nil {
		t.Fatal(err)
	}
	reports, err := VerifyAll(tr, &Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var out [4]int64
	for i, rep := range reports {
		if len(rep.Problems) > 0 {
			t.Fatalf("%s: matching problems %v", rep.Model, rep.Problems)
		}
		out[i] = rep.RaceCount
	}
	return out
}

// TestMetamorphicBarriers holds the verifier to two relations that need no
// expected verdict: adding one world barrier slot to every rank never adds a
// race under any model, and removing every rank's k-th world barrier never
// removes one. The programs are seeded random 2–4-rank mixes of writes,
// reads and fsyncs on one file, traced like any program.
func TestMetamorphicBarriers(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	lowered, raised := 0, 0 // programs where the barrier changed a count
	for i := range 40 {
		p := randomBarrierProgram(rng)
		base := p.races(t)
		segs := len(p.ranks[0])
		more := p.withBarrier(rng, rng.Intn(segs)).races(t)
		fewer := p.withoutBarrier(rng.Intn(segs - 1)).races(t)
		for m, model := range Models() {
			if more[m] > base[m] {
				t.Errorf("program %d, %s: an added barrier raised the races from %d to %d\n%s", i, model, base[m], more[m], p)
			}
			if fewer[m] < base[m] {
				t.Errorf("program %d, %s: a removed barrier lowered the races from %d to %d\n%s", i, model, base[m], fewer[m], p)
			}
		}
		if more != base {
			lowered++
		}
		if fewer != base {
			raised++
		}
	}
	// Relations that never bite would pass on a verifier that ignores
	// barriers.
	t.Logf("an added barrier changed %d of 40 programs, a removed one %d", lowered, raised)
	if lowered == 0 || raised == 0 {
		t.Errorf("barriers changed no race count: added %d, removed %d programs", lowered, raised)
	}
}

func (p barrierProgram) String() string {
	s := ""
	for rank, segs := range p.ranks {
		s += fmt.Sprintf("rank %d: %v\n", rank, segs)
	}
	return s
}

// BenchmarkSyncChain times the sync path of a syncheavy-shaped trace (16
// ranks, 3 000 epochs) piece by piece: decoding its directory, where the
// argument tuples are shared; matching's finish, which sizes the edge list
// once; and the graph build, which takes the skeleton off a bitmap.
func BenchmarkSyncChain(b *testing.B) {
	tr, err := TraceProgram(16, POSIX, syncHeavyProgram(3000))
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	if err := itrace.WriteDir(dir, tr.t, itrace.DefaultEncodeOptions()); err != nil {
		b.Fatal(err)
	}
	counts := make([]int, tr.t.NumRanks())
	for rank, recs := range tr.t.Ranks {
		counts[rank] = len(recs)
	}
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			if _, err := itrace.ReadDir(dir); err != nil {
				b.Fatal(err)
			}
		}
	})
	var edges []match.Edge
	b.Run("finish", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			b.StopTimer()
			m := match.NewMatcher(len(counts))
			for rank, recs := range tr.t.Ranks {
				m.Feed(rank, recs)
			}
			b.StartTimer()
			edges = m.Finish(match.Options{}).Edges
		}
	})
	b.Run("build", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			if _, err := hbgraph.BuildCounts(counts, edges); err != nil {
				b.Fatal(err)
			}
		}
	})
}
