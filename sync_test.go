package verifyio

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
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
		for rank := range tr.t.Ranks {
			tr.t.ReadRank(rank, func(steps []itrace.Step) { m.Feed(rank, steps) })
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

// barrierProgram is a random program of world barriers and accesses to
// shared files. Each rank's steps are a list of segments, one more than the
// barriers, and every rank passes the same barrier between two segments.
type barrierProgram struct {
	ranks [][][]access // rank → segment → accesses
	// files names the files by access.file; nil is one file, meta.dat.
	files []string
}

// access is one step inside a segment: a 4-byte write or read at off, an
// fsync when sync is set, or one half of a point-to-point message when msg
// is set. Data steps go to file number file.
type access struct {
	write, sync bool
	off         int64
	file        int
	msg         *message
}

// message is one half of a matched MPI_Send/MPI_Recv pair: the send to, or
// the receive from, rank peer. Tags are unique in a program and, on every
// rank, a segment's message steps come in ascending tag order, so the
// lowest-tagged pending message always has both halves next in line and no
// program deadlocks, whether sends block or not.
type message struct {
	send      bool
	peer, tag int
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
	files := p.files
	if files == nil {
		files = []string{"meta.dat"}
	}
	tr, err := TraceProgram(len(p.ranks), POSIX, func(r *Rank) error {
		fds := make([]int, len(files))
		for i, name := range files {
			fd, err := r.Open(name, 0x2|0x40) // O_RDWR|O_CREAT
			if err != nil {
				return err
			}
			fds[i] = fd
		}
		for i, seg := range p.ranks[r.Rank()] {
			if i > 0 {
				if err := r.Barrier(r.Proc().CommWorld()); err != nil {
					return err
				}
			}
			for _, a := range seg {
				var err error
				fd := fds[a.file]
				switch {
				case a.msg != nil && a.msg.send:
					err = r.Send(r.Proc().CommWorld(), a.msg.peer, a.msg.tag, []byte("m"))
				case a.msg != nil:
					_, _, err = r.Recv(r.Proc().CommWorld(), a.msg.peer, a.msg.tag)
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
		for _, fd := range fds {
			if err := r.Close(fd); err != nil {
				return err
			}
		}
		return nil
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

// TestMetamorphicRankRelabelling holds the verifier to the rank relabelling
// relation: renumbering the ranks of a program, with every message's peer
// renumbered alike, leaves each model's race count as it was. The programs
// are TestMetamorphicBarriers' random programs, each with up to two messages
// added so that the peers have something to follow.
func TestMetamorphicRankRelabelling(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	racy := 0 // programs with messages and a race under some model
	for i := range 40 {
		p := randomBarrierProgram(rng)
		tags := rng.Intn(3)
		for tag := 1; tag <= tags; tag++ {
			p = p.withMessage(rng, tag)
		}
		perm := rng.Perm(len(p.ranks))
		base, relabelled := p.races(t), p.relabelled(perm).races(t)
		if relabelled != base {
			t.Errorf("program %d: ranks renumbered %v changed the races from %v to %v\n%s", i, perm, base, relabelled, p)
		}
		if tags > 0 && base != [4]int64{} {
			racy++
		}
	}
	// A relation over race-free programs would hold on a verifier that
	// reports nothing.
	t.Logf("%d of 40 programs have messages and races", racy)
	if racy == 0 {
		t.Error("no program has both messages and races")
	}
}

// relabelled returns p with rank r renumbered perm[r], message peers too.
func (p barrierProgram) relabelled(perm []int) barrierProgram {
	q := barrierProgram{ranks: make([][][]access, len(p.ranks))}
	for rank, segs := range p.ranks {
		for _, seg := range segs {
			seg = slices.Clone(seg)
			for k, a := range seg {
				if a.msg != nil {
					m := *a.msg
					m.peer = perm[m.peer]
					seg[k].msg = &m
				}
			}
			q.ranks[perm[rank]] = append(q.ranks[perm[rank]], seg)
		}
	}
	return q
}

func (p barrierProgram) String() string {
	s := ""
	for rank, segs := range p.ranks {
		s += fmt.Sprintf("rank %d:", rank)
		for _, seg := range segs {
			s += " ["
			for i, a := range seg {
				if i > 0 {
					s += " "
				}
				switch {
				case a.msg != nil && a.msg.send:
					s += fmt.Sprintf("send(%d,tag %d)", a.msg.peer, a.msg.tag)
				case a.msg != nil:
					s += fmt.Sprintf("recv(%d,tag %d)", a.msg.peer, a.msg.tag)
				case a.sync:
					s += "fsync"
				case a.write:
					s += fmt.Sprintf("write@%d", a.off)
				default:
					s += fmt.Sprintf("read@%d", a.off)
				}
				if a.msg == nil && p.files != nil {
					s += ":" + p.files[a.file]
				}
			}
			s += "]"
		}
		s += "\n"
	}
	return s
}

// TestMetamorphicFileRenaming holds the verifier to the file renaming
// relation: renaming the files of a program consistently, to fresh names or
// by swapping the two names it has, leaves each model's race count as it
// was. The programs are TestMetamorphicRankRelabelling's random programs,
// messages included, with their data steps spread over two files at random
// after generation.
func TestMetamorphicFileRenaming(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	racy := 0 // programs with a race under some model
	for i := range 40 {
		p := randomBarrierProgram(rng)
		tags := rng.Intn(3)
		for tag := 1; tag <= tags; tag++ {
			p = p.withMessage(rng, tag)
		}
		p = p.spread(rng, "meta.dat", "data.dat")
		base := p.races(t)
		for _, names := range [][]string{{"out.nc", "a.h5"}, {"data.dat", "meta.dat"}} {
			renamed := p
			renamed.files = names
			if got := renamed.races(t); got != base {
				t.Errorf("program %d: files renamed %v changed the races from %v to %v\n%s", i, names, base, got, p)
			}
		}
		if base != [4]int64{} {
			racy++
		}
	}
	// A relation over race-free programs would hold on a verifier that
	// reports nothing.
	t.Logf("%d of 40 programs have races", racy)
	if racy == 0 {
		t.Error("no program has races")
	}
}

// spread returns p with each step assigned one of two files, named a and b,
// at random.
func (p barrierProgram) spread(rng *rand.Rand, a, b string) barrierProgram {
	q := barrierProgram{ranks: make([][][]access, len(p.ranks)), files: []string{a, b}}
	for rank, segs := range p.ranks {
		for _, seg := range segs {
			seg = slices.Clone(seg)
			for k := range seg {
				seg[k].file = rng.Intn(2)
			}
			q.ranks[rank] = append(q.ranks[rank], seg)
		}
	}
	return q
}

// TestMetamorphicMessages holds the verifier to the point-to-point
// relations: adding one matched MPI_Send/MPI_Recv pair between two ranks
// never adds a race under any model, and removing one never removes a race.
// The programs are 100 of TestMetamorphicBarriers' random programs, each
// with up to two messages added.
func TestMetamorphicMessages(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	const programs = 100
	lowered, raised := 0, 0 // programs where the message changed a count
	for i := range programs {
		p := randomBarrierProgram(rng)
		tags := rng.Intn(3)
		for tag := 1; tag <= tags; tag++ {
			p = p.withMessage(rng, tag)
		}
		base := p.races(t)
		more := p.withMessage(rng, tags+1).races(t)
		for m, model := range Models() {
			if more[m] > base[m] {
				t.Errorf("program %d, %s: an added message raised the races from %d to %d\n%s", i, model, base[m], more[m], p)
			}
		}
		if more != base {
			lowered++
		}
		if tags == 0 {
			continue
		}
		fewer := p.withoutMessage(1 + rng.Intn(tags)).races(t)
		for m, model := range Models() {
			if fewer[m] < base[m] {
				t.Errorf("program %d, %s: a removed message lowered the races from %d to %d\n%s", i, model, base[m], fewer[m], p)
			}
		}
		if fewer != base {
			raised++
		}
	}
	// Relations that never bite would pass on a verifier that ignores
	// messages.
	t.Logf("an added message changed %d of %d programs, a removed one %d", lowered, programs, raised)
	if lowered == 0 || raised == 0 {
		t.Errorf("messages changed no race count: added %d, removed %d programs", lowered, raised)
	}
}

// withMessage adds a message with the given tag, above every tag in p, from
// one random rank to another, both halves in the same random segment, each
// at a random point after the rank's last message step there.
func (p barrierProgram) withMessage(rng *rand.Rand, tag int) barrierProgram {
	from := rng.Intn(len(p.ranks))
	to := (from + 1 + rng.Intn(len(p.ranks)-1)) % len(p.ranks)
	seg := rng.Intn(len(p.ranks[0]))
	q := barrierProgram{ranks: make([][][]access, len(p.ranks))}
	for rank, segs := range p.ranks {
		q.ranks[rank] = append([][]access(nil), segs...)
		var half *message
		switch rank {
		case from:
			half = &message{send: true, peer: to, tag: tag}
		case to:
			half = &message{peer: from, tag: tag}
		default:
			continue
		}
		steps := segs[seg]
		after := 0 // past the last message step: tags ascend
		for k, a := range steps {
			if a.msg != nil {
				after = k + 1
			}
		}
		at := after + rng.Intn(len(steps)-after+1)
		q.ranks[rank][seg] = slices.Insert(slices.Clone(steps), at, access{msg: half})
	}
	return q
}

// withoutMessage removes both halves of the message with the given tag.
func (p barrierProgram) withoutMessage(tag int) barrierProgram {
	q := barrierProgram{ranks: make([][][]access, len(p.ranks))}
	for rank, segs := range p.ranks {
		for _, seg := range segs {
			q.ranks[rank] = append(q.ranks[rank], slices.DeleteFunc(slices.Clone(seg), func(a access) bool {
				return a.msg != nil && a.msg.tag == tag
			}))
		}
	}
	return q
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
			for rank := range tr.t.Ranks {
				tr.t.ReadRank(rank, func(steps []itrace.Step) { m.Feed(rank, steps) })
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
