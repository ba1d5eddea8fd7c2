package verify

import (
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"verifyio/internal/semantics"
	"verifyio/internal/trace"
)

// The tests below hold the class-scoped verifier — scratch and monotone
// bounds carried from group to group while X stays in one position class —
// to the exhaustive walk (DisablePruning), which evaluates every pair from
// scratch and carries nothing.

// ioProgram builds a trace record by record, in the argument layouts the
// recorder writes and the detector and matcher read. Every rank holds the
// program's files open on the same descriptors.
type ioProgram struct {
	tr    *trace.Trace
	comms map[string][]int // communicator id -> world ranks
	files []string
}

func newIOProgram(nranks int, files ...string) *ioProgram {
	world := make([]int, nranks)
	for i := range world {
		world[i] = i
	}
	p := &ioProgram{tr: trace.New(nranks), comms: map[string][]int{"comm-world": world}, files: files}
	for r := 0; r < nranks; r++ {
		for f := range files {
			p.open(r, f)
		}
	}
	return p
}

func (p *ioProgram) emit(rank int, layer trace.Layer, fn string, args ...string) {
	tick := int64(2*len(p.tr.Ranks[rank]) + 1)
	p.tr.Append(trace.Record{Rank: rank, Func: fn, Layer: layer, Args: args, Tick: tick, Ret: tick + 1})
}

func fd(file int) string { return strconv.Itoa(3 + file) }

func (p *ioProgram) open(rank, file int) {
	p.emit(rank, trace.LayerPOSIX, "open", p.files[file], "rw|creat", fd(file))
}
func (p *ioProgram) closeFile(rank, file int) { p.emit(rank, trace.LayerPOSIX, "close", fd(file)) }
func (p *ioProgram) fsync(rank, file int)     { p.emit(rank, trace.LayerPOSIX, "fsync", fd(file)) }

// filler is a record no layer interprets: it keeps the record before it from
// being the po-predecessor of what follows.
func (p *ioProgram) filler(rank int) { p.emit(rank, trace.LayerPOSIX, "stat", "x") }

// access reads or writes the 16-byte slot of file on rank.
func (p *ioProgram) access(rank, file, slot int, write bool) {
	fn := "pread"
	if write {
		fn = "pwrite"
	}
	p.emit(rank, trace.LayerPOSIX, fn, fd(file), "16", strconv.Itoa(16*slot))
}

func (p *ioProgram) barrier(comm string) {
	for _, r := range p.comms[comm] {
		p.emit(r, trace.LayerMPI, "MPI_Barrier", comm)
	}
}

// fileSync is MPI_File_sync on file, collective over the world (the matcher
// pairs it up, and it orders nothing).
func (p *ioProgram) fileSync(file int) {
	for r := range p.tr.Ranks {
		p.emit(r, trace.LayerMPI, "MPI_File_sync", fd(file))
	}
}

// split partitions the world by color and returns the new communicators.
func (p *ioProgram) split(colors []int) []string {
	byColor := map[int][]int{}
	for r, c := range colors {
		byColor[c] = append(byColor[c], r)
	}
	var gids []string
	for r, c := range colors {
		gid := fmt.Sprintf("comm-split.%d", c)
		if _, seen := p.comms[gid]; !seen {
			p.comms[gid] = byColor[c]
			gids = append(gids, gid)
		}
		list := make([]string, len(byColor[c]))
		for k, m := range byColor[c] {
			list[k] = strconv.Itoa(m)
		}
		p.emit(r, trace.LayerMPI, "MPI_Comm_split", "comm-world", strconv.Itoa(c), "0", gid, strings.Join(list, ","))
	}
	return gids
}

// ring shifts one message to the right neighbour on comm: every member
// sends, then receives.
func (p *ioProgram) ring(comm string, tag int) {
	members := p.comms[comm]
	n := len(members)
	if n < 2 {
		return
	}
	for i, r := range members {
		p.emit(r, trace.LayerMPI, "MPI_Send", comm, strconv.Itoa((i+1)%n), strconv.Itoa(tag), "8")
	}
	for i, r := range members {
		left := strconv.Itoa((i + n - 1) % n)
		p.emit(r, trace.LayerMPI, "MPI_Recv", comm, left, strconv.Itoa(tag), "8", left, strconv.Itoa(tag))
	}
}

// raceSet verifies tr under model and returns the raced pairs, each as
// "<rank>.<seq>-<rank>.<seq>".
func raceSet(t *testing.T, tr *trace.Trace, algo Algo, model semantics.Model) []string {
	t.Helper()
	a, err := AnalyzeOpts(tr, algo, AnalyzeOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Match.Problems) != 0 {
		t.Fatalf("program does not match cleanly: %v", a.Match.Problems)
	}
	rep, err := a.Verify(Options{Model: model, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	out := []string{}
	for _, r := range rep.Races {
		out = append(out, fmt.Sprintf("%d.%d-%d.%d", r.X.Ref.Rank, r.X.Ref.Seq, r.Y.Ref.Rank, r.Y.Ref.Seq))
	}
	if int64(len(out)) != rep.RaceCount {
		t.Fatalf("%d race details for %d races", len(out), rep.RaceCount)
	}
	return out
}

// TestClassSplitsAtSyncCandidate: two writes of one rank inside one skeleton
// segment (equal prev/next) are different position classes when a sync
// candidate on the conflicting file separates them, or when they touch
// different files. Commit synchronizes the first write through the fsync that
// follows it and must not extend that to the second.
func TestClassSplitsAtSyncCandidate(t *testing.T) {
	type program struct {
		name  string
		build func() *ioProgram
		// a and b are the seqs of rank 0's writes, ra and rb of rank 1's reads.
		a, b, ra, rb int
	}
	programs := []program{
		{"fsync between", func() *ioProgram {
			p := newIOProgram(2, "f")
			p.access(0, 0, 0, true) // A
			p.fsync(0, 0)
			p.access(0, 0, 1, true) // B
			p.filler(0)
			p.barrier("comm-world")
			p.access(1, 0, 0, false)
			p.access(1, 0, 1, false)
			return p
		}, 1, 3, 2, 3},
		{"two files", func() *ioProgram {
			p := newIOProgram(2, "f", "g")
			p.access(0, 0, 0, true) // A, on f
			p.access(0, 1, 0, true) // B, on g: f's fsync commits nothing of it
			p.fsync(0, 0)
			p.filler(0)
			p.barrier("comm-world")
			p.access(1, 0, 0, false)
			p.access(1, 1, 0, false)
			return p
		}, 2, 3, 3, 4},
		{"join source", func() *ioProgram {
			p := newIOProgram(2, "f")
			p.access(0, 0, 0, true) // A
			p.fsync(0, 0)
			p.access(0, 0, 1, true) // B, the barrier's po-predecessor: a skeleton node
			p.barrier("comm-world")
			p.access(1, 0, 0, false)
			p.access(1, 0, 1, false)
			return p
		}, 1, 3, 2, 3},
	}
	for _, pr := range programs {
		pairA := fmt.Sprintf("0.%d-1.%d", pr.a, pr.ra)
		pairB := fmt.Sprintf("0.%d-1.%d", pr.b, pr.rb)
		want := map[string][]string{
			"POSIX":   {},
			"Commit":  {pairB},
			"Session": {pairA, pairB},
			"MPI-IO":  {pairA, pairB},
		}
		for _, algo := range []Algo{AlgoVectorClock, AlgoSegment, AlgoReachability} {
			for _, model := range semantics.All() {
				got := raceSet(t, pr.build().tr, algo, model)
				if !reflect.DeepEqual(got, want[model.Name]) {
					t.Errorf("%s/%v/%s: races %v, want %v", pr.name, algo, model.Name, got, want[model.Name])
				}
			}
		}
	}
}

// randomIOProgram draws a program whose ranks all read and write two files
// over a few shared slots, with fsync, close+open and MPI_File_sync placed
// inside skeleton segments, world and split barriers, and ring exchanges.
// Events are appended in one global order and every sync edge points forward
// in it, so po ∪ so is acyclic by construction.
func randomIOProgram(rng *rand.Rand, nranks int) *trace.Trace {
	p := newIOProgram(nranks, "a.dat", "b.dat")
	colors := make([]int, nranks)
	for i := range colors {
		colors[i] = rng.Intn(2)
	}
	comms := append([]string{"comm-world"}, p.split(colors)...)
	pick := func() string { return comms[rng.Intn(len(comms))] }
	for ev, n := 0, 200+rng.Intn(200); ev < n; ev++ {
		rank, file := rng.Intn(nranks), rng.Intn(2)
		switch k := rng.Intn(40); {
		case k < 30:
			p.access(rank, file, rng.Intn(6), rng.Intn(3) > 0)
		case k < 32:
			p.fsync(rank, file)
		case k < 34:
			p.closeFile(rank, file)
			p.open(rank, file)
		case k < 35:
			p.fileSync(file)
		case k < 37:
			p.barrier("comm-world")
		case k < 39:
			p.barrier(pick())
		default:
			p.ring(pick(), ev)
		}
	}
	return p.tr
}

// randomMSC draws a model whose MSC has k ∈ [0, 3] sync operations, each
// edge po or hb and each op class a non-empty subset of the sync functions
// randomIOProgram emits — shapes no built-in model has, such as a po edge
// between two sync operations.
func randomMSC(rng *rand.Rand) semantics.Model {
	var msc semantics.MSC
	k := rng.Intn(4)
	for range k + 1 {
		msc.Edges = append(msc.Edges, semantics.EdgeKind(rng.Intn(2)))
	}
	for range k {
		var c semantics.OpClass
		for len(c.Funcs) == 0 {
			for _, fn := range []string{"fsync", "close", "open", "MPI_File_sync"} {
				if rng.Intn(2) == 0 {
					c.Funcs = append(c.Funcs, fn)
				}
			}
		}
		c.Name = strings.Join(c.Funcs, "|")
		msc.Ops = append(msc.Ops, c)
	}
	return semantics.Model{Name: "random " + msc.String(), MSC: msc}
}

// TestClassVerdictsMatchExhaustive is the property test of the class-scoped
// walk: on random programs, under the four models, the double-commit model
// and two random MSCs, with each kind of oracle and at several worker
// counts, the races are the exhaustive walk's, and checks and races do not
// depend on workers.
func TestClassVerdictsMatchExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	mscs := rand.New(rand.NewSource(30))
	var analyses, batches, hits int64
	for trial := 0; trial < 12; trial++ {
		tr := randomIOProgram(rng, 2+trial%5)
		models := append(semantics.All(), doubleCommit(), randomMSC(mscs), randomMSC(mscs))
		algos := []Algo{AlgoVectorClock, AlgoSegment}
		if trial%4 == 0 {
			// One BFS per query: the reference oracle, which resolves no
			// operand (every group its own class), on a quarter of the programs.
			algos = append(algos, AlgoReachability)
		}
		for _, algo := range algos {
			a, err := AnalyzeOpts(tr, algo, AnalyzeOptions{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if len(a.Match.Problems) != 0 {
				t.Fatalf("trial %d: program does not match cleanly: %v", trial, a.Match.Problems)
			}
			analyses++
			batches += int64(len(a.plan.batches))
			for _, model := range models {
				name := fmt.Sprintf("trial %d/%v/%s", trial, algo, model.Name)
				base := Options{Model: model, MaxRaceDetails: 48}
				ref := base
				ref.Workers, ref.DisablePruning = 1, true
				exhaustive, err := a.Verify(ref)
				if err != nil {
					t.Fatal(err)
				}
				var first *Report
				for _, workers := range []int{1, 2, 7} {
					opts := base
					opts.Workers = workers
					rep, err := a.Verify(opts)
					if err != nil {
						t.Fatal(err)
					}
					cell := fmt.Sprintf("%s/workers=%d", name, workers)
					if rep.RaceCount != exhaustive.RaceCount || !reflect.DeepEqual(rep.Races, exhaustive.Races) {
						t.Errorf("%s: %d races, exhaustive walk %d (or details differ)",
							cell, rep.RaceCount, exhaustive.RaceCount)
					}
					if first == nil {
						first = rep
					}
					if rep.ChecksPerformed != first.ChecksPerformed {
						t.Errorf("%s: %d checks, %d at workers=1",
							cell, rep.ChecksPerformed, first.ChecksPerformed)
					}
				}
				if algo == AlgoVectorClock {
					opts := base
					opts.Workers = 2
					rep, err := a.Verify(opts)
					if err != nil {
						t.Fatal(err)
					}
					hits += rep.ClassHits
				}
			}
		}
	}
	// The inputs must exercise what the test is about: several batches per
	// pass, classes that outlive a group.
	if batches < 3*analyses || hits == 0 {
		t.Errorf("inputs too tame: %d analyses, %d batches, %d checks answered from bounds",
			analyses, batches, hits)
	}
}
