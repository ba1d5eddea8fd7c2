package main

import (
	"math/rand"
	"sort"
	"strconv"

	"verifyio/internal/trace"
)

// The generator builds trace.Records itself instead of calling
// internal/corpus, so a later change to the corpus generators cannot move
// the benchmark's inputs.

// opLen is the byte length of every generated data operation.
const opLen = 16

// shape fixes the size and synchronization cadence of one synthetic trace.
// Every rank opens one shared file, issues ops+extra 16-byte data operations
// at uniform offsets, and closes an epoch with fsync + a world MPI_Barrier
// after every syncEvery of them. Every fourth rank only reads (pread), the
// others only write (pwrite): 25 % reads.
type shape struct {
	ranks int
	// ops data operations per rank land in [0, window).
	ops    int
	window int64
	// extra further operations per rank land in [window, 2*window): the
	// appended tail of the reverify workload. They conflict among
	// themselves and never with the first ops, and the records before the
	// final close are identical to those of the same shape with extra = 0.
	extra     int
	syncEvery int
	// ring places a neighbour exchange (MPI_Send to rank+1, MPI_Recv from
	// rank-1, even ranks send first) directly before every second barrier.
	// No data operation sits between the exchange and the barrier, so the
	// happens-before order over data operations stays exactly epoch order.
	ring bool
	// mixed lets every rank read and write: each operation reads with
	// probability 1/4. No workload sets it, because the verifier's default
	// run pruning under-counts Session and MPI-IO races on a rank that both
	// wrote and later read the same bytes (README.md, "Known discrepancy");
	// gen_test.go uses it to hold the reference against the unpruned
	// verifier.
	mixed bool
}

// dataOp is the generator's own account of one data operation: what the
// expected verdicts are computed from.
type dataOp struct {
	rank, epoch int
	write       bool
	off         int64
}

// generate returns the trace of sh for seed and the data operations in it.
// The same arguments always give the same trace.
func generate(sh shape, seed int64) (*trace.Trace, []dataOp) {
	tr := trace.New(sh.ranks)
	ops := make([]dataOp, 0, sh.ranks*(sh.ops+sh.extra))
	for rank := 0; rank < sh.ranks; rank++ {
		tr.Ranks[rank], ops = generateRank(sh, seed, rank, ops)
	}
	tr.Meta["program"] = "verifyio-benchmark"
	return tr, ops
}

func generateRank(sh shape, seed int64, rank int, ops []dataOp) ([]trace.Record, []dataOp) {
	// Seeds below 2^43 and ranks below 2^20 never share a source.
	rng := rand.New(rand.NewSource(seed<<20 + int64(rank)))
	var recs []trace.Record
	tick := int64(2)
	emit := func(layer trace.Layer, fn string, args ...string) {
		recs = append(recs, trace.Record{Rank: rank, Seq: len(recs), Func: fn,
			Layer: layer, Args: args, Tick: tick, Ret: tick + 1})
		tick += 2
	}
	next := strconv.Itoa((rank + 1) % sh.ranks)
	prev := strconv.Itoa((rank + sh.ranks - 1) % sh.ranks)
	send := func() { emit(trace.LayerMPI, "MPI_Send", "comm-world", next, "0", "8") }
	recv := func() { emit(trace.LayerMPI, "MPI_Recv", "comm-world", prev, "0", "8", prev, "0") }

	emit(trace.LayerMPI, "MPI_Barrier", "comm-world")
	emit(trace.LayerPOSIX, "open", "bench.dat", "rw|creat", "3")
	epoch := 0
	for i := 0; i < sh.ops+sh.extra; i++ {
		off := rng.Int63n(sh.window)
		if i >= sh.ops {
			off += sh.window
		}
		write := rank%4 != 3
		if sh.mixed {
			write = rng.Intn(4) != 0
		}
		fn := "pread"
		if write {
			fn = "pwrite"
		}
		emit(trace.LayerPOSIX, fn, "3", strconv.Itoa(opLen), strconv.FormatInt(off, 10))
		ops = append(ops, dataOp{rank: rank, epoch: epoch, write: write, off: off})
		if (i+1)%sh.syncEvery == 0 {
			emit(trace.LayerPOSIX, "fsync", "3")
			if sh.ring && epoch%2 == 1 {
				if rank%2 == 0 {
					send()
					recv()
				} else {
					recv()
					send()
				}
			}
			emit(trace.LayerMPI, "MPI_Barrier", "comm-world")
			epoch++
		}
	}
	emit(trace.LayerPOSIX, "close", "3")
	emit(trace.LayerMPI, "MPI_Barrier", "comm-world")
	return recs, ops
}

// models indexes per-model counts in the order verifyio.Models returns.
const (
	mPOSIX = iota
	mCommit
	mSession
	mMPIIO
	nModels
)

// verdict is what the verifier must report for one trace.
type verdict struct {
	Pairs int64
	Races [nModels]int64
}

// reference computes the expected verdict of a generated trace from its
// data operations alone, by a sort-and-sweep over offsets and epoch
// arithmetic. It never calls conflict, match, hbgraph or verify.
//
// A pair conflicts when the ranks differ, the byte ranges overlap and at
// least one side writes. Two operations of the same epoch have no barrier
// between them, so they race under all four models. Otherwise the barriers
// order them, which satisfies POSIX; Commit is satisfied too, because every
// epoch ends in an fsync on the earlier operation's rank. Session and MPI-IO
// need a close→open or MPI_File_sync pair between a write and the later
// access, and the generator never emits one between epochs: the pair races
// under both iff the earlier operation writes. (A read followed by a write
// needs happens-before only, under every model.)
func reference(ops []dataOp) verdict {
	sorted := append([]dataOp(nil), ops...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].off < sorted[j].off })
	var v verdict
	var sameEpoch, writeFirst int64
	for i := range sorted {
		a := &sorted[i]
		for j := i + 1; j < len(sorted) && sorted[j].off < a.off+opLen; j++ {
			b := &sorted[j]
			if a.rank == b.rank || (!a.write && !b.write) {
				continue
			}
			v.Pairs++
			switch {
			case a.epoch == b.epoch:
				sameEpoch++
			case a.epoch < b.epoch && a.write, b.epoch < a.epoch && b.write:
				writeFirst++
			}
		}
	}
	v.Races[mPOSIX], v.Races[mCommit] = sameEpoch, sameEpoch
	v.Races[mSession], v.Races[mMPIIO] = sameEpoch+writeFirst, sameEpoch+writeFirst
	return v
}
