package corpus

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"verifyio/internal/trace"
)

// ScalingTrace synthesizes a deterministic trace of nranks ranks, each
// issuing ops pwrite/pread calls of width 16 at pseudo-random offsets
// within window (overlap density is controlled by window), with an
// MPI_Barrier across all ranks every barrierEvery data operations — enough
// MPI structure to give the matcher and happens-before construction real
// work. The same arguments always produce the identical trace.
func ScalingTrace(nranks, ops int, window int64, seed int64) *trace.Trace {
	tr := trace.New(nranks)
	for rank := 0; rank < nranks; rank++ {
		tr.Ranks[rank] = scalingRank(rank, rank, ops, window, seed)
	}
	return tr
}

// scalingRank generates one rank's record stream. seedRank seeds the rng —
// it is the rank's world position, kept separate from the rank stamped into
// the records so a stream can be emitted pre-renumbered to rank 0 (the
// single-rank layout trace.WriteDir stores) without changing its content.
// Seeding per rank keeps a rank's stream independent of nranks.
func scalingRank(rank, seedRank, ops int, window int64, seed int64) []trace.Record {
	const barrierEvery = 64
	recs := make([]trace.Record, 0, ScalingRankRecords(ops))
	rng := rand.New(rand.NewSource(seed + int64(seedRank)))
	tick := int64(2)
	emit := func(layer trace.Layer, fn string, args ...string) {
		recs = append(recs, trace.Record{Rank: rank, Seq: len(recs), Func: fn,
			Layer: layer, Args: args, Tick: tick, Ret: tick + 1})
		tick += 2
	}
	emit(trace.LayerMPI, "MPI_Barrier", "comm-world")
	emit(trace.LayerPOSIX, "open", "scaling.dat", "rw|creat", "3")
	for i := 0; i < ops; i++ {
		off := fmt.Sprint(rng.Int63n(window))
		if rng.Intn(4) == 0 {
			emit(trace.LayerPOSIX, "pread", "3", "16", off)
		} else {
			emit(trace.LayerPOSIX, "pwrite", "3", "16", off)
		}
		if (i+1)%barrierEvery == 0 {
			emit(trace.LayerPOSIX, "fsync", "3")
			emit(trace.LayerMPI, "MPI_Barrier", "comm-world")
		}
	}
	emit(trace.LayerPOSIX, "close", "3")
	emit(trace.LayerMPI, "MPI_Barrier", "comm-world")
	return recs
}

// ScalingRankRecords returns the per-rank record count of a scaling trace
// with the given data-operation count: open/close bracketing, the ops
// themselves, and an fsync+barrier pair every 64 ops.
func ScalingRankRecords(ops int) int {
	return 2 + ops + 2*(ops/64) + 2
}

// WriteScalingDir stores ScalingTrace(nranks, ops, window, seed) as a trace
// directory while only ever materializing one rank's records: each rank
// stream is generated, encoded to its rank-N.viot file, and dropped. The
// directory is identical to trace.WriteDir of the materialized trace, which
// makes arbitrarily large streaming-ingestion workloads cheap to stage —
// the generator needs O(records/nranks) memory, not O(records).
func WriteScalingDir(dir string, nranks, ops int, window int64, seed int64, opts trace.EncodeOptions) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for rank := 0; rank < nranks; rank++ {
		sub := trace.New(1)
		sub.Ranks[0] = scalingRank(0, rank, ops, window, seed)
		sub.Meta["verifyio.rank"] = fmt.Sprint(rank)
		sub.Meta["verifyio.nranks"] = fmt.Sprint(nranks)
		f, err := os.Create(filepath.Join(dir, fmt.Sprintf("rank-%d.viot", rank)))
		if err != nil {
			return err
		}
		if err := trace.Encode(f, sub, opts); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
