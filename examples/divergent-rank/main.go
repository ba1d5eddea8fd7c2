// divergent-rank: spotting the straggler in a fleet with directly-follows
// graphs.
//
// Four ranks run the same bulk-synchronous I/O phase — open a shared file,
// write a private block, fsync, barrier, read the block back, barrier,
// close. Rank 2 misbehaves: before the read-back it grinds through an extra
// read-modify-write loop on its block, the classic signature of a rank that
// fell off the collective-buffering path and is patching its output in
// place.
//
// Every rank's record stream is folded into a per-rank directly-follows
// graph (nodes = call classes tagged with the file they touch, edges =
// successions). The three well-behaved ranks share one structural
// fingerprint, which makes them the majority; rank 2's extra read:f0 →
// write:f0 cycle puts edges in its graph the consensus does not have, so
// its anomaly score is positive and it is flagged. The program prints the
// per-rank scores and exits non-zero unless exactly rank 2 is caught — CI
// runs it as the end-to-end anomaly-detection check.
package main

import (
	"fmt"
	"log"
	"os"

	"verifyio"
	"verifyio/internal/dfg"
	"verifyio/internal/sim/posixfs"
)

const (
	ranks     = 4
	blockSize = 64
	// rmwRounds is how many read-modify-write passes the divergent rank
	// makes over its block — each adds a pread and a pwrite the other
	// ranks never issue.
	rmwRounds = 8
	divergent = 2
)

func program(r *verifyio.Rank) error {
	comm := r.Proc().CommWorld()
	off := int64(r.Rank() * blockSize)
	block := make([]byte, blockSize)
	for i := range block {
		block[i] = byte('a' + r.Rank())
	}

	fd, err := r.Open("data.bin", posixfs.ORdwr|posixfs.OCreate)
	if err != nil {
		return err
	}
	if _, err := r.Pwrite(fd, block, off); err != nil {
		return err
	}
	if err := r.Fsync(fd); err != nil {
		return err
	}
	if err := r.Barrier(comm); err != nil {
		return err
	}
	if _, err := r.Pread(fd, blockSize, off); err != nil {
		return err
	}
	if r.Rank() == divergent {
		for round := 0; round < rmwRounds; round++ {
			data, err := r.Pread(fd, blockSize, off)
			if err != nil {
				return err
			}
			for i := range data {
				data[i] ^= 1
			}
			if _, err := r.Pwrite(fd, data, off); err != nil {
				return err
			}
		}
	}
	if err := r.Barrier(comm); err != nil {
		return err
	}
	return r.Close(fd)
}

func main() {
	tr, err := verifyio.TraceProgram(ranks, verifyio.POSIX, program)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("traced %d records across %d ranks\n\n", tr.NumRecords(), tr.NumRanks())

	// Store the trace and fold it back through the streaming builder — the
	// same bounded-memory path `verifyio-dfg` takes on real traces.
	dir, err := os.MkdirTemp("", "divergent-rank-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	if err := tr.WriteDir(dir); err != nil {
		log.Fatal(err)
	}
	fleet, err := dfg.BuildStreamDir(dir, dfg.StreamOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(fleet.Summary())
	for _, s := range fleet.Scores {
		flag := ""
		if s.Anomalous {
			flag = "  <-- anomalous"
		}
		fmt.Printf("rank %d: struct-diff %2d  count-div %6.2f  score %6.2f%s\n",
			s.Rank, s.StructDiff, s.CountDiv, s.Score, flag)
	}

	if len(fleet.AnomalousRanks) != 1 || fleet.AnomalousRanks[0] != divergent {
		log.Fatalf("expected exactly rank %d anomalous, got %v", divergent, fleet.AnomalousRanks)
	}
	if s := fleet.Scores[divergent]; s.Score <= 0 {
		log.Fatalf("rank %d flagged but its score is %v, want > 0", divergent, s.Score)
	}
	fmt.Printf("\nrank %d correctly flagged: its read-modify-write loop adds edges the\nmajority graph does not have\n", divergent)
}
