package conflict

import (
	"bytes"
	"testing"

	"verifyio/internal/trace"
)

// detectMemoFree replays tr with the handle memo cleared after every record,
// so every handle resolves through the handle table.
func detectMemoFree(tr *trace.Trace) (*Result, error) {
	d := NewDetector(len(tr.Ranks))
	for rank := range tr.Ranks {
		rp := d.replayers[rank]
		tr.ReadRank(rank, func(steps []trace.Step) {
			for i := range steps {
				rp.step(&steps[i])
				rp.memo = nil
			}
		})
	}
	return d.Finish(Options{Workers: 1})
}

// TestReplayHandleMemoMatchesMemoFree covers every way a handle's binding
// changes under the replay's last-handle memo — a descriptor closed and
// reopened on another path, a stream id reused by fopen, MPI_File_close
// resolving through its nested close, a path unlinked and re-created — and
// handles interleaved so the memo keeps missing. Each Result must equal the
// memo-free replay's, and the rebound handles must land on the new file.
func TestReplayHandleMemoMatchesMemoFree(t *testing.T) {
	cases := map[string]struct {
		tr *trace.Trace
		// The last data operation of rank lastRank must resolve to the
		// path lastFile.
		lastRank int
		lastFile string
	}{
		"fd-reopened-on-another-path": {buildTrace(2,
			[]string{"0", "open", "a", "rw|creat", "3"},
			[]string{"0", "write", "3", "8"},
			[]string{"0", "write", "3", "8"},
			[]string{"0", "close", "3"},
			[]string{"0", "write", "3", "8"}, // a closed fd: skipped
			[]string{"0", "open", "b", "rw|creat", "3"},
			[]string{"1", "open", "b", "rw|creat", "3"},
			[]string{"1", "pwrite", "3", "4", "2"},
			[]string{"1", "pwrite", "3", "4", "10"},
			[]string{"0", "write", "3", "8"},
		), 0, "b"},
		"stream-id-reused": {buildTrace(2,
			[]string{"1", "fopen", "a", "w", "0x1"},
			[]string{"1", "fwrite", "0x1", "4", "2"},
			[]string{"1", "fclose", "0x1"},
			[]string{"1", "fseek", "0x1", "0", "SEEK_SET"}, // a closed stream: skipped
			[]string{"1", "fopen", "b", "a", "0x1"},
			[]string{"1", "fwrite", "0x1", "4", "2"},
			[]string{"0", "open", "b", "rw|creat", "3"},
			[]string{"0", "pwrite", "3", "8", "0"},
			[]string{"1", "fwrite", "0x1", "1", "8"},
		), 1, "b"},
		"mpi-close-through-nested-close": {buildTrace(2,
			[]string{"0", "open", "f", "rw|creat", "5"},
			[]string{"0", "open", "g", "rw|creat", "6"},
			[]string{"0", "pwrite", "5", "8", "0"},
			[]string{"0", "close", "5"},
			[]string{"0", "fsync", "5"}, // after the close: skipped
			[]string{"0", "fsync", "6"},
			[]string{"0", "MPI_File_close", "5"},
			[]string{"0", "MPI_File_sync", "6"},
			[]string{"1", "open", "g", "rw|creat", "5"},
			[]string{"1", "pread", "5", "8", "0"},
			[]string{"0", "pwrite", "6", "8", "0"},
		), 0, "g"},
		"unlink-and-recreate": {buildTrace(2,
			[]string{"0", "open", "f", "rw|creat", "3"},
			[]string{"0", "write", "3", "16"},
			[]string{"0", "close", "3"},
			[]string{"0", "unlink", "f"},
			[]string{"0", "open", "f", "rw|creat|trunc", "3"},
			[]string{"0", "lseek", "3", "4", "SEEK_END"},
			[]string{"1", "open", "f", "r", "4"},
			[]string{"1", "pread", "4", "8", "0"},
			[]string{"0", "write", "3", "8"},
		), 0, "f"},
		"interleaved-handles": {buildTrace(2,
			[]string{"0", "open", "f", "rw|creat", "3"},
			[]string{"0", "fopen", "g", "a", "0x9"},
			[]string{"0", "write", "3", "4"},
			[]string{"0", "fwrite", "0x9", "2", "2"},
			[]string{"0", "lseek", "3", "0", "SEEK_SET"},
			[]string{"0", "fwrite", "0x9", "2", "2"},
			[]string{"0", "write", "3", "4"},
			[]string{"1", "open", "g", "r", "3"},
			[]string{"1", "pread", "3", "16", "0"},
			[]string{"0", "fclose", "0x9"},
			[]string{"0", "ftruncate", "3", "2"},
			[]string{"0", "write", "3", "4"},
		), 0, "f"},
	}
	for name, c := range cases {
		got, err := DetectOpts(c.tr, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		want, err := detectMemoFree(c.tr)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resultFingerprint(t, got), resultFingerprint(t, want)) {
			t.Errorf("%s: Result differs from the memo-free replay", name)
		}
		var last Op // Ops ascend by (rank, seq): the rank's last wins
		for _, op := range got.Ops {
			if int(op.Ref.Rank) == c.lastRank {
				last = op
			}
		}
		if path := got.PathOf(int(last.FID)); path != c.lastFile {
			t.Errorf("%s: rank %d's last data operation resolved to %q, want %q", name, c.lastRank, path, c.lastFile)
		}
	}
}

// TestDetectFewOpAllocations pins what one detection allocates on a 2-rank,
// 20-op trace — the shape of a corpus trace, where a detection's fixed costs
// are paid once per trace — at the count the detector allocated before its
// offset partition: 86 at Workers=1.
func TestDetectFewOpAllocations(t *testing.T) {
	tr := synthTrace(2, 10, 1<<10, 3)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := DetectOpts(tr, Options{Workers: 1}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 86 {
		t.Errorf("%.0f allocations per detection of 20 ops on 2 ranks, want <= 86", allocs)
	}
}
