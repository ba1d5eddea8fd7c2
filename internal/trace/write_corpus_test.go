package trace_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"testing"

	"verifyio/internal/corpus"
	"verifyio/internal/trace"
)

// rawDirDigest is the SHA-256 of every uncompressed rank file the test below
// writes, in trace and rank order. It changes only when the corpus programs
// or the format do; the test prints the digest it computed.
const rawDirDigest = "6d53d65b46cd434195397b0e0a540d9837fb05bda8b4a7e5b2f175acc5ec529f"

// TestWriteDirMatchesPerRankEncode holds every rank file WriteDir writes to
// Encode of that rank's records renumbered as a single-rank trace, with the
// directory's metadata: the 91 corpus traces and two scaling shapes,
// compressed and not, at 1, 2 and 8 writers. Since Encode and WriteDir share
// one encoder, the uncompressed files are also pinned to a digest, so a
// change in what that encoder writes (the string table's order, say) shows
// too.
func TestWriteDirMatchesPerRankEncode(t *testing.T) {
	var traces []*trace.Trace
	for _, tc := range corpus.Tests() {
		tr, err := corpus.Run(tc)
		if err != nil {
			t.Fatalf("%s: %v", tc.Name, err)
		}
		traces = append(traces, tr)
	}
	traces = append(traces, corpus.ScalingTrace(8, 4000, 32<<20, 1), corpus.ScalingTrace(3, 10000, 1<<12, 2))
	digest := sha256.New()
	for i, tr := range traces {
		for _, compress := range []bool{false, true} {
			opts := trace.EncodeOptions{Compress: compress}
			want := make([][]byte, tr.NumRanks())
			for rank, rs := range tr.Ranks {
				sub := trace.New(1)
				sub.Ranks[0] = trace.Renumber(rs, 0)
				if rank == 0 {
					maps.Copy(sub.Meta, tr.Meta)
				}
				sub.Meta["verifyio.rank"] = fmt.Sprint(rank)
				sub.Meta["verifyio.nranks"] = fmt.Sprint(tr.NumRanks())
				var buf bytes.Buffer
				if err := trace.Encode(&buf, sub, opts); err != nil {
					t.Fatal(err)
				}
				want[rank] = buf.Bytes()
				if !compress {
					digest.Write(want[rank])
				}
			}
			for _, writers := range []int{1, 2, 8} {
				dir := t.TempDir()
				var err error
				trace.NoGoroutineLeft(t, func() { err = trace.WriteDirWriters(dir, tr, opts, writers) })
				if err != nil {
					t.Fatalf("trace %d, writers=%d: %v", i, writers, err)
				}
				if entries, _ := os.ReadDir(dir); len(entries) != len(want) {
					t.Errorf("trace %d, writers=%d: %d files, want %d", i, writers, len(entries), len(want))
				}
				for rank := range want {
					got, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("rank-%d.viot", rank)))
					if err != nil || !bytes.Equal(got, want[rank]) {
						t.Fatalf("trace %d (%s), compress=%v, writers=%d: rank %d file differs from its per-rank Encode (%v)",
							i, tr.Meta["program"], compress, writers, rank, err)
					}
				}
			}
		}
	}
	if got := fmt.Sprintf("%x", digest.Sum(nil)); got != rawDirDigest {
		t.Errorf("uncompressed rank files digest %s, want %s", got, rawDirDigest)
	}
}
