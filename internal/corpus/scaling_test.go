package corpus

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"verifyio/internal/trace"
)

// WriteScalingDir must stage exactly the directory trace.WriteDir would
// produce from the materialized trace — byte for byte, so streaming
// tests over generated directories exercise the real on-disk format.
func TestWriteScalingDirMatchesWriteDir(t *testing.T) {
	const (
		nranks = 3
		ops    = 200
		window = int64(1 << 14)
		seed   = int64(42)
	)
	want := filepath.Join(t.TempDir(), "materialized")
	if err := trace.WriteDir(want, ScalingTrace(nranks, ops, window, seed), trace.DefaultEncodeOptions()); err != nil {
		t.Fatal(err)
	}
	got := filepath.Join(t.TempDir(), "streamed")
	if err := WriteScalingDir(got, nranks, ops, window, seed, trace.DefaultEncodeOptions()); err != nil {
		t.Fatal(err)
	}
	for rank := 0; rank < nranks; rank++ {
		name := fmt.Sprintf("rank-%d.viot", rank)
		a, err := os.ReadFile(filepath.Join(want, name))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(got, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s differs between WriteDir (%d bytes) and WriteScalingDir (%d bytes)", name, len(a), len(b))
		}
	}
}

// ScalingRankRecords must agree with what the generator actually emits — the
// sizing contract tests use to state how many records they staged.
func TestScalingRankRecords(t *testing.T) {
	for _, ops := range []int{1, 63, 64, 65, 1000} {
		got := len(scalingRank(0, 0, ops, 0, 1<<14, 7))
		if want := ScalingRankRecords(ops); got != want {
			t.Errorf("ops=%d: generated %d records, ScalingRankRecords says %d", ops, got, want)
		}
	}
}
