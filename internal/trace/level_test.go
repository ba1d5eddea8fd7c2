package trace_test

import (
	"bytes"
	"compress/flate"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"verifyio"
	"verifyio/internal/corpus"
	"verifyio/internal/trace"
)

// corpusTraces traces the 91 corpus programs.
func corpusTraces(t *testing.T) []*trace.Trace {
	t.Helper()
	var out []*trace.Trace
	for _, tc := range corpus.Tests() {
		tr, err := corpus.Run(tc)
		if err != nil {
			t.Fatalf("%s: %v", tc.Name, err)
		}
		out = append(out, tr)
	}
	return out
}

// dirBytes writes tr as a directory with the default options and returns the
// size of its files.
func dirBytes(t *testing.T, tr *trace.Trace) int64 {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "trace")
	if err := trace.WriteDir(dir, tr, trace.DefaultEncodeOptions()); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		n += info.Size()
	}
	return n
}

// TestCompressedBytesPerRecordCap holds what the encoder's DEFLATE level
// gives away in size. Its directories are compared, in compressed bytes per
// record, with what the same traces took at flate.DefaultCompression (level
// 6), the level every directory was written at before: 166 389 B over the
// 19 390 records of the 91 corpus traces (8.581 B/record) and 199 138 B
// over the 33 024 of ScalingTrace(8, 4000, 32<<20, 1) (6.030 B/record). At
// flate.BestSpeed they take 173 803 B (8.964 B/record, 1.045×) and 236 796 B
// (7.170 B/record, 1.189×). The corpus is capped at 1.10×; the scaling
// trace, whose every data operation names its own offset, at 1.20×.
func TestCompressedBytesPerRecordCap(t *testing.T) {
	cases := []struct {
		name         string
		traces       []*trace.Trace
		level6, maxX float64
	}{
		{"91 corpus traces", corpusTraces(t), 166389.0 / 19390, 1.10},
		{"ScalingTrace(8, 4000, 32<<20, 1)", []*trace.Trace{corpus.ScalingTrace(8, 4000, 32<<20, 1)}, 199138.0 / 33024, 1.20},
	}
	for _, c := range cases {
		var n int64
		recs := 0
		for _, tr := range c.traces {
			n += dirBytes(t, tr)
			recs += tr.NumRecords()
		}
		got := float64(n) / float64(recs)
		t.Logf("%s: %d B over %d records, %.3f B/record (%.3f× level 6)", c.name, n, recs, got, got/c.level6)
		if got > c.maxX*c.level6 {
			t.Errorf("%s: %.3f B/record, more than %.2f× level 6's %.3f", c.name, got, c.maxX, c.level6)
		}
	}
}

// redeflate copies the uncompressed rank files of src to dst, each payload
// deflated at level and flagged compressed in its header.
func redeflate(t *testing.T, src, dst string, level int) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		// The header is the magic, the version and the flags byte, whose
		// bit 0 marks a compressed payload.
		if len(raw) < 6 || raw[5]&1 != 0 {
			t.Fatalf("%s: not an uncompressed rank file", e.Name())
		}
		var buf bytes.Buffer
		buf.Write(raw[:5])
		buf.WriteByte(raw[5] | 1)
		fw, err := flate.NewWriter(&buf, level)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fw.Write(raw[6:]); err != nil {
			t.Fatal(err)
		}
		if err := fw.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// renderedReports verifies the directory through VerifyAllStream and renders
// the four reports, less the lines that vary run to run.
func renderedReports(t *testing.T, dir string) string {
	t.Helper()
	reps, _, err := verifyio.VerifyAllStream(dir, verifyio.ReadOptions{}, &verifyio.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, rep := range reps {
		rep.Render(&buf)
	}
	var out strings.Builder
	for _, line := range strings.SplitAfter(buf.String(), "\n") {
		if !strings.HasPrefix(line, "workers:") && !strings.HasPrefix(line, "timing:") {
			out.WriteString(line)
		}
	}
	return out.String()
}

// TestReadsEveryDeflateLevel: the decoder reads a rank file whatever DEFLATE
// level wrote it. Every directory written before the encoder moved to
// flate.BestSpeed was deflated at level 6. The 91 corpus traces and
// ScalingTrace(8, 4000, 32<<20, 1) are written uncompressed, then every rank
// payload is deflated again at levels 1, 6 and 9 and as Huffman codes only;
// every variant must read back as the trace. One corpus trace with races
// must also give the same four rendered reports through VerifyAllStream.
func TestReadsEveryDeflateLevel(t *testing.T) {
	const verified = "flexible"
	levels := []int{flate.BestSpeed, flate.DefaultCompression, flate.BestCompression, flate.HuffmanOnly}
	traces := append(corpusTraces(t), corpus.ScalingTrace(8, 4000, 32<<20, 1))
	checked := false
	for i, tr := range traces {
		raw := filepath.Join(t.TempDir(), "raw")
		if err := trace.WriteDir(raw, tr, trace.EncodeOptions{}); err != nil {
			t.Fatal(err)
		}
		var reports string
		if tr.Meta["program"] == verified {
			reports, checked = renderedReports(t, raw), true
		}
		for _, level := range levels {
			dir := filepath.Join(t.TempDir(), "deflated")
			redeflate(t, raw, dir, level)
			got, err := trace.ReadDir(dir)
			if err != nil {
				t.Fatalf("trace %d (%s), level %d: %v", i, tr.Meta["program"], level, err)
			}
			if !reflect.DeepEqual(got, tr) {
				t.Fatalf("trace %d (%s), level %d: reads back as another trace", i, tr.Meta["program"], level)
			}
			if reports != "" {
				if rendered := renderedReports(t, dir); rendered != reports {
					t.Errorf("%s, level %d: reports\n%s\nwant\n%s", verified, level, rendered, reports)
				}
			}
		}
	}
	if !checked {
		t.Errorf("no corpus trace is named %s: no reports were compared", verified)
	}
}
