package verifyio

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

const corpusGolden = "testdata/corpus_reports.golden"

// goldenWindow splits every corpus trace's larger ranks into several batches
// on the directory source.
const goldenWindow = 64 << 10

// reportDigest hashes a rendered report without its run-varying lines (the
// worker count and the stage times).
func reportDigest(rep *Report) string {
	var buf bytes.Buffer
	rep.Render(&buf)
	h := sha256.New()
	for _, line := range strings.SplitAfter(buf.String(), "\n") {
		if strings.HasPrefix(line, "workers:") || strings.HasPrefix(line, "timing:") {
			continue
		}
		h.Write([]byte(line))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestCorpusReportsGolden holds every corpus trace's rendered report, under
// each model, to the digest recorded in testdata/corpus_reports.golden — from
// the in-memory source and from the directory source at a 64 KiB window, at
// Workers 1 and 3. The file was generated at the last commit that had separate
// materialized and streaming pipelines, so "byte-identical reports" is a
// tier-1 check; -update regenerates it from the in-memory source at
// Workers = 1.
func TestCorpusReportsGolden(t *testing.T) {
	want := map[string]string{}
	if !*update {
		data, err := os.ReadFile(corpusGolden)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			f := strings.Fields(line)
			if len(f) != 3 {
				t.Fatalf("%s: malformed line %q", corpusGolden, line)
			}
			want[f[0]+" "+f[1]] = f[2]
		}
	}
	var out strings.Builder
	for _, name := range CorpusTests() {
		tr, err := RunCorpusTest(name)
		if err != nil {
			t.Fatal(err)
		}
		dir := filepath.Join(t.TempDir(), "trace")
		if err := tr.WriteDir(dir); err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 3} {
			opts := &Options{Workers: workers}
			fromMemory, err := VerifyAll(tr, opts)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			fromDir, _, err := VerifyAllStream(dir, ReadOptions{WindowBytes: goldenWindow}, opts)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for source, reps := range map[string][]*Report{"memory": fromMemory, "directory": fromDir} {
				for _, rep := range reps {
					key, got := name+" "+string(rep.Model), reportDigest(rep)
					if *update {
						if source == "memory" && workers == 1 {
							fmt.Fprintf(&out, "%s %s\n", key, got)
						}
						continue
					}
					if got != want[key] {
						t.Errorf("%s from %s at Workers=%d: report digest %s, golden %s",
							key, source, workers, got, want[key])
					}
				}
			}
		}
	}
	if *update {
		if err := os.WriteFile(corpusGolden, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
