package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"verifyio/internal/verify"
)

// TestResultsRegenerate renders every deterministic artifact into a buffer
// and holds it byte for byte to the committed results/<name>.txt. table4 is
// wall-clock stage timing, different in any two runs, so it is left out;
// nothing is written to results/.
func TestResultsRegenerate(t *testing.T) {
	for _, a := range artifacts(verify.Options{}) {
		if a.name == "table4" {
			continue
		}
		var got bytes.Buffer
		if err := a.write(&got); err != nil {
			t.Fatalf("%s: %v", a.name, err)
		}
		want, err := os.ReadFile(filepath.Join("..", "..", "results", a.name+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(got.Bytes(), want) {
			continue
		}
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := range max(len(gl), len(wl)) {
			g, w := "<end>", "<end>"
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Errorf("%s differs from results/%s.txt at line %d:\n got: %q\nwant: %q", a.name, a.name, i+1, g, w)
				break
			}
		}
	}
}
