package verifyio

import (
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"verifyio/internal/verify"
)

// metricToken matches a backticked lower-case dotted name (`pkg.metric_name`).
// Go identifiers carry capitals and paths carry slashes, so neither matches;
// file names are told apart by their extension.
var (
	metricToken = regexp.MustCompile("`([a-z][a-z0-9_]*(?:\\.[a-z0-9_-]+)+)`")
	fileExt     = regexp.MustCompile(`\.(go|md|json|jsonl|txt|log|bin|dot|svg|viot|sig|yml|sh|mod)$`)
	// testToken matches a backticked test, fuzz target or benchmark name
	// (`TestX`, `TestX/sub`); testFunc finds their declarations.
	testToken = regexp.MustCompile("`((?:Test|Fuzz|Benchmark)[A-Z0-9_][A-Za-z0-9_]*)")
	testFunc  = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)[A-Za-z0-9_]*)\(`)
)

// testFuncs returns the name of every test, fuzz target and benchmark
// declared in a _test.go file of the repository.
func testFuncs(t *testing.T) map[string]bool {
	t.Helper()
	funcs := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && strings.HasPrefix(d.Name(), "."):
			return fs.SkipDir // .git and the like
		case !strings.HasSuffix(path, "_test.go"):
			return nil
		}
		src, err := os.ReadFile(path)
		for _, m := range testFunc.FindAllSubmatch(src, -1) {
			funcs[string(m[1])] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return funcs
}

// TestDocsQuoteKnownNames pins the vocabulary of README.md, DESIGN.md and
// EXPERIMENTS.md in both directions: they do not mention deleted commands,
// flags, packages or CI jobs, every test, fuzz target or benchmark they quote
// is declared in some _test.go file, every `pkg.metric_name` they quote is a
// BENCHMARK.json metric or workload name or a ledger cell (`<stage>.<column>`,
// e.g. `detect.out`), and DESIGN §11 quotes every ledger stage and column.
func TestDocsQuoteKnownNames(t *testing.T) {
	known := map[string]bool{}

	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named []struct{ Name string }
	var bm struct {
		Workloads named
		EndToEnd  named `json:"end_to_end"`
		PerLayer  named `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bm); err != nil {
		t.Fatal(err)
	}
	for _, list := range []named{bm.Workloads, bm.EndToEnd, bm.PerLayer} {
		for _, n := range list {
			known[n.Name] = true
		}
	}

	row := reflect.TypeOf(verify.Row{})
	columns := make([]string, row.NumField())
	for i := range columns {
		columns[i] = row.Field(i).Name
	}
	for _, stage := range verify.Stages {
		for _, column := range columns {
			known[stage+"."+strings.ToLower(column)] = true
		}
	}
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, ledger, _ := strings.Cut(string(design), "\n## 11. Stage ledger and spans\n")
	ledger, _, _ = strings.Cut(ledger, "\n## ")
	for _, name := range append(verify.Stages[:], columns...) {
		if !strings.Contains(ledger, "`"+name+"`") {
			t.Errorf("DESIGN.md §11 does not document the ledger's `%s`", name)
		}
	}

	tests := testFuncs(t)
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, gone := range []string{"cmd/bench", "BENCH_analyze", "-stream-smoke",
			"obscheck", "obs-smoke", "dfg-smoke", "-debug-addr", "-dfg-out",
			"verifyio-dfg", "-corpus-out", "divergent-rank", "internal/dfg",
			"-algorithm", "AlgoByName", "RenderDiagnoses", "NewStream",
			"SegProber", "ProbeSeg", "SegCoords", "hb_fallbacks", "hb_fast_hits",
			"DisableFastPaths", "mscDFS", "buildWFrom", "buildWTo",
			"DefaultSegReachBudget", "ByteBudget", "segreach_bytes", "seg-reach",
			"-metrics-out", "WriteMetrics", "DoObs", "group_fanout", "AnalyzeWall",
			"DetectMatchWall", "ValidateSnapshot", "SkeletonMaxLevelWidth",
			"vcMinParallelWidth", "max_level_width"} {
			if strings.Contains(string(text), gone) {
				t.Errorf("%s mentions %q, which no longer exists", doc, gone)
			}
		}
		for _, m := range testToken.FindAllStringSubmatch(string(text), -1) {
			if !tests[m[1]] {
				t.Errorf("%s quotes `%s`, which no _test.go file declares", doc, m[1])
			}
		}
		for _, m := range metricToken.FindAllStringSubmatch(string(text), -1) {
			if name := m[1]; !fileExt.MatchString(name) && !known[name] {
				t.Errorf("%s quotes `%s`: neither a BENCHMARK.json name nor a ledger cell", doc, name)
			}
		}
	}
}
