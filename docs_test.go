package verifyio

import (
	"bytes"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"verifyio/internal/corpus"
	itrace "verifyio/internal/trace"
	"verifyio/internal/verify"
)

// ledgerSection is the title of the DESIGN.md section that documents every
// ledger stage and column.
const ledgerSection = "Report: ledger, spans and diagnosis"

var (
	fence    = regexp.MustCompile("^ *```")
	codeSpan = regexp.MustCompile("`([^`]+)`")

	// Shapes of an inline code span, tried in this order.
	testName   = regexp.MustCompile(`^((?:Test|Fuzz|Benchmark)[A-Z0-9_][A-Za-z0-9_]*)(?:/\S*)?$`)
	metricName = regexp.MustCompile(`^[a-z][a-z0-9_]*(?:\.[a-z0-9_-]+)+$`)
	fileExt    = regexp.MustCompile(`\.(go|md|json|jsonl|txt|log|bin|dot|svg|viot|sig|yml|sh|mod)$`)
	flagName   = regexp.MustCompile(`^-[a-z][a-z0-9-]*$`)
	spanWords  = regexp.MustCompile(`[./()*,]+`)

	// Words of prose, outside code spans, that are shaped like code:
	// lowerCamel, CamelCase with an inner capital, snake_case, a
	// space-prefixed -flag and a cmd/ or internal/ path.
	proseWord = regexp.MustCompile(`\b(?:[a-z][a-z0-9]*[A-Z]\w*|[A-Z][A-Za-z0-9]*[a-z][A-Za-z0-9]*[A-Z]\w*|[A-Za-z][A-Za-z0-9]*_\w+)\b`)
	proseFlag = regexp.MustCompile(`(?:^|\s)(-[a-z][a-z0-9-]*[a-z0-9])(?:[\s.,;:)]|$)`)
	prosePath = regexp.MustCompile(`(?:^|[\s(])((?:cmd|internal)/[A-Za-z0-9_./*-]*[A-Za-z0-9_*])`)

	testFunc  = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)[A-Za-z0-9_]*)\(`)
	flagDecl  = regexp.MustCompile(`\b(?:flag|fs)\.[A-Z][A-Za-z0-9]*\((?:&[\w.]+,\s*)?"([a-z][\w-]*)"`)
	idToken   = regexp.MustCompile(`[A-Za-z0-9_]+`)
	heading   = regexp.MustCompile(`(?m)^## (\d+)\. (.+)$`)
	designRef = regexp.MustCompile(`DESIGN(?:\.md)? §(\d+)`)
	sectRef   = regexp.MustCompile(`§(\d+)`)
	titleRefs = regexp.MustCompile(`((?:"[^"]+",? (?:and |or )?)+)in DESIGN\.md`)
	quoted    = regexp.MustCompile(`"([^"]+)"`)
	artifact  = regexp.MustCompile(`^==== ([a-z0-9]+) ====\n`)
	laneRow   = regexp.MustCompile("^\\| `([^`]+)` +\\|(.*)\\|$")
	lanePart  = regexp.MustCompile(`<\w+>|\bN\b`)
)

// tree is what the repository declares, as the doc checks read it.
type tree struct {
	tests  map[string]bool // test, fuzz and benchmark functions
	flags  map[string]bool // command-line flags, without the dash
	tokens map[string]bool // identifier-shaped words of the source corpus
	corpus string          // every .go, .sig, .yml and .json file but docs_test.go
}

// scanTree reads the repository's source files once.
func scanTree(t *testing.T) *tree {
	t.Helper()
	tr := &tree{tests: map[string]bool{}, flags: map[string]bool{}, tokens: map[string]bool{}}
	var corpus strings.Builder
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && path != ".github" && strings.HasPrefix(d.Name(), "."):
			return fs.SkipDir // .git, benchmark scratch and the like
		case d.IsDir():
			return nil
		}
		switch filepath.Ext(path) {
		case ".go", ".sig", ".yml", ".json":
		default:
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if path != "docs_test.go" { // it spells out the names it rejects
			corpus.Write(src)
			corpus.WriteByte('\n')
		}
		switch {
		case strings.HasSuffix(path, "_test.go"):
			for _, m := range testFunc.FindAllSubmatch(src, -1) {
				tr.tests[string(m[1])] = true
			}
		case filepath.Ext(path) == ".go":
			for _, m := range flagDecl.FindAllSubmatch(src, -1) {
				tr.flags[string(m[1])] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	tr.corpus = corpus.String()
	for _, tok := range idToken.FindAllString(tr.corpus, -1) {
		tr.tokens[tok] = true
	}
	return tr
}

// hasWord reports whether word occurs in the corpus with no identifier
// character on either side.
func (tr *tree) hasWord(word string) bool {
	if idToken.FindString(word) == word {
		return tr.tokens[word]
	}
	whole := regexp.MustCompile(`(?:^|[^A-Za-z0-9_])` + regexp.QuoteMeta(word) + `(?:[^A-Za-z0-9_]|$)`)
	return whole.MatchString(tr.corpus)
}

// hasPath reports whether the glob pattern names an existing file.
func hasPath(pattern string) bool {
	m, err := filepath.Glob(pattern)
	return err == nil && len(m) > 0
}

// isTopDir reports whether the span's first path segment is a directory at
// the root of the repository.
func isTopDir(span string) bool {
	seg, _, ok := strings.Cut(span, "/")
	if !ok || seg == "" {
		return false
	}
	info, err := os.Stat(seg)
	return err == nil && info.IsDir()
}

// knownMetrics returns the BENCHMARK.json metric and workload names and the
// ledger cells (`<stage>.<column>`, e.g. `detect.out`).
func knownMetrics(t *testing.T) map[string]bool {
	t.Helper()
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
	known := map[string]bool{}
	for _, list := range []named{bm.Workloads, bm.EndToEnd, bm.PerLayer} {
		for _, n := range list {
			known[n.Name] = true
		}
	}
	columns := ledgerColumns()
	for _, stage := range verify.Stages {
		for _, column := range columns {
			known[stage+"."+strings.ToLower(column)] = true
		}
	}
	return known
}

func ledgerColumns() []string {
	row := reflect.TypeOf(verify.Row{})
	columns := make([]string, row.NumField())
	for i := range columns {
		columns[i] = row.Field(i).Name
	}
	return columns
}

// splitFences returns the doc with every fenced block blanked (line breaks
// kept) and the bodies of the fenced blocks.
func splitFences(doc string) (prose string, blocks []string) {
	var out, block strings.Builder
	inside := false
	for _, line := range strings.SplitAfter(doc, "\n") {
		switch {
		case fence.MatchString(strings.TrimSuffix(line, "\n")):
			if inside {
				blocks = append(blocks, block.String())
				block.Reset()
			}
			inside = !inside
			out.WriteString("\n")
		case inside:
			block.WriteString(line)
			out.WriteString("\n")
		default:
			out.WriteString(line)
		}
	}
	return out.String(), blocks
}

// TestDocsQuoteKnownNames holds README.md, DESIGN.md and EXPERIMENTS.md to
// the tree. Every inline code span outside fenced blocks that has no
// whitespace and no <placeholder> must resolve: a test, fuzz or benchmark
// name to a declaration, a dotted lower-case name to a BENCHMARK.json name or
// a ledger cell, a -flag to a flag registration, a path under a top-level
// directory to a file (globs allowed), and anything else, split on
// ". / ( ) * ,", to words that occur whole in some .go, .sig, .yml or .json
// file. Prose words shaped like code get the word, flag and path checks too.
// Section pointers ("<title>" in DESIGN.md, DESIGN §N in source files, §N
// in DESIGN.md) must name a heading, the ledger section must quote every
// stage and column, and a fenced block that starts "==== <name> ====" must
// equal results/<name>.txt.
func TestDocsQuoteKnownNames(t *testing.T) {
	tr := scanTree(t)
	known := knownMetrics(t)

	raw, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	design := string(raw)
	titles, numbers := map[string]bool{}, map[string]bool{}
	for _, m := range heading.FindAllStringSubmatch(design, -1) {
		numbers[m[1]], titles[m[2]] = true, true
	}
	if !titles[ledgerSection] {
		t.Errorf("DESIGN.md has no section %q", ledgerSection)
	}
	_, ledger, _ := strings.Cut(design, ". "+ledgerSection+"\n")
	ledger, _, _ = strings.Cut(ledger, "\n## ")
	for _, name := range append(verify.Stages[:], ledgerColumns()...) {
		if !strings.Contains(ledger, "`"+name+"`") {
			t.Errorf("DESIGN.md %q does not document the ledger's `%s`", ledgerSection, name)
		}
	}
	for _, m := range designRef.FindAllStringSubmatch(tr.corpus, -1) {
		if !numbers[m[1]] {
			t.Errorf("a source file cites DESIGN §%s, which DESIGN.md has no heading for", m[1])
		}
	}
	for _, m := range sectRef.FindAllStringSubmatch(design, -1) {
		if !numbers[m[1]] {
			t.Errorf("DESIGN.md cites §%s, which it has no heading for", m[1])
		}
	}

	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := string(raw)
		// Names no rule can tell from English words.
		for _, gone := range []string{"obscheck", "obs-smoke", "dfg-smoke", "verifyio-dfg", "divergent-rank", "seg-reach",
			"ReadTraceDirOpts", "verifyio.Verify(", "Report.Algorithm", "Analysis.Algorithm", "algorithm:",
			"Stream.NumRanks", "Stream.Meta", "Stream.Counts", "Stream.Stats"} {
			if strings.Contains(text, gone) {
				t.Errorf("%s mentions %q, which no longer exists", doc, gone)
			}
		}
		for _, m := range titleRefs.FindAllStringSubmatch(strings.Join(strings.Fields(text), " "), -1) {
			for _, q := range quoted.FindAllStringSubmatch(m[1], -1) {
				if !titles[q[1]] {
					t.Errorf("%s points to %q in DESIGN.md, which has no such section", doc, q[1])
				}
			}
		}

		prose, blocks := splitFences(text)
		for _, block := range blocks {
			m := artifact.FindStringSubmatch(block)
			if m == nil {
				continue
			}
			want, err := os.ReadFile(filepath.Join("results", m[1]+".txt"))
			if err != nil {
				t.Errorf("%s quotes results/%s.txt: %v", doc, m[1], err)
			} else if !bytes.Equal(bytes.TrimRight(want, "\n"), []byte(strings.TrimRight(block, "\n"))) {
				t.Errorf("%s's copy of results/%s.txt differs from the file", doc, m[1])
			}
		}

		for _, m := range codeSpan.FindAllStringSubmatch(prose, -1) {
			span := m[1]
			switch {
			case strings.ContainsAny(span, " \t\n<"):
			case testName.MatchString(span):
				if name := testName.FindStringSubmatch(span)[1]; !tr.tests[name] {
					t.Errorf("%s quotes `%s`, which no _test.go file declares", doc, name)
				}
			case metricName.MatchString(span) && !fileExt.MatchString(span):
				if !known[span] {
					t.Errorf("%s quotes `%s`: neither a BENCHMARK.json name nor a ledger cell", doc, span)
				}
			case flagName.MatchString(span):
				if !tr.flags[span[1:]] {
					t.Errorf("%s quotes `%s`, which no command registers", doc, span)
				}
			case isTopDir(span):
				if !hasPath(span) {
					t.Errorf("%s quotes `%s`, which names no file", doc, span)
				}
			default:
				for _, word := range spanWords.Split(span, -1) {
					if word != "" && !tr.hasWord(word) {
						t.Errorf("%s quotes `%s`: %q occurs in no source file", doc, span, word)
					}
				}
			}
		}

		words := codeSpan.ReplaceAllString(prose, "\x00")
		for _, word := range proseWord.FindAllString(words, -1) {
			if !tr.hasWord(word) {
				t.Errorf("%s mentions %s, which occurs in no source file", doc, word)
			}
		}
		for _, m := range proseFlag.FindAllStringSubmatch(words, -1) {
			if !tr.flags[m[1][1:]] {
				t.Errorf("%s mentions %s, which no command registers", doc, m[1])
			}
		}
		for _, m := range prosePath.FindAllStringSubmatch(words, -1) {
			if !hasPath(m[1]) {
				t.Errorf("%s mentions %s, which names no file", doc, m[1])
			}
		}
	}
}

// laneSpan is one (lane, span) pairing of DESIGN.md's lane table.
type laneSpan struct {
	lane *regexp.Regexp
	span string
}

// designLanes reads the lane table of DESIGN.md's ledger section: a lane
// pattern (`<model>`, `<F>`, `N` stand for any name or number) and the span
// names quoted beside it.
func designLanes(t *testing.T) []laneSpan {
	t.Helper()
	raw, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, ledger, _ := strings.Cut(string(raw), ". "+ledgerSection+"\n")
	_, lanes, ok := strings.Cut(ledger, "\n| Lane (track)")
	if !ok {
		t.Fatalf("DESIGN.md %q has no lane table", ledgerSection)
	}
	var table []laneSpan
	for _, line := range strings.Split(lanes, "\n")[2:] {
		m := laneRow.FindStringSubmatch(line)
		if m == nil {
			break
		}
		lane := regexp.MustCompile("^" + lanePart.ReplaceAllString(regexp.QuoteMeta(m[1]), `[^/]+`) + "$")
		for _, span := range codeSpan.FindAllStringSubmatch(m[2], -1) {
			table = append(table, laneSpan{lane, span[1]})
		}
	}
	return table
}

// TestSpanVocabularyMatchesDesign pins the span vocabulary both ways: traced
// VerifyAllStream runs at Workers 2 on written directories emit only the
// (lane, span) pairs DESIGN.md's lane table lists, and every listed pair is
// emitted by at least one of them. The traces reach the conditional spans:
// the per-slice sweeps need a shared file with conflicts, the batch lanes
// conflict groups to verify.
func TestSpanVocabularyMatchesDesign(t *testing.T) {
	table := designLanes(t)
	seen := make([]bool, len(table))
	flexible, err := corpus.ByName("flexible")
	if err != nil {
		t.Fatal(err)
	}
	flex, err := corpus.Run(flexible)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range []*itrace.Trace{corpus.ScalingTrace(4, 500, 1<<12, 3), flex} {
		dir := filepath.Join(t.TempDir(), "trace")
		if err := itrace.WriteDir(dir, tr, itrace.DefaultEncodeOptions()); err != nil {
			t.Fatal(err)
		}
		tel := NewTelemetry()
		if _, _, err := VerifyAllStream(dir, ReadOptions{}, &Options{Workers: 2, Telemetry: tel}); err != nil {
			t.Fatal(err)
		}
		events := tel.tracer.Events()
		lanes := map[int]string{}
		for _, e := range events {
			if e.Ph == "M" {
				lanes[e.TID] = e.Args["name"]
			}
		}
		for _, e := range events {
			if e.Ph != "X" {
				continue
			}
			listed := false
			for i, ls := range table {
				if ls.span == e.Name && ls.lane.MatchString(lanes[e.TID]) {
					seen[i], listed = true, true
				}
			}
			if !listed {
				t.Errorf("span %q on lane %q is not in DESIGN.md's lane table", e.Name, lanes[e.TID])
			}
		}
	}
	for i, ls := range table {
		if !seen[i] {
			t.Errorf("DESIGN.md lists span %q on lane %s, which no run emitted", ls.span, ls.lane)
		}
	}
}
