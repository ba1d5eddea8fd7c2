// Command benchmark is the repository's benchmark: trace directory on disk →
// public verifyio API → rendered reports for the four models, on six
// workloads, with a second traced pass for per-layer numbers. README.md in
// this directory has the metric and workload tables; BENCHMARK.json at the
// repository root is the machine-readable manifest.
package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

const (
	// workRoot holds staged inputs while a pass runs; it is emptied after.
	workRoot = ".bench_work"
	// The untraced pass stages its inputs at least minSetups times, and
	// cheap inputs until setupBudget is spent or maxSetups is reached;
	// setup_s is the median.
	minSetups   = 5
	maxSetups   = 11
	setupBudget = 3 * time.Second
	// tracedIterations is the traced pass's iteration count when no
	// -seconds is given.
	tracedIterations = 5
	// maxProcs caps the child's GOMAXPROCS, so that results from a larger
	// machine stay comparable.
	maxProcs = 4
	// goldenSeed is the seed golden.json was recorded with.
	goldenSeed = 1
	// ratioFloor: a full run fails when stage_sum_ratio or
	// analyze_cover_ratio is below it or above its inverse. The expected
	// band is 0.9–1.1, but on a shared 2-vCPU host the two sides of a ratio,
	// timed a second apart, move ±20 % per iteration and the median of five
	// was seen between 0.82 and 1.13 on one commit; only a miss that noise
	// cannot explain, a layer left out of a tree, fails the run.
	ratioFloor = 0.75
)

//go:embed golden.json
var goldenJSON []byte

// value is a measured number with its unit.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// stamp says what produced a result set.
type stamp struct {
	Commit     string
	Go         string
	NProc      int
	GOMAXPROCS int
	Seed       int64
}

// pass is the outcome of one pass, untraced or traced, over one workload.
type pass struct {
	Workload       string
	Traced         bool
	Iterations     int
	ReportsChecked int
	VerdictErrors  int
	Records        int
	// Golden is "match", "MISMATCH" or "not recorded for this seed": how
	// Reports, the condensed reports of one iteration, compare with
	// golden.json.
	Golden      string
	Reports     golden
	HostCalibMS float64
	Metrics     map[string]value
	// The samples behind the end-to-end metrics, for information: wall and
	// CPU time of every timed iteration, and every set-up.
	WallMS  []float64           `json:",omitempty"`
	CPUMS   []float64           `json:",omitempty"`
	SetupsS []float64           `json:",omitempty"`
	Spans   map[string]spanTime `json:",omitempty"`
}

// resultSet is what -out writes and -compare reads.
type resultSet struct {
	Stamp  stamp
	Passes []pass
}

func main() {
	var (
		name      = flag.String("workload", "", "run this workload only (default: all six)")
		seed      = flag.Int64("seed", 1, "seed of the synthetic traces")
		seconds   = flag.Float64("seconds", 0, "measure each pass for this long instead of a fixed iteration count")
		traceMode = flag.Int("trace", -1, "0: untraced end-to-end pass, 1: traced per-layer pass (default: both)")
		out       = flag.String("out", "", "write the result set to this file, for -compare")
		traceOut  = flag.String("trace-out", "", "write the traced pass's spans to this file as Chrome trace-event JSON")
		compare   = flag.Bool("compare", false, "compare two result sets: -compare A.json B.json")
		update    = flag.String("update-golden", "", "record the default seed's reports in this file (benchmark/golden.json)")
		child     = flag.String("child", "", "internal: run the pass this plan file describes")
	)
	flag.Parse()
	var err error
	switch {
	case *child != "":
		err = runChild(*child)
	case *compare:
		if flag.NArg() != 2 {
			err = errors.New("-compare takes two result files")
		} else {
			err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		}
	default:
		err = run(*name, *seed, *seconds, *traceMode, *out, *traceOut, *update)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, traceMode int, out, traceOut, update string) error {
	selected := workloads
	if name != "" {
		w, err := workloadByName(name)
		if err != nil {
			return err
		}
		selected = []workload{*w}
	}
	modes := []bool{false, true}
	if traceMode >= 0 {
		modes = []bool{traceMode == 1}
	}
	procs := min(runtime.NumCPU(), maxProcs)
	set := resultSet{Stamp: stamp{Commit: commit(), Go: runtime.Version(),
		NProc: runtime.NumCPU(), GOMAXPROCS: procs, Seed: seed}}
	fmt.Printf("verifyio benchmark: commit=%s go=%s nproc=%d gomaxprocs=%d seed=%d\n",
		set.Stamp.Commit, set.Stamp.Go, set.Stamp.NProc, procs, seed)

	var events []chromeEvent
	for _, traced := range modes {
		for i := range selected {
			p, spans, err := measure(&selected[i], seed, seconds, traced, procs, traceOut != "")
			if err != nil {
				return fmt.Errorf("%s: %w", selected[i].name, err)
			}
			p.print()
			set.Passes = append(set.Passes, *p)
			events = append(events, chromeEvents(spans, p.Workload, i+1)...)
		}
	}
	if traceOut != "" {
		if err := writeJSON(traceOut, map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
			return err
		}
	}
	if out != "" {
		if err := writeJSON(out, &set); err != nil {
			return err
		}
	}
	if update != "" {
		if err := updateGolden(update, &set); err != nil {
			return err
		}
	}

	single := len(set.Passes) == 1
	failed := 0
	for i := range set.Passes {
		p := &set.Passes[i]
		failed += p.VerdictErrors
		for _, ratio := range []string{"verifyio.stage_sum_ratio", "verify.analyze_cover_ratio"} {
			// On corpus91 the per-trace spans are sub-millisecond, so the
			// ratios are reported only.
			v, ok := p.Metrics[ratio]
			if !ok || p.Workload == "corpus91" || (v.Value >= 0.9 && v.Value <= 1.1) {
				continue
			}
			fmt.Fprintf(os.Stderr, "benchmark: %s: %s = %.3f is outside the expected 0.9–1.1\n", p.Workload, ratio, v.Value)
			if !single && (v.Value < ratioFloor || v.Value > 1/ratioFloor) {
				fmt.Fprintf(os.Stderr, "benchmark: %s: the per-layer cells do not account for the pipeline\n", p.Workload)
				failed++
			}
		}
	}
	if single {
		// The last line is the machine-readable result of the one pass.
		p := &set.Passes[0]
		line, err := json.Marshal(map[string]any{"correct": p.VerdictErrors == 0,
			"attempted": p.ReportsChecked, "failed": p.VerdictErrors, "metrics": p.Metrics})
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		return nil
	}
	if failed > 0 {
		return fmt.Errorf("%d verdict errors or unaccounted ratios", failed)
	}
	return nil
}

// measure stages a workload, runs one pass over it in a child process and
// condenses what the child reports.
func measure(w *workload, seed int64, seconds float64, traced bool, procs int, keepSpans bool) (*pass, []span, error) {
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		return nil, nil, err
	}
	work, err := os.MkdirTemp(workRoot, w.name+"-")
	if err != nil {
		return nil, nil, err
	}
	defer os.Remove(workRoot) // once the last pass has emptied it
	defer os.RemoveAll(work)
	if work, err = filepath.Abs(work); err != nil {
		return nil, nil, err
	}

	// Stage. The untraced pass does it several times over for a steady
	// setup_s and keeps the last.
	var p *plan
	var setupsS []float64
	for start := time.Now(); ; {
		i := len(setupsS)
		if traced && i == 1 || i == maxSetups || i >= minSetups && time.Since(start) >= setupBudget {
			break
		}
		dir := filepath.Join(work, "setup-"+strconv.Itoa(i))
		if p != nil {
			if err := os.RemoveAll(p.Dir); err != nil {
				return nil, nil, err
			}
		}
		t0 := time.Now()
		if p, err = setUp(w, seed, dir, traced); err != nil {
			return nil, nil, err
		}
		setupsS = append(setupsS, time.Since(t0).Seconds())
	}
	p.Seconds, p.Iterations = seconds, w.iterations
	if traced {
		p.Iterations = tracedIterations
	}
	p.KeepSpans = keepSpans
	planPath := filepath.Join(work, "plan.json")
	if err := writeJSON(planPath, p); err != nil {
		return nil, nil, err
	}

	// The reference kernel runs here, before and after the child, so it
	// disturbs neither the child's timings nor its peak RSS.
	calib := calibrate()
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	cmd := exec.Command(exe, "-child", planPath)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("child: %w", err)
	}
	calib = (calib + calibrate()) / 2
	var res childResult
	if err := json.Unmarshal(stdout, &res); err != nil {
		return nil, nil, fmt.Errorf("child output: %w", err)
	}

	out := &pass{Workload: w.name, Traced: traced, Iterations: res.Iterations,
		ReportsChecked: res.ReportsChecked, VerdictErrors: res.VerdictErrors, Records: res.Records,
		Golden: goldenStatus(w.name, seed, res.Golden), Reports: res.Golden, HostCalibMS: calib,
		Metrics: make(map[string]value), Spans: res.Spans}
	if traced {
		res.Layers["host.calib_ms"] = calib
		for _, m := range perLayer {
			if v, ok := res.Layers[m.Name]; ok {
				out.Metrics[m.Name] = value{v, m.Unit}
			}
		}
	} else {
		out.SetupsS, out.WallMS, out.CPUMS = setupsS, res.WallMS, res.CPUMS
		measured := map[string]float64{"setup_s": median(setupsS), "e2e_ms": median(res.WallMS),
			"cpu_ms": median(res.CPUMS), "peak_rss_mib": res.PeakRSSMiB}
		for _, m := range endToEnd {
			out.Metrics[m.Name] = value{measured[m.Name], m.Unit}
		}
	}
	return out, res.AllSpans, nil
}

// setUp stages the workload under dir: its trace directories, for a cached
// workload the verdict cache from before the input grew, and for the traced
// pass both pristine caches its vcache cells restore.
func setUp(w *workload, seed int64, dir string, traced bool) (*plan, error) {
	p := &plan{Workload: w.name, Traced: traced, Dir: dir}
	var err error
	if p.Traces, err = stage(w, seed, dir, w.cached || traced); err != nil {
		return nil, err
	}
	if w.cached || traced {
		p.BaseCache = filepath.Join(dir, "cache-base")
		if err := warmCache(p.BaseCache, p.Traces, true); err != nil {
			return nil, err
		}
	}
	if traced {
		p.FullCache = filepath.Join(dir, "cache-full")
		if err := warmCache(p.FullCache, p.Traces, false); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// calibrate times a fixed reference kernel (sha256 of 64 MiB, sort of a
// million integers), so that a shift on every workload at once can be told
// from a change to the code.
func calibrate() float64 {
	t0 := time.Now()
	block := make([]byte, 1<<20)
	h := sha256.New()
	for i := 0; i < 64; i++ {
		h.Write(block)
	}
	h.Sum(nil)
	rng := rand.New(rand.NewSource(1))
	ints := make([]int, 1<<20)
	for i := range ints {
		ints[i] = rng.Int()
	}
	sort.Ints(ints)
	return ms(time.Since(t0))
}

func (p *pass) print() {
	kind, table := "untraced", endToEnd
	if p.Traced {
		kind, table = "traced", perLayer
	}
	fmt.Printf("\nworkload %s (%s): iterations=%d reports_checked=%d verdict_errors=%d records=%d golden=%q host.calib_ms=%.1f\n",
		p.Workload, kind, p.Iterations, p.ReportsChecked, p.VerdictErrors, p.Records, p.Golden, p.HostCalibMS)
	for _, m := range table {
		v, ok := p.Metrics[m.Name]
		switch {
		case !ok:
			fmt.Printf("  %-32s %14s\n", m.Name, "n/a")
		case m.exact():
			fmt.Printf("  %-32s %14.0f %s\n", m.Name, v.Value, v.Unit)
		default:
			fmt.Printf("  %-32s %14.4f %s\n", m.Name, v.Value, v.Unit)
		}
	}
	if !p.Traced {
		sorted := append([]float64(nil), p.WallMS...)
		sort.Float64s(sorted)
		n := len(sorted)
		fmt.Printf("  information only: e2e_ms n=%d min=%.2f q1=%.2f q3=%.2f max=%.2f, records_per_s=%.0f, set-ups %.3v s\n",
			n, sorted[0], sorted[n/4], sorted[n*3/4], sorted[n-1], float64(p.Records)/p.Metrics["e2e_ms"].Value*1e3, p.SetupsS)
		return
	}
	names := make([]string, 0, len(p.Spans))
	for name := range p.Spans {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("  %-32s %14s %14s\n", "span (median of an iteration)", "total ms", "self ms")
	for _, name := range names {
		fmt.Printf("  %-32s %14.3f %14.3f\n", name, p.Spans[name].TotalMS, p.Spans[name].SelfMS)
	}
}

// commit names the checked-out commit, when there is a git checkout to ask.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// goldenStatus holds a pass's condensed reports against golden.json.
func goldenStatus(name string, seed int64, got golden) string {
	var recorded map[string]golden
	if seed != goldenSeed || json.Unmarshal(goldenJSON, &recorded) != nil {
		return "not recorded for this seed"
	}
	if want, ok := recorded[name]; ok && want == got {
		return "match"
	}
	return "MISMATCH"
}

// updateGolden records the condensed reports of every workload in set.
func updateGolden(path string, set *resultSet) error {
	if set.Stamp.Seed != goldenSeed {
		return fmt.Errorf("golden.json is recorded with -seed %d", goldenSeed)
	}
	recorded := make(map[string]golden)
	for i := range set.Passes {
		recorded[set.Passes[i].Workload] = set.Passes[i].Reports
	}
	return writeJSON(path, recorded)
}
