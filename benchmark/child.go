package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"verifyio"
)

// plan is what the parent stages for one child process. Every workload is
// measured in a child of its own, so that peak RSS and the Go heap's state
// belong to the workload and not to set-up or to the workload before it.
type plan struct {
	Workload string
	Traced   bool
	// Seconds bounds the measuring loop; 0 means Iterations exactly.
	Seconds    float64
	Iterations int
	// Dir is scratch space the child may write under.
	Dir    string
	Traces []stagedTrace
	// BaseCache is a pristine verdict cache warmed before the input grew
	// (see warmCache); FullCache one warmed with the input itself. Copies
	// are restored from them, untimed, before each use.
	BaseCache string `json:",omitempty"`
	FullCache string `json:",omitempty"`
	// KeepSpans has the traced pass report every span, for -trace-out.
	KeepSpans bool `json:",omitempty"`
}

// childResult is what a child reports on its standard output.
type childResult struct {
	Iterations     int
	ReportsChecked int
	VerdictErrors  int
	Records        int
	Golden         golden

	// Untraced pass: one sample per timed iteration.
	WallMS     []float64 `json:",omitempty"`
	CPUMS      []float64 `json:",omitempty"`
	PeakRSSMiB float64   `json:",omitempty"`

	// Traced pass: per-layer metrics (medians over iterations) and, per span
	// name, the median total and self time of an iteration.
	Layers   map[string]float64  `json:",omitempty"`
	Spans    map[string]spanTime `json:",omitempty"`
	AllSpans []span              `json:",omitempty"`
}

// golden condenses the reports of one iteration: per model the summed
// conflict pairs and races and a digest of the sorted race details. It is
// derived from the verifier, so it detects change, not error.
type golden [nModels]struct {
	Pairs, Races int64
	Details      string
}

// runner drives the workload's path through the public verifyio API.
type runner struct {
	w   *workload
	p   *plan
	buf bytes.Buffer
	res childResult
}

func runChild(planPath string) error {
	data, err := os.ReadFile(planPath)
	if err != nil {
		return err
	}
	var p plan
	if err := json.Unmarshal(data, &p); err != nil {
		return err
	}
	w, err := workloadByName(p.Workload)
	if err != nil {
		return err
	}
	r := &runner{w: w, p: &p}
	for i := range p.Traces {
		r.res.Records += p.Traces[i].Records
	}
	if p.Traced {
		err = r.traced()
	} else {
		err = r.untraced()
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(&r.res)
}

// api takes every trace directory of the workload through the public API
// and renders its four reports: ReadTraceDir → VerifyAll → Render, or
// VerifyAllStream → Render on the streaming workload. With cacheDir set an
// on-disk verdict cache is opened before the first trace and closed after
// the last render.
func (r *runner) api(workers int, cacheDir string) ([][]*verifyio.Report, error) {
	r.buf.Reset()
	var cache *verifyio.Cache
	if cacheDir != "" {
		var err error
		if cache, err = verifyio.OpenCache(cacheDir); err != nil {
			return nil, err
		}
	}
	out := make([][]*verifyio.Report, 0, len(r.p.Traces))
	for i := range r.p.Traces {
		t := &r.p.Traces[i]
		opts := &verifyio.Options{Workers: workers}
		if cache != nil {
			opts.Cache, opts.CacheID = cache, cacheID(t)
		}
		var reps []*verifyio.Report
		var err error
		if r.w.stream {
			reps, _, err = verifyio.VerifyAllStream(t.Dir, verifyio.ReadOptions{WindowBytes: streamWindow}, opts)
		} else {
			var tr *verifyio.Trace
			if tr, err = verifyio.ReadTraceDir(t.Dir); err == nil {
				reps, err = verifyio.VerifyAll(tr, opts)
			}
		}
		if err != nil {
			cache.Close()
			return nil, fmt.Errorf("%s: %w", t.Name, err)
		}
		for _, rep := range reps {
			rep.Render(&r.buf)
		}
		out = append(out, reps)
	}
	return out, cache.Close()
}

// check counts an iteration's reports against the references. An error from
// the API fails every report of the iteration.
func (r *runner) check(reps [][]*verifyio.Report, err error) {
	r.res.ReportsChecked += nModels * len(r.p.Traces)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: iteration failed:", err)
		r.res.VerdictErrors += nModels * len(r.p.Traces)
		return
	}
	for i := range r.p.Traces {
		t := &r.p.Traces[i]
		bad := t.Want.errorsIn(reps[i])
		if bad > 0 && r.res.VerdictErrors == 0 {
			want, _ := json.Marshal(t.Want)
			fmt.Fprintf(os.Stderr, "benchmark: %s: %d reports differ from the reference %s:\n", t.Name, bad, want)
			for _, rep := range reps[i] {
				fmt.Fprintf(os.Stderr, "  %s (verified=%v)\n", rep.Summary(), rep.Verified)
			}
		}
		r.res.VerdictErrors += bad
	}
}

// restore replaces the child's working cache with a copy of a pristine one
// and returns its path.
func (r *runner) restore(pristine string) (string, error) {
	dir := filepath.Join(r.p.Dir, "cache-work")
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	if pristine == "" {
		return dir, nil
	}
	return dir, copyDir(dir, pristine)
}

// measuring reports whether the loop that started at start and has
// completed n iterations should run another.
func (p *plan) measuring(start time.Time, n int) bool {
	if p.Seconds > 0 {
		return time.Since(start).Seconds() < p.Seconds
	}
	return n < p.Iterations
}

// untraced is the end-to-end pass: one warm-up, then timed closed-loop
// iterations at the default worker count, each from just before the first
// file open to just after the last Render.
func (r *runner) untraced() error {
	iterate := func() (wall, cpu time.Duration, err error) {
		cacheDir := ""
		if r.w.cached {
			if cacheDir, err = r.restore(r.p.BaseCache); err != nil {
				return 0, 0, err
			}
		}
		runtime.GC()
		cpu0, t0 := cpuTime(), time.Now()
		reps, apiErr := r.api(0, cacheDir)
		wall, cpu = time.Since(t0), cpuTime()-cpu0
		r.check(reps, apiErr)
		if apiErr == nil && r.res.Iterations == 0 {
			r.res.Golden = condense(reps)
		}
		return wall, cpu, nil
	}
	if _, _, err := iterate(); err != nil {
		return err
	}
	r.res.ReportsChecked, r.res.VerdictErrors = 0, 0
	for start := time.Now(); r.p.measuring(start, r.res.Iterations); r.res.Iterations++ {
		wall, cpu, err := iterate()
		if err != nil {
			return err
		}
		r.res.WallMS = append(r.res.WallMS, ms(wall))
		r.res.CPUMS = append(r.res.CPUMS, ms(cpu))
	}
	var err error
	r.res.PeakRSSMiB, err = peakRSSMiB()
	return err
}

// peakRSSMiB is the high-water mark of the process's resident set. It is read
// from VmHWM and not from getrusage: Linux seeds a new program's ru_maxrss
// with the peak of the process that spawned it, so a child's ru_maxrss can be
// the parent's set-up, not the workload.
func peakRSSMiB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kib, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(rest, "kB")), 64)
			return kib / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// cpuTime is the user plus system CPU time the process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func condense(reps [][]*verifyio.Report) golden {
	var g golden
	for m := 0; m < nModels; m++ {
		var details []string
		for _, trace := range reps {
			rep := trace[m]
			g[m].Pairs += rep.ConflictPairs
			g[m].Races += rep.RaceCount
			for _, race := range rep.Races {
				details = append(details, fmt.Sprintf("%s %s %d [%d,%d) %s %d [%d,%d)", race.File,
					race.FuncX, race.RankX, race.StartX, race.EndX,
					race.FuncY, race.RankY, race.StartY, race.EndY))
			}
		}
		sort.Strings(details)
		h := sha256.New()
		for _, d := range details {
			fmt.Fprintln(h, d)
		}
		g[m].Details = hex.EncodeToString(h.Sum(nil))
	}
	return g
}
