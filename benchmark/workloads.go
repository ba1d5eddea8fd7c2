package main

import (
	"fmt"
	"os"
	"path/filepath"

	"verifyio"
	"verifyio/internal/corpus"
	"verifyio/internal/trace"
)

// workload is one row of the workload table in README.md. Sizes are
// constants: there is no scale flag, so two result sets always measured the
// same inputs.
type workload struct {
	name string
	// iterations is the timed iteration count when no -seconds is given.
	iterations int
	// shape is the synthetic trace; nil for corpus91.
	shape *shape
	// stream sends the trace directory through VerifyAllStream instead of
	// ReadTraceDir + VerifyAll.
	stream bool
	// cached puts an on-disk verdict cache, warmed with the trace minus its
	// appended tail, in front of every timed iteration.
	cached bool
}

// appendPercent is the share of extra operations per rank in the appended
// tail every synthetic trace carries. Only reverify times the cache, but the
// traced pass measures the vcache cells on every workload.
const appendPercent = 1

func synthetic(ranks, ops int, window int64, syncEvery int, ring bool) *shape {
	return &shape{ranks: ranks, ops: ops, window: window,
		extra: ops * appendPercent / 100, syncEvery: syncEvery, ring: ring}
}

var (
	sparseShape = synthetic(8, 32000, 32<<20, 64, false)
	denseShape  = synthetic(8, 12288, 256<<10, 64, false)
)

var workloads = []workload{
	{name: "corpus91", iterations: 40},
	{name: "sparse", iterations: 25, shape: sparseShape},
	{name: "dense", iterations: 25, shape: denseShape},
	{name: "syncheavy", iterations: 25, shape: synthetic(16, 6000, 64<<20, 2, true)},
	{name: "stream", iterations: 25, shape: sparseShape, stream: true},
	{name: "reverify", iterations: 25, shape: denseShape, cached: true},
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// streamWindow is ReadOptions.WindowBytes on the streaming path.
const streamWindow = 8 << 20

// stagedTrace is one trace directory with what the verifier must say of it.
type stagedTrace struct {
	Name    string
	Dir     string
	Records int
	// Base is the same trace without its appended tail; "" for corpus91,
	// whose traces do not grow.
	Base string `json:",omitempty"`
	Want want
}

// want is the reference a trace's four reports are checked against.
type want struct {
	// Unmatched: the trace has unmatched MPI calls, so no report is
	// verified.
	Unmatched bool
	// Exact carries the by-construction counts of a synthetic trace. Nil for
	// a corpus trace, where corpus.Expect only says which models see races.
	Exact       *verdict `json:",omitempty"`
	RacyPOSIX   bool
	RacyRelaxed bool
}

// stage writes the workload's trace directories under dir and returns them
// with their references. With bases it also writes, for a synthetic trace,
// the directory of the trace without its appended tail.
func stage(w *workload, seed int64, dir string, bases bool) ([]stagedTrace, error) {
	if w.shape == nil {
		return stageCorpus(dir)
	}
	tr, ops := generate(*w.shape, seed)
	st := stagedTrace{Name: w.name, Dir: filepath.Join(dir, "trace"), Records: tr.NumRecords()}
	ref := reference(ops)
	st.Want.Exact = &ref
	if err := trace.WriteDir(st.Dir, tr, trace.DefaultEncodeOptions()); err != nil {
		return nil, err
	}
	if bases {
		base := *w.shape
		base.extra = 0
		btr, _ := generate(base, seed)
		st.Base = filepath.Join(dir, "base")
		if err := trace.WriteDir(st.Base, btr, trace.DefaultEncodeOptions()); err != nil {
			return nil, err
		}
	}
	return []stagedTrace{st}, nil
}

// stageCorpus traces the paper's 91 library tests and writes one directory
// each. The seed plays no part: the programs are fixed.
func stageCorpus(dir string) ([]stagedTrace, error) {
	var out []stagedTrace
	for _, t := range corpus.Tests() {
		tr, err := verifyio.RunCorpusTest(t.Name)
		if err != nil {
			return nil, err
		}
		st := stagedTrace{Name: t.Name, Dir: filepath.Join(dir, "traces", t.Name), Records: tr.NumRecords(),
			Want: want{Unmatched: t.Expect.Unmatched, RacyPOSIX: t.Expect.RacesPOSIX, RacyRelaxed: t.Expect.RacesRelaxed}}
		if err := tr.WriteDir(st.Dir); err != nil {
			return nil, err
		}
		out = append(out, st)
	}
	return out, nil
}

// errorsIn counts the reports of one trace that differ from the reference:
// the verified flag, and for a synthetic trace the conflict-pair and race
// counts, for a corpus trace whether the model sees any race.
func (w want) errorsIn(reps []*verifyio.Report) int {
	if len(reps) != nModels {
		return nModels
	}
	bad := 0
	for m, rep := range reps {
		ok := rep.Verified == !w.Unmatched
		switch {
		case !ok || w.Unmatched:
		case w.Exact != nil:
			ok = rep.ConflictPairs == w.Exact.Pairs && rep.RaceCount == w.Exact.Races[m]
		case m == mPOSIX:
			ok = (rep.RaceCount > 0) == w.RacyPOSIX
		default:
			ok = (rep.RaceCount > 0) == w.RacyRelaxed
		}
		if !ok {
			bad++
		}
	}
	return bad
}

// cacheID names a trace for the verdict cache's incremental manifest. A
// trace and its base share it: they are one logical trace that grew.
func cacheID(t *stagedTrace) string { return "benchmark/" + t.Name }

// warmCache verifies the traces into a fresh on-disk verdict cache at dir.
// With grown set, the cache is left in the state from before the input grew:
// a synthetic trace is verified without its appended tail, and corpus91,
// which grows by whole traces, without every tenth trace.
func warmCache(dir string, traces []stagedTrace, grown bool) error {
	cache, err := verifyio.OpenCache(dir)
	if err != nil {
		return err
	}
	for i := range traces {
		t := &traces[i]
		src := t.Dir
		if grown && t.Base != "" {
			src = t.Base
		} else if grown && i%10 == 9 {
			continue
		}
		tr, err := verifyio.ReadTraceDir(src)
		if err == nil {
			_, err = verifyio.VerifyAll(tr, &verifyio.Options{Cache: cache, CacheID: cacheID(t)})
		}
		if err != nil {
			cache.Close()
			return err
		}
	}
	return cache.Close()
}

// copyDir copies the regular files of a flat directory.
func copyDir(dst, src string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// dirBytes sums the sizes of the files in a flat directory.
func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += info.Size()
	}
	return n, nil
}
