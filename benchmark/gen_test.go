package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"verifyio/internal/semantics"
	"verifyio/internal/trace"
	"verifyio/internal/verify"
)

// Tiny shapes, so that an O(n²) brute force stays cheap: a plain one, one
// with an appended tail whose length is no multiple of the cadence, and the
// ring exchange at a sync-heavy cadence.
var tinyShapes = map[string]shape{
	"plain":    {ranks: 4, ops: 300, window: 2048, syncEvery: 16},
	"appended": {ranks: 8, ops: 128, extra: 37, window: 1024, syncEvery: 32},
	"ring":     {ranks: 8, ops: 90, window: 1024, syncEvery: 2, ring: true},
}

var testSeeds = []int64{1, 2, 3}

// traceOp is a data operation as the test reads it back from the records.
type traceOp struct {
	rank     int
	write    bool
	off      int64
	barriers int  // world barriers the rank passed before the operation
	synced   bool // an fsync follows before the rank's next barrier
}

// readBack recovers the data operations from the trace records alone,
// without the generator's own bookkeeping. It fails the test if the trace
// holds anything that could synchronize under Session or MPI-IO between the
// first open and the last close.
func readBack(t *testing.T, tr *trace.Trace) []traceOp {
	t.Helper()
	var ops []traceOp
	for rank, recs := range tr.Ranks {
		barriers, opens, closes := 0, 0, 0
		pending := len(ops) // ops[pending:] have seen neither fsync nor barrier yet
		for i := range recs {
			rec := &recs[i]
			switch rec.Func {
			case "pwrite", "pread":
				off, err := strconv.ParseInt(rec.Args[2], 10, 64)
				if err != nil || rec.Args[1] != strconv.Itoa(opLen) {
					t.Fatalf("rank %d record %d: bad data operation %v", rank, i, rec.Args)
				}
				ops = append(ops, traceOp{rank: rank, write: rec.Func == "pwrite", off: off, barriers: barriers})
			case "fsync":
				for j := pending; j < len(ops); j++ {
					ops[j].synced = true
				}
				pending = len(ops)
			case "MPI_Barrier":
				barriers++
				pending = len(ops)
			case "open":
				opens++
			case "close":
				closes++
			case "MPI_Send", "MPI_Recv":
			default:
				t.Fatalf("rank %d record %d: unexpected %s", rank, i, rec.Func)
			}
		}
		if opens != 1 || closes != 1 || recs[1].Func != "open" || recs[len(recs)-2].Func != "close" {
			t.Fatalf("rank %d: want one open before and one close after all data operations", rank)
		}
	}
	return ops
}

// bruteForce is the O(n²) ground truth over the operations read back.
func bruteForce(ops []traceOp) verdict {
	var v verdict
	for i := range ops {
		for j := i + 1; j < len(ops); j++ {
			a, b := ops[i], ops[j]
			if a.rank == b.rank || (!a.write && !b.write) || a.off+opLen <= b.off || b.off+opLen <= a.off {
				continue
			}
			v.Pairs++
			if a.barriers == b.barriers {
				for m := range v.Races {
					v.Races[m]++
				}
				continue
			}
			earlier := a
			if b.barriers < a.barriers {
				earlier = b
			}
			if !earlier.write {
				continue // read, then barrier, then write: ordered is enough
			}
			if !earlier.synced {
				v.Races[mCommit]++
			}
			v.Races[mSession]++
			v.Races[mMPIIO]++
		}
	}
	return v
}

func TestReferenceMatchesBruteForce(t *testing.T) {
	for name, sh := range tinyShapes {
		for _, seed := range testSeeds {
			tr, ops := generate(sh, seed)
			if err := tr.Validate(); err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			got, want := reference(ops), bruteForce(readBack(t, tr))
			if got != want {
				t.Errorf("%s seed %d: reference %+v, brute force %+v", name, seed, got, want)
			}
			if want.Pairs == 0 || want.Races[mPOSIX] == 0 || want.Races[mSession] == want.Races[mPOSIX] {
				t.Errorf("%s seed %d: degenerate shape %+v", name, seed, want)
			}
		}
	}
}

// verifierCounts runs the verifier serially and returns what it reports.
func verifierCounts(t *testing.T, tr *trace.Trace, unpruned bool) verdict {
	t.Helper()
	a, err := verify.AnalyzeOpts(tr, verify.AlgoAuto, verify.AnalyzeOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var v verdict
	for m, model := range semantics.All() {
		rep, err := a.Verify(verify.Options{Model: model, Workers: 1, DisablePruning: unpruned})
		if err != nil || !rep.Verified {
			t.Fatalf("%s: verified=%v err=%v", model.Name, rep.Verified, err)
		}
		v.Pairs, v.Races[m] = rep.ConflictPairs, rep.RaceCount
	}
	return v
}

// The verifier agrees with the reference on every shape the workloads use.
// On a mixed shape only the unpruned verifier does: see "Known discrepancy"
// in README.md. The test pins the reference to the unpruned answer and logs
// how far the default one is off, so that the repair has a repro.
func TestVerifierAgreesWithReference(t *testing.T) {
	for name, sh := range tinyShapes {
		for _, seed := range testSeeds {
			tr, ops := generate(sh, seed)
			if got, want := verifierCounts(t, tr, false), reference(ops); got != want {
				t.Errorf("%s seed %d: verifier %+v, reference %+v", name, seed, got, want)
			}
			mixed := sh
			mixed.mixed = true
			tr, ops = generate(mixed, seed)
			want := reference(ops)
			if got := bruteForce(readBack(t, tr)); got != want {
				t.Errorf("mixed %s seed %d: brute force %+v, reference %+v", name, seed, got, want)
			}
			if got := verifierCounts(t, tr, true); got != want {
				t.Errorf("mixed %s seed %d: unpruned verifier %+v, reference %+v", name, seed, got, want)
			}
			if got := verifierCounts(t, tr, false); got != want {
				t.Logf("mixed %s seed %d: known discrepancy: default verifier %+v, reference %+v", name, seed, got, want)
			}
		}
	}
}

func TestAppendedPrefixIdentical(t *testing.T) {
	sh := tinyShapes["appended"]
	base := sh
	base.extra = 0
	for _, seed := range testSeeds {
		grown, _ := generate(sh, seed)
		orig, _ := generate(base, seed)
		for rank := range orig.Ranks {
			// Everything before the base's final close + barrier.
			prefix := orig.Ranks[rank][:len(orig.Ranks[rank])-2]
			if len(grown.Ranks[rank]) <= len(orig.Ranks[rank]) {
				t.Fatalf("seed %d rank %d: the appended trace did not grow", seed, rank)
			}
			if !reflect.DeepEqual(prefix, grown.Ranks[rank][:len(prefix)]) {
				t.Errorf("seed %d rank %d: the appended trace changes the prefix", seed, rank)
			}
		}
	}
}

func TestSameSeedSameBytes(t *testing.T) {
	w := &workload{name: "tiny", shape: &shape{ranks: 4, ops: 200, extra: 20, window: 4096, syncEvery: 16}}
	read := func(seed int64) map[string][]byte {
		dir := t.TempDir()
		if _, err := stage(w, seed, dir, true); err != nil {
			t.Fatal(err)
		}
		files := make(map[string][]byte)
		err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
			if err != nil || info.IsDir() {
				return err
			}
			rel, _ := filepath.Rel(dir, path)
			files[rel], err = os.ReadFile(path)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return files
	}
	a, b, other := read(1), read(1), read(2)
	if len(a) != 2*w.shape.ranks || !reflect.DeepEqual(a, b) {
		t.Errorf("two stagings of one seed differ (%d and %d files)", len(a), len(b))
	}
	if reflect.DeepEqual(a, other) {
		t.Error("seeds 1 and 2 stage the same bytes")
	}
}

func TestSpanSelfTime(t *testing.T) {
	s := &spans{t0: time.Now()}
	s.begin("root")
	s.begin("leaf")
	s.end()
	s.begin("leaf")
	s.end()
	s.end()
	// Fixed times instead of measured ones.
	s.all[0].Start, s.all[0].End = 0, 100*time.Millisecond
	s.all[1].Start, s.all[1].End = 10*time.Millisecond, 30*time.Millisecond
	s.all[2].Start, s.all[2].End = 40*time.Millisecond, 90*time.Millisecond
	got := s.byName(0)
	want := map[string]spanTime{"root": {100, 30}, "leaf": {70, 70}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("byName = %v, want %v", got, want)
	}
	if n, covered := s.extent(0); n != 3 || covered != 100*time.Millisecond {
		t.Errorf("extent = %d, %v", n, covered)
	}
}

func TestCompareGates(t *testing.T) {
	write := func(e2e, pairs, decode float64) string {
		set := resultSet{Passes: []pass{
			{Workload: "sparse", Metrics: map[string]value{"e2e_ms": {e2e, "ms"}}},
			{Workload: "sparse", Traced: true, Metrics: map[string]value{
				"conflict.pairs": {pairs, "count"}, "trace.decode_ms": {decode, "ms"}}},
		}}
		path := filepath.Join(t.TempDir(), "set.json")
		if err := writeJSON(path, &set); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write(100, 5000, 40)
	var bound float64
	for _, m := range endToEnd {
		if m.Name == "e2e_ms" {
			bound = 100 * m.Bound
		}
	}
	for _, c := range []struct {
		name string
		path string
		fail bool
	}{
		{"within the bound, traced time doubled", write(100+bound-1, 5000, 80), false},
		{"faster", write(50, 5000, 40), false},
		{"beyond the bound", write(100+bound+1, 5000, 40), true},
		{"a count moved", write(100, 5001, 40), true},
	} {
		var out bytes.Buffer
		err := compareFiles(&out, base, c.path)
		if (err != nil) != c.fail {
			t.Errorf("%s: err = %v\n%s", c.name, err, out.String())
		}
		if !strings.Contains(out.String(), "conflict.pairs") {
			t.Errorf("%s: no row for conflict.pairs:\n%s", c.name, out.String())
		}
	}
}

// BENCHMARK.json at the repository root lists the same metrics, bounds and
// workloads as the tables this package measures by.
func TestManifestMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var manifest struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &manifest); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(manifest.EndToEnd, endToEnd) {
		t.Errorf("end_to_end = %v, the table has %v", manifest.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(manifest.PerLayer, perLayer) {
		t.Errorf("per_layer = %v, the table has %v", manifest.PerLayer, perLayer)
	}
	var names, want []string
	for _, w := range manifest.Workloads {
		names = append(names, w.Name)
	}
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads = %v, the table has %v", names, want)
	}
}
