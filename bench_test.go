// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§V). cmd/reproduce prints the corresponding rows as text
// artifacts; these benchmarks measure the work behind them and expose the
// headline quantities as custom metrics, so
//
//	go test -bench=. -benchmem
//
// regenerates every result's cost profile. Absolute times differ from the
// paper (simulator vs Lassen, scaled workloads — see EXPERIMENTS.md); the
// relative shape (which stage dominates which test, what pruning saves,
// how the algorithms compare) is the reproduced quantity.
package verifyio

import (
	"bytes"
	"testing"

	"verifyio/internal/corpus"
	"verifyio/internal/recorder"
	"verifyio/internal/semantics"
	"verifyio/internal/sim/mpi"
	"verifyio/internal/sim/posixfs"
	"verifyio/internal/trace"
	"verifyio/internal/verify"
)

// corpusTrace runs a corpus test once and returns its trace (helper; the
// traced execution itself is not part of the measured region unless the
// benchmark says so).
func corpusTrace(b *testing.B, name string) *trace.Trace {
	b.Helper()
	tc, err := corpus.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := corpus.Run(tc)
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

// BenchmarkTable1_ModelSpecs measures instantiating and rendering the four
// consistency-model specifications (S and MSC, Table I).
func BenchmarkTable1_ModelSpecs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, m := range semantics.All() {
			if err := m.MSC.Validate(); err != nil {
				b.Fatal(err)
			}
			_ = m.MSC.String()
		}
	}
}

// BenchmarkTable2_APICoverage measures building the Recorder⁺ signature
// registry from the embedded signature files and reports the per-library
// coverage counts (Table II).
func BenchmarkTable2_APICoverage(b *testing.B) {
	reg := recorder.DefaultRegistry()
	b.ReportMetric(float64(reg.Count(recorder.CoverageLegacy, "hdf5")), "legacy-hdf5")
	b.ReportMetric(float64(reg.Count(recorder.CoveragePlus, "hdf5")), "plus-hdf5")
	b.ReportMetric(float64(reg.Count(recorder.CoveragePlus, "netcdf")), "plus-netcdf")
	b.ReportMetric(float64(reg.Count(recorder.CoveragePlus, "pnetcdf")), "plus-pnetcdf")
	sigs := map[string]string{}
	for _, lib := range reg.Libraries() {
		sigs[lib] = ""
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Re-parse a representative signature file the way wrappergen
		// does (coverage is signature-file driven).
		sf, err := recorder.ParseSigFile(sampleSig)
		if err != nil {
			b.Fatal(err)
		}
		if len(sf.Funcs) == 0 {
			b.Fatal("no functions parsed")
		}
	}
}

const sampleSig = `# library: sample
expand TYPE: text schar uchar short ushort int uint long float double longlong ulonglong
int sample_put_var_${TYPE}(int ncid, int varid, const void *op);
int sample_get_var_${TYPE}(int ncid, int varid, void *ip);
int sample_open(const char *path, int mode, int *idp);
`

// BenchmarkFig2_Quickstart measures the full four-step pipeline on the
// paper's running example (Fig. 1 / Fig. 2): trace, detect, match, verify
// against all four models.
func BenchmarkFig2_Quickstart(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tr, err := TraceProgram(2, POSIX, fig2Program)
		if err != nil {
			b.Fatal(err)
		}
		reports, err := VerifyAll(tr, nil)
		if err != nil {
			b.Fatal(err)
		}
		if reports[0].RaceCount != 0 || reports[3].RaceCount != 1 {
			b.Fatalf("Fig. 2 verdicts changed: POSIX=%d MPI-IO=%d",
				reports[0].RaceCount, reports[3].RaceCount)
		}
	}
}

// BenchmarkFig3_Pruning measures the verification step with and without the
// conflict-group pruning (Fig. 3) on the largest-conflict-count corpus test
// and reports the properly-synchronized checks performed.
func BenchmarkFig3_Pruning(b *testing.B) {
	tr := corpusTrace(b, "pmulti_dset")
	a, err := verify.Analyze(tr, verify.AlgoVectorClock, verify.AnalyzeOptions{})
	if err != nil {
		b.Fatal(err)
	}
	model := semantics.MPIIOModel()
	for _, variant := range []struct {
		name    string
		disable bool
	}{{"pruned", false}, {"exhaustive", true}} {
		b.Run(variant.name, func(b *testing.B) {
			var checks int64
			var races int64
			for i := 0; i < b.N; i++ {
				rep, err := a.Verify(verify.Options{Model: model, DisablePruning: variant.disable})
				if err != nil {
					b.Fatal(err)
				}
				checks = rep.ChecksPerformed
				races = rep.RaceCount
			}
			b.ReportMetric(float64(checks), "ps-checks")
			b.ReportMetric(float64(races), "races")
		})
	}
}

// BenchmarkFig4_Corpus measures one full evaluation pass: all 91 corpus
// tests traced and verified against all four models (the work behind every
// Fig. 4 row), reporting the Table III totals as metrics.
func BenchmarkFig4_Corpus(b *testing.B) {
	var posixRacy, relaxedRacy, unmatched int
	for i := 0; i < b.N; i++ {
		posixRacy, relaxedRacy, unmatched = 0, 0, 0
		for _, tc := range corpus.Tests() {
			row, err := corpus.Verify(tc, verify.AlgoVectorClock)
			if err != nil {
				b.Fatal(err)
			}
			switch {
			case row.Unmatched:
				unmatched++
			default:
				if row.Races[0] > 0 {
					posixRacy++
				}
				if row.Races[3] > 0 {
					relaxedRacy++
				}
			}
		}
	}
	if posixRacy != 6 || relaxedRacy != 28 || unmatched != 3 {
		b.Fatalf("Table III totals changed: %d/%d/%d", posixRacy, relaxedRacy, unmatched)
	}
	b.ReportMetric(float64(posixRacy), "posix-racy")
	b.ReportMetric(float64(relaxedRacy), "relaxed-racy")
	b.ReportMetric(float64(unmatched), "unmatched")
}

// BenchmarkTable3_Summary measures aggregating Fig. 4 rows into the
// Table III summary.
func BenchmarkTable3_Summary(b *testing.B) {
	var rows []*corpus.Row
	for _, name := range []string{"parallel5", "flexible", "shapesame", "scalar", "collective_error"} {
		tc, err := corpus.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		row, err := corpus.Verify(tc, verify.AlgoVectorClock)
		if err != nil {
			b.Fatal(err)
		}
		rows = append(rows, row)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := corpus.Summarize(rows)
		if corpus.Totals(s.Unmatched) != 1 {
			b.Fatal("summary changed")
		}
	}
}

// BenchmarkTable4_Breakdown measures the per-stage cost of the three
// slowest tests (Table IV): nc4perf and pmulti_dset are dominated by
// conflict handling/verification, cache by happens-before construction.
func BenchmarkTable4_Breakdown(b *testing.B) {
	for _, name := range []string{"nc4perf", "cache", "pmulti_dset"} {
		tr := corpusTrace(b, name)
		b.Run(name, func(b *testing.B) {
			var l verify.Ledger
			for i := 0; i < b.N; i++ {
				a, err := verify.Analyze(tr, verify.AlgoVectorClock, verify.AnalyzeOptions{})
				if err != nil {
					b.Fatal(err)
				}
				rep, err := a.Verify(verify.Options{Model: semantics.MPIIOModel()})
				if err != nil {
					b.Fatal(err)
				}
				l = rep.Ledger
			}
			b.ReportMetric(float64(l.Detect.Time.Nanoseconds()), "ns-detect")
			b.ReportMetric(float64(l.Graph.Time.Nanoseconds()), "ns-graph")
			b.ReportMetric(float64(l.Oracle.Time.Nanoseconds()), "ns-vclock")
			b.ReportMetric(float64(l.Verify.Time.Nanoseconds()), "ns-verify")
		})
	}
}

// BenchmarkFig5_FlexibleAggregation measures the flexible test's pipeline —
// the PnetCDF MPI-IO violation (Fig. 5) — asserting its verdict shape.
func BenchmarkFig5_FlexibleAggregation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tc, err := corpus.ByName("flexible")
		if err != nil {
			b.Fatal(err)
		}
		row, err := corpus.Verify(tc, verify.AlgoVectorClock)
		if err != nil {
			b.Fatal(err)
		}
		if row.Races[0] != 0 || row.Races[3] == 0 {
			b.Fatalf("flexible verdicts changed: %v", row.Races)
		}
	}
}

// BenchmarkFig6_HDF5Pattern measures the improper (write/barrier/read) and
// proper (write/flush/barrier/flush/read) HDF5 patterns of Fig. 6.
func BenchmarkFig6_HDF5Pattern(b *testing.B) {
	for _, variant := range []struct {
		name     string
		test     string
		wantRace bool
	}{
		{"improper-shapesame", "shapesame", true},
		{"clean-chunk-alloc", "t_chunk_alloc", false},
	} {
		b.Run(variant.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tc, err := corpus.ByName(variant.test)
				if err != nil {
					b.Fatal(err)
				}
				row, err := corpus.Verify(tc, verify.AlgoVectorClock)
				if err != nil {
					b.Fatal(err)
				}
				if got := row.Races[3] > 0; got != variant.wantRace {
					b.Fatalf("%s MPI-IO racy = %v, want %v", variant.test, got, variant.wantRace)
				}
			}
		})
	}
}

// BenchmarkHBAlgorithms compares the happens-before algorithms of §IV-D on
// one mid-size trace, all four of them — the data behind the paper's
// future-work dynamic algorithm selection.
func BenchmarkHBAlgorithms(b *testing.B) {
	tr := corpusTrace(b, "nc4perf")
	model := semantics.MPIIOModel()
	for _, algo := range []verify.Algo{
		verify.AlgoVectorClock, verify.AlgoReachability,
		verify.AlgoOnTheFly, verify.AlgoSegment,
	} {
		b.Run(algo.String(), func(b *testing.B) {
			var races int64 = -1
			for i := 0; i < b.N; i++ {
				a, err := verify.Analyze(tr, algo, verify.AnalyzeOptions{})
				if err != nil {
					b.Fatal(err)
				}
				rep, err := a.Verify(verify.Options{Model: model})
				if err != nil {
					b.Fatal(err)
				}
				if races >= 0 && rep.RaceCount != races {
					b.Fatalf("algorithms disagree: %d vs %d", rep.RaceCount, races)
				}
				races = rep.RaceCount
			}
		})
	}
}

// BenchmarkTraceIO measures trace serialization with and without
// compression (the Recorder component the paper keeps from Recorder 2.0).
func BenchmarkTraceIO(b *testing.B) {
	tr := corpusTrace(b, "cache") // MPI-heavy: the most records
	for _, compress := range []bool{false, true} {
		name := "raw"
		if compress {
			name = "compressed"
		}
		b.Run("encode-"+name, func(b *testing.B) {
			var size int
			for i := 0; i < b.N; i++ {
				var buf bytes.Buffer
				if err := trace.Encode(&buf, tr, trace.EncodeOptions{Compress: compress}); err != nil {
					b.Fatal(err)
				}
				size = buf.Len()
			}
			b.ReportMetric(float64(size), "bytes")
			b.ReportMetric(float64(size)/float64(tr.NumRecords()), "bytes/record")
		})
		b.Run("decode-"+name, func(b *testing.B) {
			var buf bytes.Buffer
			if err := trace.Encode(&buf, tr, trace.EncodeOptions{Compress: compress}); err != nil {
				b.Fatal(err)
			}
			data := buf.Bytes()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				got, err := trace.Decode(bytes.NewReader(data))
				if err != nil {
					b.Fatal(err)
				}
				if got.NumRecords() != tr.NumRecords() {
					b.Fatal("decode lost records")
				}
			}
		})
	}
}

// fig2Program is the Fig. 2 running example shared with the quickstart.
func fig2Program(r *Rank) error {
	comm := r.Proc().CommWorld()
	fd, err := r.Open("fig2.bin", 0x2|0x40) // O_RDWR|O_CREAT
	if err != nil {
		return err
	}
	if r.Rank() == 0 {
		if _, err := r.Pwrite(fd, []byte("abcd"), 0); err != nil {
			return err
		}
		if err := r.Fsync(fd); err != nil {
			return err
		}
	}
	if err := r.Barrier(comm); err != nil {
		return err
	}
	if r.Rank() == 1 {
		if _, err := r.Pread(fd, 4, 0); err != nil {
			return err
		}
	}
	return r.Close(fd)
}

// BenchmarkTracingOverhead measures Recorder⁺'s interception cost (§V-E
// reports <10% for Recorder on real systems): the same I/O+MPI program run
// through the traced wrappers vs directly against the substrates.
func BenchmarkTracingOverhead(b *testing.B) {
	const ranks = 2
	b.Run("traced", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			env := recorder.NewEnv(ranks, recorder.Options{})
			err := env.Run(func(r *recorder.Rank) error {
				c := r.Proc().CommWorld()
				fd, err := r.Open("f", 0x2|0x40)
				if err != nil {
					return err
				}
				for k := int64(0); k < 64; k++ {
					if _, err := r.Pwrite(fd, []byte("datadata"), k*8); err != nil {
						return err
					}
				}
				if err := r.Barrier(c); err != nil {
					return err
				}
				for k := int64(0); k < 64; k++ {
					if _, err := r.Pread(fd, 8, k*8); err != nil {
						return err
					}
				}
				return r.Close(fd)
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("untraced", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			world := mpi.NewWorld(ranks)
			fs := posixfs.New(posixfs.ModePOSIX)
			err := world.Run(func(p *mpi.Proc) error {
				pv := fs.Proc(p.Rank())
				fd, err := pv.Open("f", posixfs.ORdwr|posixfs.OCreate)
				if err != nil {
					return err
				}
				for k := int64(0); k < 64; k++ {
					if _, err := pv.Pwrite(fd, []byte("datadata"), k*8); err != nil {
						return err
					}
				}
				if err := p.Barrier(p.CommWorld()); err != nil {
					return err
				}
				buf := make([]byte, 8)
				for k := int64(0); k < 64; k++ {
					if _, err := pv.Pread(fd, buf, k*8); err != nil {
						return err
					}
				}
				return pv.Close(fd)
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}
