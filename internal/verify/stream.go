package verify

import (
	"fmt"
	"io"
	"time"

	"verifyio/internal/conflict"
	"verifyio/internal/match"
	"verifyio/internal/obs"
	"verifyio/internal/par"
	"verifyio/internal/trace"
)

// StreamAnalyzeOptions tunes AnalyzeStream.
type StreamAnalyzeOptions struct {
	AnalyzeOptions
	// Decode passes trace decoding options through (tolerate mode, limits).
	// Its Obs field is overridden with AnalyzeOptions.Obs so the decode
	// spans join the analysis trace.
	Decode trace.DecodeOptions
	// WindowBytes bounds the decoded records resident at once, exactly as
	// trace.StreamOptions.WindowBytes: 0 means the default window, negative
	// means unbounded.
	WindowBytes int64
	// OnBatch, when set, observes every record batch of the fused pass
	// before the analysis stages consume it — the hook a secondary
	// consumer (the DFG builder) rides to share one bounded decode.
	// AnalyzeStream releases the batch after the analysis stages run, so
	// the callback must neither retain b.Recs nor call b.Release (the
	// pool contract documented on trace.Batch.Release).
	OnBatch func(b *trace.Batch)
}

// AnalyzeStream runs steps 2 and 3 directly off the decoder: conflict
// detection, MPI matching, and the cache digests all consume each record
// batch as it decodes, so peak memory is bounded by the decode window
// instead of the trace size. The resulting Analysis is verification-
// equivalent to AnalyzeOpts(ReadDir(dir)) — same conflicts, same matcher
// output, same oracle — but carries no materialized trace and no path back
// to the directory: race details come from the detector's signature table
// and the verdict cache reads the digests collected during the pass.
//
// Because decode, detect and match are fused into one pass, the per-stage
// Timing split differs from the materialized path: DetectConflicts and
// Match cover only each stage's cross-rank finish phase, and the fused
// pass's wall time is reported as DetectMatchWall (ReadTrace stays zero).
func AnalyzeStream(dir string, algo Algo, opts StreamAnalyzeOptions) (*Analysis, error) {
	workers := par.Resolve(opts.Workers)
	oc, span := opts.Obs.Start("analyze", obs.Int("workers", workers), obs.String("mode", "stream"))
	span.SetCat("analyze")
	defer span.End()

	dopts := opts.Decode
	dopts.Obs = oc
	s, err := trace.OpenStream(dir, trace.StreamOptions{DecodeOptions: dopts, WindowBytes: opts.WindowBytes})
	if err != nil {
		return nil, fmt.Errorf("verify: read trace: %w", err)
	}
	defer s.Close()

	a := &Analysis{}
	analyzeWall := time.Now()
	defer func() { a.Timing.AnalyzeWall = time.Since(analyzeWall) }()

	nranks := s.NumRanks()
	det := conflict.NewStreamDetector(nranks)
	sm := match.NewStreamMatcher(nranks)
	chains := make([]trace.ChainBuilder, nranks)
	unlinkSeqs := make([][]int32, nranks)

	wall := time.Now()
	for {
		b, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("verify: read trace: %w", err)
		}
		if opts.OnBatch != nil {
			opts.OnBatch(b)
		}
		det.Feed(b.Rank, b.Recs)
		sm.Feed(b.Rank, b.Recs)
		chains[b.Rank].Add(b.Recs)
		for i := range b.Recs {
			if b.Recs[i].Func == "unlink" && b.Recs[i].Arg(0) != "" {
				unlinkSeqs[b.Rank] = append(unlinkSeqs[b.Rank], int32(b.Start+i))
			}
		}
		b.Release()
	}

	start := time.Now()
	conf, err := det.Finish(conflict.Options{Workers: opts.Workers, Obs: oc})
	a.Timing.DetectConflicts = time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("verify: conflict detection: %w", err)
	}
	start = time.Now()
	mres, err := sm.Finish(match.Options{Workers: opts.Workers, Obs: oc})
	a.Timing.Match = time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("verify: MPI matching: %w", err)
	}
	a.Timing.DetectMatchWall = time.Since(wall)
	a.Conflicts = conf
	a.Match = mres

	a.counts = append([]int(nil), s.Counts()...)
	a.salvage = s.Stats()
	a.chains = make([][][32]byte, nranks)
	for r := range chains {
		a.chains[r] = chains[r].Chain()
	}
	a.unlinkSeqs = unlinkSeqs

	if err := a.buildOracle(algo, opts.Workers, oc); err != nil {
		return nil, err
	}
	return a, nil
}
