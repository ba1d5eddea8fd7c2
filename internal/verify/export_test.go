package verify

import "verifyio/internal/obs"

// Hooks for the external test package (reference_test.go, prefix_test.go).
var (
	DoubleCommit    = doubleCommit
	RandomIOProgram = randomIOProgram
	RandomMSC       = randomMSC
)

// RetainedPairs runs one pass of opts.Model over a's chunk plan, with
// opts.MaxRaceDetails and opts.Workers taken as given (both must be
// positive), and returns the race pairs held over all chunk tallies before
// the merge, and the plan's batch count.
func RetainedPairs(a *Analysis, opts Options) (pairs, batches int) {
	v := newVerifier(a, opts, obs.Ctx{})
	for _, t := range v.verifyChunks(opts.Workers) {
		pairs += len(t.pairs)
	}
	return pairs, len(v.plan.batches)
}
