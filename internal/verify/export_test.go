package verify

import "verifyio/internal/obs"

// Hooks for the external test package (reference_test.go, prefix_test.go).
var (
	DoubleCommit    = doubleCommit
	RandomIOProgram = randomIOProgram
	RandomMSC       = randomMSC
)

// RetainedPairs runs one pass of opts.Model over a's batch plan, with
// opts.MaxRaceDetails and opts.Workers taken as given (both must be
// positive), and returns the race pairs each batch's tally held before the
// merge, in batch order.
func RetainedPairs(a *Analysis, opts Options) []int {
	tallies := newVerifier(a, opts, obs.Ctx{}).verifyBatches(opts.Workers)
	pairs := make([]int, len(tallies))
	for b, t := range tallies {
		pairs[b] = len(t.pairs)
	}
	return pairs
}
