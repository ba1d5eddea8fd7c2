package verify

// Hooks for the external test package (reference_test.go).
var (
	DoubleCommit    = doubleCommit
	RandomIOProgram = randomIOProgram
	RandomMSC       = randomMSC
)
