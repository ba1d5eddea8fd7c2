package trace

// Hooks for the external test package (write_corpus_test.go).
var (
	NoGoroutineLeft = noGoroutineLeft
	Renumber        = renumber
	WriteDirWriters = writeDir
)
