//go:build race

package trace

// raceEnabled reports a -race build, in which sync.Pool drops a random share
// of what it is given back.
const raceEnabled = true
