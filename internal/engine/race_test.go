//go:build race

package engine

// raceEnabled reports a -race build, whose instrumentation allocates.
const raceEnabled = true
