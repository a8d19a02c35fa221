//go:build race

package system

// raceEnabled reports a -race build, whose instrumentation allocates.
const raceEnabled = true
