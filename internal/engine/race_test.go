//go:build race

package engine

// raceEnabled reports a -race build, whose instrumentation changes what
// allocates: allocation tests skip under it.
const raceEnabled = true
