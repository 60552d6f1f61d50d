//go:build race

package live

// raceEnabled reports a -race build, whose instrumentation changes what
// allocates: allocation tests skip under it.
const raceEnabled = true
