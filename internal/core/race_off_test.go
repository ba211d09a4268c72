//go:build !race

package core

// raceEnabled reports whether the test binary was built with -race. Tests
// with wall-clock ceilings skip them under the race detector, whose
// instrumentation slows every memory access.
const raceEnabled = false
