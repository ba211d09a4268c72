//go:build race

package queue

// raceEnabled reports whether the test binary was built with -race.
const raceEnabled = true
