//go:build !race

package queue

// raceEnabled reports whether the test binary was built with -race: the
// race detector's sync.Pool drops Puts at random, which the arena tests
// must allow for.
const raceEnabled = false
