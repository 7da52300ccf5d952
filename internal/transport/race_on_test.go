//go:build race

package transport

// raceEnabled: the race detector's instrumentation allocates, and its
// sync.Pool drops items at random, so allocation counts are not a property
// of the code under it.
const raceEnabled = true
