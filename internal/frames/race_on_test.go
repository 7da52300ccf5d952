//go:build race

package frames_test

// raceEnabled: the race detector's instrumentation allocates, so allocation
// counts are not a property of the code under it.
const raceEnabled = true
