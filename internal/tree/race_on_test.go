//go:build race

package tree

// raceEnabled: the race detector's instrumentation allocates, so allocation
// counts are not a property of the code under it.
const raceEnabled = true
