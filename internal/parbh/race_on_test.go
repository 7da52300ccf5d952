//go:build race

package parbh

// raceEnabled: under the race detector sync.Pool drops a share of what it
// is handed, so allocation counts are not a property of the code.
const raceEnabled = true
