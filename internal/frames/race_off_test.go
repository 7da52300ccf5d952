//go:build !race

package frames_test

const raceEnabled = false
