//go:build !race

package parbh

const raceEnabled = false
