//go:build !linux

package service

import "testing"

func failWrites(t *testing.T, path string) {
	t.Skip("write-failure injection needs /proc/self/fd and /dev/full")
}
