//go:build linux

package service

import (
	"os"
	"path/filepath"
	"strconv"
	"syscall"
	"testing"
)

// failWrites makes every further write through this process's open
// descriptors on path fail with ENOSPC, as a full disk would: each such
// descriptor is re-pointed at /dev/full. The file itself keeps what it
// already holds.
func failWrites(t *testing.T, path string) {
	t.Helper()
	path, err := filepath.EvalSymlinks(path)
	if err != nil {
		t.Fatal(err)
	}
	full, err := os.OpenFile("/dev/full", os.O_WRONLY, 0)
	if err != nil {
		t.Skipf("no /dev/full to inject write failures with: %v", err)
	}
	defer full.Close()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd to find the open chain in: %v", err)
	}
	hit := 0
	for _, ent := range fds {
		fd, err := strconv.Atoi(ent.Name())
		if err != nil {
			continue
		}
		if target, err := os.Readlink("/proc/self/fd/" + ent.Name()); err != nil || target != path {
			continue
		}
		if err := syscall.Dup3(int(full.Fd()), fd, 0); err != nil {
			t.Fatal(err)
		}
		hit++
	}
	if hit == 0 {
		t.Fatalf("no open descriptor on %s", path)
	}
}
