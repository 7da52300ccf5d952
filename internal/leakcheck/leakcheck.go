// Package leakcheck fails a package's tests when goroutines they started
// outlive them: a package's TestMain calls Main. A goroutine counts when
// its stack runs, or was created by, the module's code.
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// grace is how long the tests' goroutines get to end after the last test.
const grace = 5 * time.Second

// Main runs the package's tests, then waits up to grace for every
// goroutine of the module to end. It exits non-zero when a test failed
// or a goroutine is left, printing the stacks of those left.
func Main(m *testing.M) {
	code := m.Run()
	if code == 0 {
		left := leaked()
		for deadline := time.Now().Add(grace); left != nil && time.Now().Before(deadline); left = leaked() {
			time.Sleep(50 * time.Millisecond)
		}
		if left != nil {
			fmt.Fprintf(os.Stderr, "leakcheck: %d goroutine(s) outlived the tests:\n\n%s\n",
				len(left), strings.Join(left, "\n\n"))
			code = 1
		}
	}
	os.Exit(code)
}

// leaked returns the stacks of the module's goroutines other than the
// caller's.
func leaked() []string {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var left []string
	// The caller's own goroutine comes first.
	for _, g := range strings.Split(string(buf), "\n\n")[1:] {
		for _, line := range strings.Split(g, "\n") {
			if strings.HasPrefix(line, "repro/") || strings.HasPrefix(line, "created by repro/") {
				left = append(left, g)
				break
			}
		}
	}
	return left
}
