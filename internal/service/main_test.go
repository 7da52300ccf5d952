package service

import (
	"testing"

	"repro/internal/leakcheck"
)

// TestMain fails the package when a goroutine a test started outlives
// it.
func TestMain(m *testing.M) { leakcheck.Main(m) }
