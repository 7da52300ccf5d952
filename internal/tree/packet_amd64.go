//go:build !purego

package tree

import (
	"math"

	"repro/internal/phys"
)

// useAVX2 selects the fused descent of packet_amd64.s, when the CPU has
// AVX2 and POPCNT and the OS saves the YMM registers. It computes what the
// Go sweep loop and the Go bodies of mac and leaf compute, bit for bit:
// the same IEEE operations in the same order, with no fused multiply-add.
// Tests turn it off to compare the two paths.
var useAVX2 = hasAVX2()

// avxConsts are the constants the descent reads as 256-bit memory
// operands, through its argument k.
type avxConsts struct {
	g, one, lo, hi   [4]float64
	sideMin, sideMax [4]float64
	nan              [4]float64
	bit              [lanes]int64 // lane l's bit of a frame's mask
}

var avx = avxConsts{
	g:       [4]float64{phys.G, phys.G, phys.G, phys.G},
	one:     [4]float64{1, 1, 1, 1},
	lo:      [4]float64{macLo, macLo, macLo, macLo},
	hi:      [4]float64{macHi, macHi, macHi, macHi},
	sideMin: [4]float64{macSideMin, macSideMin, macSideMin, macSideMin},
	sideMax: [4]float64{macSideMax, macSideMax, macSideMax, macSideMax},
	nan:     [4]float64{math.NaN(), math.NaN(), math.NaN(), math.NaN()},
	bit:     [lanes]int64{1, 2, 4, 8, 16, 32, 64, 128},
}

// hasAVX2 reports CPUID's AVX2 and POPCNT bits and that XGETBV shows the
// OS saving the XMM and YMM state.
func hasAVX2() bool

// descendAVX2 is Sweep.sweep's loop over nodes of c from node i with the
// frame at depth d open, for the lanes of w.frames[0] under the sweep's
// parameters, in force mode; own is the sweep's OwnRoot. It closes the
// frames that end (down to depth ownD), tests and opens KindInternal and
// KindTop nodes, tests KindClosed nodes, sums KindLeaf nodes, and tests
// and defers another rank's KindBranch and KindBranchLeaf nodes (appending
// to w.defers while its capacity lasts), and returns the node and depth it
// stopped at: the end of the walk (depth 0 at its end), ownEnd, a branch
// cell of the rank's own, one that w.defers has no room for, a node of
// another kind, or a node that needs a frame beyond len(w.frames). A
// KindClosed node that some lane rejects returns depth -1.
//
//go:noescape
func descendAVX2(w *Packet, c *Cols, k *avxConsts, own []int32, i, d, ownD, ownEnd int, alpha, a2, e2, exAdd float64) (ni, nd int)
