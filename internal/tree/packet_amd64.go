//go:build !purego

package tree

import "repro/internal/phys"

// useAVX2 selects the AVX2 force terms of packet_amd64.s, when the CPU has
// AVX2 and the OS saves the YMM registers. They compute what the Go
// bodies of mac and leaf compute, bit for bit: the same IEEE operations in
// the same order, with no fused multiply-add. Tests turn it off to compare
// the two paths.
var useAVX2 = hasAVX2()

// avxConsts are the constants the kernels read as 256-bit memory operands,
// through their argument k.
type avxConsts struct {
	g, one, lo, hi [4]float64
	bit            [lanes]int64 // lane l's bit of a frame's mask
}

var avx = avxConsts{
	g:   [4]float64{phys.G, phys.G, phys.G, phys.G},
	one: [4]float64{1, 1, 1, 1},
	lo:  [4]float64{macLo, macLo, macLo, macLo},
	hi:  [4]float64{macHi, macHi, macHi, macHi},
	bit: [lanes]int64{1, 2, 4, 8, 16, 32, 64, 128},
}

// hasAVX2 reports CPUID's AVX2 bit and that XGETBV shows the OS saving
// the XMM and YMM state.
func hasAVX2() bool

// macAVX2 runs mac's prefilter for the lanes of f and charges each one a
// MAC test; the lanes it accepts get their force term, extra charge and
// PC count. It returns those lanes and the sliver lanes the prefilter
// left undecided.
//
//go:noescape
func macAVX2(w *Packet, f *frame, k *avxConsts, cx, cy, cz, s2, gm, a2, e2, ex float64) (acc, sliver uint8)

// leafAVX2 is leaf's loop over n particle columns for the lanes of f.
//
//go:noescape
func leafAVX2(w *Packet, f *frame, k *avxConsts, ids *int32, px, py, pz, pm *float64, n int, e2 float64)
