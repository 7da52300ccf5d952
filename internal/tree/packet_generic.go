//go:build !amd64 || purego

package tree

// useAVX2 is false off amd64 and under the purego build tag: mac and leaf
// run their Go bodies, and the kernels below are never called.
const useAVX2 = false

type avxConsts struct{}

var avx avxConsts

func macAVX2(w *Packet, f *frame, k *avxConsts, cx, cy, cz, s2, gm, a2, e2, ex float64) (acc, sliver uint8) {
	panic("tree: no AVX2 kernel in this build")
}

func leafAVX2(w *Packet, f *frame, k *avxConsts, ids *int32, px, py, pz, pm *float64, n int, e2 float64) {
	panic("tree: no AVX2 kernel in this build")
}
