//go:build !amd64 || purego

package tree

// useAVX2 is false off amd64 and under the purego build tag: sweep runs
// its Go loop with the Go bodies of mac and leaf, and the descent below
// is never called.
const useAVX2 = false

type avxConsts struct{}

var avx avxConsts

func descendAVX2(w *Packet, c *Cols, k *avxConsts, own []int32, i, d, ownD, ownEnd int, alpha, a2, e2, exAdd float64) (ni, nd int) {
	panic("tree: no AVX2 descent in this build")
}
