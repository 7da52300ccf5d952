package keys

// Peano–Hilbert ordering. The costzones scheme of Singh et al. (which the
// DPDA formulation implements for message-passing machines) orders space
// along a Peano–Hilbert curve; the paper's own schemes use Morton order.
// Both are provided so the orderings can be compared as an ablation.
//
// The implementation is Skilling's transpose algorithm (AIP Conf. Proc.
// 707, 2004): it turns an n-dimensional coordinate tuple into the
// Hilbert index in place, using only bit operations.

// hilbertAxesToTranspose converts coordinates (in place) into the
// "transposed" Hilbert index: bit b of the index is spread across the
// words x[i].
func hilbertAxesToTranspose(x []uint32, bits uint) {
	n := uint(len(x))
	m := uint32(1) << (bits - 1)
	// Inverse undo excess work.
	for q := m; q > 1; q >>= 1 {
		p := q - 1
		for i := uint(0); i < n; i++ {
			if x[i]&q != 0 {
				x[0] ^= p // invert
			} else { // exchange
				t := (x[0] ^ x[i]) & p
				x[0] ^= t
				x[i] ^= t
			}
		}
	}
	// Gray encode.
	for i := uint(1); i < n; i++ {
		x[i] ^= x[i-1]
	}
	t := uint32(0)
	for q := m; q > 1; q >>= 1 {
		if x[n-1]&q != 0 {
			t ^= q - 1
		}
	}
	for i := uint(0); i < n; i++ {
		x[i] ^= t
	}
}

// HilbertEncode3 returns the Hilbert index of the 3-D lattice point
// (x, y, z) on a curve with `bits` bits per dimension (bits ≤ 21).
func HilbertEncode3(x, y, z uint32, bits uint) uint64 {
	if bits == 0 || bits > MaxBits3D {
		panic("keys: HilbertEncode3 bits out of range")
	}
	ax := []uint32{x, y, z}
	hilbertAxesToTranspose(ax, bits)
	// Interleave the transposed words, most-significant bit first, into a
	// single index: bit (3*b + i) of the result comes from bit b of ax[i],
	// scanning b from high to low.
	var h uint64
	for b := int(bits) - 1; b >= 0; b-- {
		for i := 0; i < 3; i++ {
			h = h<<1 | uint64((ax[i]>>uint(b))&1)
		}
	}
	return h
}

// HilbertEncode2 returns the Hilbert index of a 2-D lattice point on a
// curve with `bits` bits per dimension (bits ≤ 31).
func HilbertEncode2(x, y uint32, bits uint) uint64 {
	if bits == 0 || bits > MaxBits2D {
		panic("keys: HilbertEncode2 bits out of range")
	}
	ax := []uint32{x, y}
	hilbertAxesToTranspose(ax, bits)
	var h uint64
	for b := int(bits) - 1; b >= 0; b-- {
		for i := 0; i < 2; i++ {
			h = h<<1 | uint64((ax[i]>>uint(b))&1)
		}
	}
	return h
}
