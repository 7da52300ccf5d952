// Package keys implements the spatial orderings and processor mappings the
// parallel Barnes–Hut formulations rely on: Morton (Z-order) keys for
// cells and particles, gray-code scatter maps for the SPSA scheme's
// modular assignment, and a Peano–Hilbert ordering as an alternative
// space-filling curve for the dynamic-assignment schemes.
package keys

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/vec"
)

// MaxBits3D is the number of bits of resolution per dimension for 3-D
// Morton keys. 21 bits per dimension fill 63 bits of a uint64.
const MaxBits3D = 21

// MaxBits2D is the per-dimension resolution of 2-D Morton keys.
const MaxBits2D = 31

// Morton is a Z-order key. Interleaving is x-major: bit 0 of the key is
// bit 0 of x, bit 1 is bit 0 of y, bit 2 is bit 0 of z, and so on.
type Morton uint64

// spread3 spaces the low 21 bits of x three apart (standard magic-number
// bit twiddling for 3-D Morton interleaving).
func spread3(x uint64) uint64 {
	x &= 0x1fffff
	x = (x | x<<32) & 0x1f00000000ffff
	x = (x | x<<16) & 0x1f0000ff0000ff
	x = (x | x<<8) & 0x100f00f00f00f00f
	x = (x | x<<4) & 0x10c30c30c30c30c3
	x = (x | x<<2) & 0x1249249249249249
	return x
}

// compact3 is the inverse of spread3.
func compact3(x uint64) uint64 {
	x &= 0x1249249249249249
	x = (x | x>>2) & 0x10c30c30c30c30c3
	x = (x | x>>4) & 0x100f00f00f00f00f
	x = (x | x>>8) & 0x1f0000ff0000ff
	x = (x | x>>16) & 0x1f00000000ffff
	x = (x | x>>32) & 0x1fffff
	return x
}

// spread2 spaces the low 31 bits of x two apart.
func spread2(x uint64) uint64 {
	x &= 0x7fffffff
	x = (x | x<<16) & 0x0000ffff0000ffff
	x = (x | x<<8) & 0x00ff00ff00ff00ff
	x = (x | x<<4) & 0x0f0f0f0f0f0f0f0f
	x = (x | x<<2) & 0x3333333333333333
	x = (x | x<<1) & 0x5555555555555555
	return x
}

// Encode3 interleaves three 21-bit integer coordinates into a Morton key.
func Encode3(x, y, z uint32) Morton {
	return Morton(spread3(uint64(x)) | spread3(uint64(y))<<1 | spread3(uint64(z))<<2)
}

// Decode3 recovers the integer coordinates from a 3-D Morton key.
func Decode3(m Morton) (x, y, z uint32) {
	return uint32(compact3(uint64(m))), uint32(compact3(uint64(m) >> 1)), uint32(compact3(uint64(m) >> 2))
}

// Encode2 interleaves two 31-bit integer coordinates into a Morton key.
func Encode2(x, y uint32) Morton {
	return Morton(spread2(uint64(x)) | spread2(uint64(y))<<1)
}

// Quantize maps a point inside box to integer lattice coordinates with
// `bits` bits of resolution per dimension. Points on the upper boundary
// map to the highest lattice cell.
func Quantize(p vec.V3, box vec.Box, bits uint) (x, y, z uint32) {
	if bits > MaxBits3D {
		panic(fmt.Sprintf("keys: Quantize bits %d exceeds %d", bits, MaxBits3D))
	}
	n := float64(uint64(1) << bits)
	size := box.Size()
	q := func(v, lo, sz float64) uint32 {
		if sz <= 0 {
			return 0
		}
		i := math.Floor((v - lo) / sz * n)
		if i < 0 {
			i = 0
		}
		if i > n-1 {
			i = n - 1
		}
		return uint32(i)
	}
	return q(p.X, box.Min.X, size.X), q(p.Y, box.Min.Y, size.Y), q(p.Z, box.Min.Z, size.Z)
}

// PointKey3 returns the Morton key of a point within box at the given
// per-dimension resolution.
func PointKey3(p vec.V3, box vec.Box, bits uint) Morton {
	x, y, z := Quantize(p, box, bits)
	return Encode3(x, y, z)
}

// FullKey3 returns the full-resolution (MaxBits3D per dimension) Morton
// key of a point within rootBox as a plain integer — the sort key of the
// keyed tree build and the ordering key of the DPDA zone boundaries.
func FullKey3(p vec.V3, rootBox vec.Box) uint64 {
	return uint64(PointKey3(p, rootBox, MaxBits3D))
}

// CellKey identifies a cell of the hierarchical domain decomposition: the
// Morton key of the cell's lattice coordinates at its own level, combined
// with the level so that cells of different sizes never collide. Level 0
// is the root cell.
//
// CellKey is the "unique key ... computed for each branch node" of
// Section 3.2: processors address remote branch nodes by CellKey.
type CellKey struct {
	Level uint8
	Key   Morton
}

// String implements fmt.Stringer.
func (c CellKey) String() string { return fmt.Sprintf("L%d:%x", c.Level, uint64(c.Key)) }

// Child returns the key of the oct-th child cell (oct in 0..7, bit order
// matching vec.Box.Octant).
func (c CellKey) Child(oct int) CellKey {
	if oct < 0 || oct > 7 {
		panic(fmt.Sprintf("keys: invalid octant %d", oct))
	}
	return CellKey{Level: c.Level + 1, Key: c.Key<<3 | Morton(oct)}
}

// Parent returns the key of the parent cell. It panics at the root.
func (c CellKey) Parent() CellKey {
	if c.Level == 0 {
		panic("keys: root cell has no parent")
	}
	return CellKey{Level: c.Level - 1, Key: c.Key >> 3}
}

// Octant returns which child of its parent this cell is.
func (c CellKey) Octant() int { return int(c.Key & 7) }

// Less orders cell keys in Morton (depth-first, left-to-right) order:
// ancestors precede descendants and subtrees are contiguous.
func (c CellKey) Less(o CellKey) bool {
	// Compare the two keys aligned to a common level.
	a, b := c, o
	for a.Level > b.Level {
		a = a.Parent()
	}
	for b.Level > a.Level {
		b = b.Parent()
	}
	if a.Key != b.Key {
		return a.Key < b.Key
	}
	// One is an ancestor of the other (or they are equal); the shallower
	// cell comes first.
	return c.Level < o.Level
}

// Range returns the half-open interval of full-resolution Morton keys
// (FullKey3) the cell covers.
func (c CellKey) Range() (lo, hi uint64) {
	shift := 3 * uint(MaxBits3D-int(c.Level))
	lo = uint64(c.Key) << shift
	return lo, lo + 1<<shift
}

// Uint64 packs the cell key into a single integer using the
// Warren–Salmon "place bit" encoding: a sentinel 1 bit is placed just
// above the 3·level key bits, so the level is recoverable from the
// position of the highest set bit and cells of all depths (up to the
// 21-level Morton resolution, 64 bits exactly) pack losslessly. This is
// the key construction of the hashed oct-tree codes the paper builds on.
func (c CellKey) Uint64() uint64 { return 1<<(3*uint(c.Level)) | uint64(c.Key) }

// CellKeyFromUint64 is the inverse of Uint64.
func CellKeyFromUint64(u uint64) CellKey {
	lvl := (bits.Len64(u) - 1) / 3
	return CellKey{Level: uint8(lvl), Key: Morton(u &^ (1 << (3 * uint(lvl))))}
}

// CellBox returns the spatial extent of the cell within the root box.
func CellBox(root vec.Box, c CellKey) vec.Box {
	b := root
	for lvl := int(c.Level) - 1; lvl >= 0; lvl-- {
		oct := int(c.Key>>(3*uint(lvl))) & 7
		b = b.Octant(oct)
	}
	return b
}
