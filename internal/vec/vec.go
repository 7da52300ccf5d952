// Package vec provides small fixed-dimension vector types used throughout
// the Barnes–Hut code. Vectors are value types; all operations return new
// values and never mutate their receivers, which keeps force-accumulation
// code free of aliasing surprises.
package vec

import (
	"fmt"
	"math"
)

// V3 is a three-dimensional vector of float64 components.
type V3 struct {
	X, Y, Z float64
}

// Add returns v + w.
func (v V3) Add(w V3) V3 { return V3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v V3) Sub(w V3) V3 { return V3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns s * v.
func (v V3) Scale(s float64) V3 { return V3{s * v.X, s * v.Y, s * v.Z} }

// Dot returns the inner product of v and w.
func (v V3) Dot(w V3) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Norm2 returns the squared Euclidean norm.
func (v V3) Norm2() float64 { return v.Dot(v) }

// Norm returns the Euclidean norm.
func (v V3) Norm() float64 { return math.Sqrt(v.Norm2()) }

// Dist returns the Euclidean distance between v and w.
func (v V3) Dist(w V3) float64 { return v.Sub(w).Norm() }

// Dist2 returns the squared Euclidean distance between v and w.
func (v V3) Dist2(w V3) float64 { return v.Sub(w).Norm2() }

// Min returns the componentwise minimum of v and w.
func (v V3) Min(w V3) V3 {
	return V3{math.Min(v.X, w.X), math.Min(v.Y, w.Y), math.Min(v.Z, w.Z)}
}

// Max returns the componentwise maximum of v and w.
func (v V3) Max(w V3) V3 {
	return V3{math.Max(v.X, w.X), math.Max(v.Y, w.Y), math.Max(v.Z, w.Z)}
}

// MaxComponent returns the largest component of v.
func (v V3) MaxComponent() float64 { return math.Max(v.X, math.Max(v.Y, v.Z)) }

// String implements fmt.Stringer.
func (v V3) String() string { return fmt.Sprintf("(%.6g, %.6g, %.6g)", v.X, v.Y, v.Z) }

// Box is an axis-aligned bounding box, used for tree cells and domain
// decomposition. Min and Max are opposite corners with Min ≤ Max
// componentwise.
type Box struct {
	Min, Max V3
}

// NewBox returns the box spanning the two corners in either order.
func NewBox(a, b V3) Box { return Box{Min: a.Min(b), Max: a.Max(b)} }

// BoundingBox returns the smallest box containing all the given points.
// It returns a zero box when pts is empty.
func BoundingBox(pts []V3) Box {
	if len(pts) == 0 {
		return Box{}
	}
	b := Box{Min: pts[0], Max: pts[0]}
	for _, p := range pts[1:] {
		b.Min = b.Min.Min(p)
		b.Max = b.Max.Max(p)
	}
	return b
}

// Center returns the centre of the box.
func (b Box) Center() V3 { return b.Min.Add(b.Max).Scale(0.5) }

// Size returns the edge lengths of the box.
func (b Box) Size() V3 { return b.Max.Sub(b.Min) }

// LongestSide returns the length of the longest edge.
func (b Box) LongestSide() float64 { return b.Size().MaxComponent() }

// Contains reports whether p lies inside the box (closed on the low
// side, open on the high side except at the box's own Max corner, which
// is treated as inside so boundary particles are not lost).
func (b Box) Contains(p V3) bool {
	return p.X >= b.Min.X && p.X <= b.Max.X &&
		p.Y >= b.Min.Y && p.Y <= b.Max.Y &&
		p.Z >= b.Min.Z && p.Z <= b.Max.Z
}

// Cube returns the smallest cube sharing b's centre that contains b.
// Barnes–Hut cells are cubes so that the MAC's size/distance ratio is
// isotropic.
func (b Box) Cube() Box {
	c := b.Center()
	h := b.LongestSide() / 2
	d := V3{h, h, h}
	return Box{Min: c.Sub(d), Max: c.Add(d)}
}

// Octant returns the child cube with index oct in 0..7. Bit 0 selects
// the upper half in X, bit 1 in Y, bit 2 in Z.
func (b Box) Octant(oct int) Box {
	c := b.Center()
	child := b
	if oct&1 != 0 {
		child.Min.X = c.X
	} else {
		child.Max.X = c.X
	}
	if oct&2 != 0 {
		child.Min.Y = c.Y
	} else {
		child.Max.Y = c.Y
	}
	if oct&4 != 0 {
		child.Min.Z = c.Z
	} else {
		child.Max.Z = c.Z
	}
	return child
}

// OctantOf returns the octant index of p relative to the box centre.
func (b Box) OctantOf(p V3) int {
	c := b.Center()
	oct := 0
	if p.X >= c.X {
		oct |= 1
	}
	if p.Y >= c.Y {
		oct |= 2
	}
	if p.Z >= c.Z {
		oct |= 4
	}
	return oct
}

// Expand grows the box by pad on every side.
func (b Box) Expand(pad float64) Box {
	d := V3{pad, pad, pad}
	return Box{Min: b.Min.Sub(d), Max: b.Max.Add(d)}
}
