package dist

import (
	"slices"

	"repro/internal/vec"
)

// Particles is a structure-of-arrays view of a particle list: one column
// per field, all the same length. Hot kernels iterate single columns
// (contiguous 8-byte strides instead of 64-byte Particle records), and
// the same per-field column layout is the contract the columnar snapshot
// store will serialize. The zero value is an empty, ready-to-use set.
type Particles struct {
	ID               []int32
	Mass             []float64
	PosX, PosY, PosZ []float64
	VelX, VelY, VelZ []float64
}

// Len returns the number of particles in the columns.
func (c *Particles) Len() int { return len(c.ID) }

// Reset truncates all columns to zero length, keeping their capacity.
func (c *Particles) Reset() {
	c.ID = c.ID[:0]
	c.Mass = c.Mass[:0]
	c.PosX, c.PosY, c.PosZ = c.PosX[:0], c.PosY[:0], c.PosZ[:0]
	c.VelX, c.VelY, c.VelZ = c.VelX[:0], c.VelY[:0], c.VelZ[:0]
}

// Grow makes room for n more particles in every column, so appending
// them allocates each column at most once.
func (c *Particles) Grow(n int) {
	c.ID = slices.Grow(c.ID, n)
	c.Mass = slices.Grow(c.Mass, n)
	c.PosX, c.PosY, c.PosZ = slices.Grow(c.PosX, n), slices.Grow(c.PosY, n), slices.Grow(c.PosZ, n)
	c.VelX, c.VelY, c.VelZ = slices.Grow(c.VelX, n), slices.Grow(c.VelY, n), slices.Grow(c.VelZ, n)
}

// Append transposes ps onto the end of the columns, sizing each column
// once.
func (c *Particles) Append(ps []Particle) {
	c.Grow(len(ps))
	for i := range ps {
		p := &ps[i]
		c.ID = append(c.ID, int32(p.ID))
		c.Mass = append(c.Mass, p.Mass)
		c.PosX = append(c.PosX, p.Pos.X)
		c.PosY = append(c.PosY, p.Pos.Y)
		c.PosZ = append(c.PosZ, p.Pos.Z)
		c.VelX = append(c.VelX, p.Vel.X)
		c.VelY = append(c.VelY, p.Vel.Y)
		c.VelZ = append(c.VelZ, p.Vel.Z)
	}
}

// Gather replaces the columns with a transposed copy of ps, reusing
// column capacity across calls.
func (c *Particles) Gather(ps []Particle) {
	c.Reset()
	c.Append(ps)
}

// At reconstructs the particle at index i.
func (c *Particles) At(i int) Particle {
	return Particle{
		ID:   int(c.ID[i]),
		Mass: c.Mass[i],
		Pos:  vec.V3{X: c.PosX[i], Y: c.PosY[i], Z: c.PosZ[i]},
		Vel:  vec.V3{X: c.VelX[i], Y: c.VelY[i], Z: c.VelZ[i]},
	}
}

// Scatter transposes the columns back into out, which must have length
// Len().
func (c *Particles) Scatter(out []Particle) {
	if len(out) != c.Len() {
		panic("dist: Scatter length mismatch")
	}
	for i := range out {
		out[i] = c.At(i)
	}
}

// FromAoS returns a fresh column set transposed from ps.
func FromAoS(ps []Particle) *Particles {
	c := &Particles{}
	c.Gather(ps)
	return c
}
