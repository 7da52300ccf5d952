package keys

import "fmt"

// Gray returns the i-th binary-reflected gray code. Adjacent values of i
// yield codes differing in exactly one bit, which is what makes gray-code
// mappings embed rings and grids into hypercubes with neighbouring
// subdomains mapped to neighbouring processors.
func Gray(i uint) uint { return i ^ (i >> 1) }

// ScatterMap implements the SPSA scheme's modular (scatter) assignment of
// an r = rx × ry × rz grid of subdomains onto a hypercube of 2^d
// processors: subdomain (i, j) goes to processor
// (gray(i, d/2), gray(j, d/2)) in the paper's 2-D formulation, and the
// analogous three-way split in 3-D. Neighbouring subdomains map to
// neighbouring processors, and each processor receives an equal number of
// subdomains scattered across the domain.
type ScatterMap struct {
	dims  [3]uint // grid size per dimension (power of two)
	bits  [3]uint // log2 of dims
	pbits [3]uint // processor address bits consumed per dimension
}

// NewScatterMap builds a scatter map for an rx × ry × rz grid of
// subdomains onto p processors. rx, ry, rz and p must be powers of two
// and p must not exceed the number of subdomains. The d = log2(p)
// processor address bits are split across the dimensions as evenly as the
// grid allows (the paper's d/2 split generalized).
func NewScatterMap(rx, ry, rz, p int) (*ScatterMap, error) {
	m := &ScatterMap{}
	for i, r := range []int{rx, ry, rz} {
		if r <= 0 || r&(r-1) != 0 {
			return nil, fmt.Errorf("keys: grid dimension %d is not a positive power of two", r)
		}
		m.dims[i] = uint(r)
		m.bits[i] = log2(uint(r))
	}
	if p <= 0 || p&(p-1) != 0 {
		return nil, fmt.Errorf("keys: processor count %d is not a positive power of two", p)
	}
	if rx*ry*rz < p {
		return nil, fmt.Errorf("keys: %d subdomains cannot cover %d processors", rx*ry*rz, p)
	}
	// Distribute the processor-address bits round-robin over dimensions
	// that still have grid bits to consume.
	d := log2(uint(p))
	for d > 0 {
		progressed := false
		for i := 0; i < 3 && d > 0; i++ {
			if m.pbits[i] < m.bits[i] {
				m.pbits[i]++
				d--
				progressed = true
			}
		}
		if !progressed {
			return nil, fmt.Errorf("keys: cannot split %d processors over grid %dx%dx%d", p, rx, ry, rz)
		}
	}
	return m, nil
}

func log2(x uint) uint {
	var n uint
	for x > 1 {
		x >>= 1
		n++
	}
	return n
}

// Proc returns the processor that owns subdomain (i, j, k). The top bits
// of each coordinate select the processor sub-address through a gray
// code, so subdomains that are adjacent in space differ in one bit of
// processor address (a hypercube neighbour).
func (m *ScatterMap) Proc(i, j, k int) int {
	coords := [3]uint{uint(i), uint(j), uint(k)}
	proc := uint(0)
	shift := uint(0)
	for dim := 0; dim < 3; dim++ {
		if coords[dim] >= m.dims[dim] {
			panic(fmt.Sprintf("keys: subdomain coordinate %d out of range for dimension %d", coords[dim], dim))
		}
		pb := m.pbits[dim]
		if pb == 0 {
			continue
		}
		// The processor sub-address comes from the high bits of the
		// subdomain coordinate: consecutive blocks of subdomains cycle
		// through processors in gray order.
		sub := Gray(coords[dim] % (1 << pb))
		proc |= sub << shift
		shift += pb
	}
	return int(proc)
}
