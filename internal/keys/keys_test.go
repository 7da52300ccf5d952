package keys

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/vec"
)

func TestMorton3RoundTrip(t *testing.T) {
	f := func(x, y, z uint32) bool {
		x &= 1<<MaxBits3D - 1
		y &= 1<<MaxBits3D - 1
		z &= 1<<MaxBits3D - 1
		gx, gy, gz := Decode3(Encode3(x, y, z))
		return gx == x && gy == y && gz == z
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestMorton2RoundTrip checks that Encode2 can be inverted: it maps a
// full 2^b × 2^b grid one to one onto [0, 4^b).
func TestMorton2RoundTrip(t *testing.T) {
	for _, bits := range []uint{1, 3, 7} {
		side := uint32(1) << bits
		seen := make([]bool, side*side)
		for x := uint32(0); x < side; x++ {
			for y := uint32(0); y < side; y++ {
				m := Encode2(x, y)
				if m >= Morton(len(seen)) || seen[m] {
					t.Fatalf("bits=%d: Encode2(%d, %d) = %d is out of range or taken", bits, x, y, m)
				}
				seen[m] = true
			}
		}
	}
}

func TestMortonKnownValues(t *testing.T) {
	// Interleaving is x-major: (1,0,0) -> 1, (0,1,0) -> 2, (0,0,1) -> 4.
	if Encode3(1, 0, 0) != 1 || Encode3(0, 1, 0) != 2 || Encode3(0, 0, 1) != 4 {
		t.Fatalf("unit encodings wrong: %d %d %d", Encode3(1, 0, 0), Encode3(0, 1, 0), Encode3(0, 0, 1))
	}
	if Encode3(7, 7, 7) != 0x1ff {
		t.Fatalf("Encode3(7,7,7) = %x", Encode3(7, 7, 7))
	}
	if Encode2(3, 3) != 0xf {
		t.Fatalf("Encode2(3,3) = %x", Encode2(3, 3))
	}
}

func TestMortonMonotoneAlongAxes(t *testing.T) {
	// Along each single axis (other coordinates zero), Morton order equals
	// numeric order.
	prev := Morton(0)
	for x := uint32(1); x < 1000; x++ {
		m := Encode3(x, 0, 0)
		if m <= prev {
			t.Fatalf("Morton not monotone along x at %d", x)
		}
		prev = m
	}
}

func TestQuantizeBounds(t *testing.T) {
	box := vec.NewBox(vec.V3{X: -1, Y: -1, Z: -1}, vec.V3{X: 1, Y: 1, Z: 1})
	x, y, z := Quantize(vec.V3{X: -1, Y: -1, Z: -1}, box, 4)
	if x != 0 || y != 0 || z != 0 {
		t.Fatalf("min corner quantized to (%d,%d,%d)", x, y, z)
	}
	x, y, z = Quantize(vec.V3{X: 1, Y: 1, Z: 1}, box, 4)
	if x != 15 || y != 15 || z != 15 {
		t.Fatalf("max corner quantized to (%d,%d,%d)", x, y, z)
	}
	// Out-of-box points clamp instead of wrapping.
	x, _, _ = Quantize(vec.V3{X: 2, Y: 0, Z: 0}, box, 4)
	if x != 15 {
		t.Fatalf("clamping failed: %d", x)
	}
}

func TestPointKeyPreservesOctantOrder(t *testing.T) {
	// Points in different octants of the box must have keys whose top
	// 3 bits equal the octant index.
	box := vec.NewBox(vec.V3{}, vec.V3{X: 1, Y: 1, Z: 1})
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		p := vec.V3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}
		key := PointKey3(p, box, MaxBits3D)
		oct := box.OctantOf(p)
		top := int(key >> (3 * (MaxBits3D - 1)))
		if top != oct {
			t.Fatalf("point %v: octant %d but key top bits %d", p, oct, top)
		}
	}
}

func TestCellKeyChildParent(t *testing.T) {
	root := CellKey{}
	c := root.Child(5).Child(2).Child(7)
	if c.Level != 3 {
		t.Fatalf("level = %d", c.Level)
	}
	if c.Octant() != 7 {
		t.Fatalf("octant = %d", c.Octant())
	}
	p := c.Parent()
	if p.Octant() != 2 || p.Level != 2 {
		t.Fatalf("parent = %+v", p)
	}
	if p.Parent().Parent() != root {
		t.Fatalf("grandparent of %+v = %+v", p, p.Parent().Parent())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Parent of root did not panic")
		}
	}()
	root.Parent()
}

func TestCellKeyLessIsDepthFirstOrder(t *testing.T) {
	// Enumerate a small tree in explicit depth-first order and check that
	// Less agrees with the enumeration order.
	var dfs []CellKey
	var walk func(c CellKey, depth int)
	walk = func(c CellKey, depth int) {
		dfs = append(dfs, c)
		if depth == 0 {
			return
		}
		for oct := 0; oct < 8; oct++ {
			walk(c.Child(oct), depth-1)
		}
	}
	walk(CellKey{}, 2)
	shuffled := append([]CellKey(nil), dfs...)
	rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	sort.Slice(shuffled, func(i, j int) bool { return shuffled[i].Less(shuffled[j]) })
	for i := range dfs {
		if shuffled[i] != dfs[i] {
			t.Fatalf("position %d: got %v want %v", i, shuffled[i], dfs[i])
		}
	}
}

func TestCellKeyUint64RoundTrip(t *testing.T) {
	f := func(level uint8, key uint64) bool {
		level %= MaxBits3D + 1 // all depths up to the 21-level resolution
		key &= 1<<(3*uint(level)) - 1
		c := CellKey{Level: level, Key: Morton(key)}
		return CellKeyFromUint64(c.Uint64()) == c
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	// Depth-21 cells (63 key bits) must round-trip: the old top-byte
	// packing truncated them, corrupting deep branch cells.
	deep := CellKey{Level: 21, Key: Morton(0x2b76bfb588ec4c81)}
	if CellKeyFromUint64(deep.Uint64()) != deep {
		t.Fatalf("deep cell corrupted: %v -> %v", deep, CellKeyFromUint64(deep.Uint64()))
	}
	// Distinct cells at different levels never collide (sentinel bit).
	if (CellKey{Level: 1, Key: 0}).Uint64() == (CellKey{Level: 2, Key: 0}).Uint64() {
		t.Fatal("levels collide in packed form")
	}
}

func TestCellBox(t *testing.T) {
	root := vec.NewBox(vec.V3{}, vec.V3{X: 8, Y: 8, Z: 8})
	// Child 0 of child 0 should be the [0,2]^3 cube.
	c := CellKey{}.Child(0).Child(0)
	b := CellBox(root, c)
	if b.Min != (vec.V3{}) || b.Max != (vec.V3{X: 2, Y: 2, Z: 2}) {
		t.Fatalf("CellBox = %+v", b)
	}
	// Child 7 of the root is the upper cube.
	b = CellBox(root, CellKey{}.Child(7))
	if b.Min != (vec.V3{X: 4, Y: 4, Z: 4}) || b.Max != (vec.V3{X: 8, Y: 8, Z: 8}) {
		t.Fatalf("CellBox(child 7) = %+v", b)
	}
}

func TestCellBoxConsistentWithChildOctant(t *testing.T) {
	root := vec.NewBox(vec.V3{X: -4, Y: -4, Z: -4}, vec.V3{X: 4, Y: 4, Z: 4})
	f := func(path []byte) bool {
		if len(path) > 6 {
			path = path[:6]
		}
		c := CellKey{}
		b := root
		for _, step := range path {
			oct := int(step) & 7
			c = c.Child(oct)
			b = b.Octant(oct)
		}
		return CellBox(root, c) == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestGrayCode(t *testing.T) {
	// Successive gray codes differ in exactly one bit.
	for i := uint(1); i < 1024; i++ {
		diff := Gray(i) ^ Gray(i-1)
		if diff == 0 || diff&(diff-1) != 0 {
			t.Fatalf("Gray(%d)^Gray(%d) = %b", i, i-1, diff)
		}
	}
	// Gray permutes [0, 2^b), so every code has exactly one position.
	seen := make([]bool, 4096)
	for i := uint(0); i < 4096; i++ {
		g := Gray(i)
		if g >= 4096 || seen[g] {
			t.Fatalf("Gray(%d) = %d is out of range or taken", i, g)
		}
		seen[g] = true
	}
}

func TestScatterMapBalance(t *testing.T) {
	// Every processor must receive exactly r/p subdomains.
	m, err := NewScatterMap(8, 8, 8, 64)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 64)
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			for k := 0; k < 8; k++ {
				p := m.Proc(i, j, k)
				if p < 0 || p >= 64 {
					t.Fatalf("proc %d out of range", p)
				}
				counts[p]++
			}
		}
	}
	const want = 8 * 8 * 8 / 64
	for p, c := range counts {
		if c != want {
			t.Fatalf("proc %d got %d subdomains, want %d", p, c, want)
		}
	}
}

func TestScatterMapNeighbours(t *testing.T) {
	// Adjacent subdomains along one axis map to processors differing by a
	// single address bit (hypercube neighbours) or to the same processor.
	m, err := NewScatterMap(16, 16, 1, 16)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 15; i++ {
		for j := 0; j < 16; j++ {
			a := m.Proc(i, j, 0)
			b := m.Proc(i+1, j, 0)
			diff := uint(a ^ b)
			if diff != 0 && diff&(diff-1) != 0 {
				t.Fatalf("subdomains (%d,%d) and (%d,%d) map to non-neighbours %d, %d", i, j, i+1, j, a, b)
			}
		}
	}
}

func TestScatterMapErrors(t *testing.T) {
	if _, err := NewScatterMap(3, 4, 4, 4); err == nil {
		t.Fatal("non-power-of-two grid accepted")
	}
	if _, err := NewScatterMap(4, 4, 4, 3); err == nil {
		t.Fatal("non-power-of-two processor count accepted")
	}
	if _, err := NewScatterMap(2, 2, 1, 16); err == nil {
		t.Fatal("more processors than subdomains accepted")
	}
}

// hilbertCells3 lists the cells of the full 2^bits lattice in Hilbert
// order. It fails unless HilbertEncode3 maps the lattice one to one onto
// [0, 8^bits), which is what makes the index decodable.
func hilbertCells3(t *testing.T, bits uint) [][3]uint32 {
	t.Helper()
	side := uint32(1) << bits
	cells := make([][3]uint32, side*side*side)
	seen := make([]bool, len(cells))
	for x := uint32(0); x < side; x++ {
		for y := uint32(0); y < side; y++ {
			for z := uint32(0); z < side; z++ {
				h := HilbertEncode3(x, y, z, bits)
				if h >= uint64(len(cells)) || seen[h] {
					t.Fatalf("bits=%d: HilbertEncode3(%d, %d, %d) = %d is out of range or taken", bits, x, y, z, h)
				}
				seen[h] = true
				cells[h] = [3]uint32{x, y, z}
			}
		}
	}
	return cells
}

// hilbertCells2 is hilbertCells3 for HilbertEncode2.
func hilbertCells2(t *testing.T, bits uint) [][2]uint32 {
	t.Helper()
	side := uint32(1) << bits
	cells := make([][2]uint32, side*side)
	seen := make([]bool, len(cells))
	for x := uint32(0); x < side; x++ {
		for y := uint32(0); y < side; y++ {
			h := HilbertEncode2(x, y, bits)
			if h >= uint64(len(cells)) || seen[h] {
				t.Fatalf("bits=%d: HilbertEncode2(%d, %d) = %d is out of range or taken", bits, x, y, h)
			}
			seen[h] = true
			cells[h] = [2]uint32{x, y}
		}
	}
	return cells
}

// TestHilbert3RoundTrip checks that HilbertEncode3 can be inverted: over
// full lattices it is one to one onto its index range.
func TestHilbert3RoundTrip(t *testing.T) {
	for bits := uint(1); bits <= 5; bits++ {
		hilbertCells3(t, bits)
	}
}

// TestHilbert2RoundTrip is TestHilbert3RoundTrip for HilbertEncode2.
func TestHilbert2RoundTrip(t *testing.T) {
	for bits := uint(1); bits <= 7; bits++ {
		hilbertCells2(t, bits)
	}
}

func TestHilbertIsBijection(t *testing.T) {
	// On the 8³ lattice, all indices are distinct and cover 0..511.
	if cells := hilbertCells3(t, 3); len(cells) != 512 {
		t.Fatalf("%d cells", len(cells))
	}
}

func TestHilbertContinuity(t *testing.T) {
	// Consecutive Hilbert indices are face-adjacent lattice points
	// (Manhattan distance exactly 1): the property Morton lacks.
	for bits := uint(1); bits <= 4; bits++ {
		cells := hilbertCells3(t, bits)
		for h := 1; h < len(cells); h++ {
			a, b := cells[h-1], cells[h]
			if d := absDiff(a[0], b[0]) + absDiff(a[1], b[1]) + absDiff(a[2], b[2]); d != 1 {
				t.Fatalf("bits=%d: 3-D indices %d and %d are %d apart", bits, h-1, h, d)
			}
		}
	}
	for bits := uint(1); bits <= 6; bits++ {
		cells := hilbertCells2(t, bits)
		for h := 1; h < len(cells); h++ {
			a, b := cells[h-1], cells[h]
			if d := absDiff(a[0], b[0]) + absDiff(a[1], b[1]); d != 1 {
				t.Fatalf("bits=%d: 2-D indices %d and %d are %d apart", bits, h-1, h, d)
			}
		}
	}
}

// TestHilbertKnownValues pins the curve's orientation, which adjacency
// alone does not: a curve with two axes swapped is still a Hilbert curve.
// partition.HilbertOrder and the Fig. 5 drawing of examples/figures
// follow this one.
func TestHilbertKnownValues(t *testing.T) {
	want3 := [][3]uint32{{0, 0, 0}, {0, 0, 1}, {0, 1, 1}, {0, 1, 0}, {1, 1, 0}, {1, 1, 1}, {1, 0, 1}, {1, 0, 0}}
	if got := hilbertCells3(t, 1); fmt.Sprint(got) != fmt.Sprint(want3) {
		t.Errorf("3-D order of the unit cube's corners = %v, want %v", got, want3)
	}
	want2 := [4][4]uint64{{0, 1, 14, 15}, {3, 2, 13, 12}, {4, 7, 8, 11}, {5, 6, 9, 10}}
	for y := range want2 {
		for x, w := range want2[y] {
			if h := HilbertEncode2(uint32(x), uint32(y), 2); h != w {
				t.Errorf("HilbertEncode2(%d, %d, 2) = %d, want %d", x, y, h, w)
			}
		}
	}
}

func absDiff(a, b uint32) uint32 {
	if a > b {
		return a - b
	}
	return b - a
}
