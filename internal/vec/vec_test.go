package vec

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) <= 1e-12*(1+math.Abs(a)+math.Abs(b)) }

func v3AlmostEq(a, b V3) bool { return almostEq(a.X, b.X) && almostEq(a.Y, b.Y) && almostEq(a.Z, b.Z) }

func TestAddSub(t *testing.T) {
	a := V3{1, 2, 3}
	b := V3{-4, 5, 0.5}
	if got := a.Add(b); got != (V3{-3, 7, 3.5}) {
		t.Fatalf("Add = %v", got)
	}
	if got := a.Sub(b); got != (V3{5, -3, 2.5}) {
		t.Fatalf("Sub = %v", got)
	}
}

func TestScaleDot(t *testing.T) {
	a := V3{1, -2, 3}
	if got := a.Scale(2); got != (V3{2, -4, 6}) {
		t.Fatalf("Scale = %v", got)
	}
	if got := a.Dot(V3{4, 5, 6}); got != 4-10+18 {
		t.Fatalf("Dot = %v", got)
	}
}

func TestNormDist(t *testing.T) {
	a := V3{3, 4, 0}
	if a.Norm() != 5 {
		t.Fatalf("Norm = %v", a.Norm())
	}
	if a.Norm2() != 25 {
		t.Fatalf("Norm2 = %v", a.Norm2())
	}
	if d := a.Dist(V3{0, 0, 0}); d != 5 {
		t.Fatalf("Dist = %v", d)
	}
	if d := a.Dist2(V3{3, 4, 12}); d != 144 {
		t.Fatalf("Dist2 = %v", d)
	}
}

func TestMinMaxAbs(t *testing.T) {
	a := V3{1, -5, 3}
	b := V3{-2, 4, 3}
	if got := a.Min(b); got != (V3{-2, -5, 3}) {
		t.Fatalf("Min = %v", got)
	}
	if got := a.Max(b); got != (V3{1, 4, 3}) {
		t.Fatalf("Max = %v", got)
	}
	if got := a.MaxComponent(); got != 3 {
		t.Fatalf("MaxComponent = %v", got)
	}
}

func TestBoundingBox(t *testing.T) {
	pts := []V3{{1, 2, 3}, {-1, 5, 0}, {0, 0, 10}}
	b := BoundingBox(pts)
	if b.Min != (V3{-1, 0, 0}) || b.Max != (V3{1, 5, 10}) {
		t.Fatalf("BoundingBox = %+v", b)
	}
	for _, p := range pts {
		if !b.Contains(p) {
			t.Fatalf("box does not contain %v", p)
		}
	}
	if bb := BoundingBox(nil); bb != (Box{}) {
		t.Fatalf("empty BoundingBox = %+v", bb)
	}
}

func TestBoxCube(t *testing.T) {
	b := NewBox(V3{0, 0, 0}, V3{2, 4, 1})
	c := b.Cube()
	s := c.Size()
	if !almostEq(s.X, 4) || !almostEq(s.Y, 4) || !almostEq(s.Z, 4) {
		t.Fatalf("Cube size = %v", s)
	}
	if !v3AlmostEq(c.Center(), b.Center()) {
		t.Fatalf("Cube centre moved: %v vs %v", c.Center(), b.Center())
	}
}

func TestOctants(t *testing.T) {
	b := NewBox(V3{0, 0, 0}, V3{2, 2, 2})
	// Each octant's corners must be inside the parent and each octant must
	// contain the point its index claims.
	for oct := 0; oct < 8; oct++ {
		ch := b.Octant(oct)
		if !b.Contains(ch.Min) || !b.Contains(ch.Max) {
			t.Fatalf("octant %d escapes parent: %+v", oct, ch)
		}
		center := ch.Center()
		if got := b.OctantOf(center); got != oct {
			t.Fatalf("OctantOf(center of %d) = %d", oct, got)
		}
	}
}

func TestOctantOfRoundTrip(t *testing.T) {
	b := NewBox(V3{-1, -1, -1}, V3{1, 1, 1})
	f := func(x, y, z float64) bool {
		// Clamp generated coordinates into the box.
		clamp := func(v float64) float64 {
			return math.Mod(math.Abs(v), 2) - 1 // in [-1, 1)
		}
		p := V3{clamp(x), clamp(y), clamp(z)}
		oct := b.OctantOf(p)
		return b.Octant(oct).Contains(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestUnionExpand(t *testing.T) {
	a := NewBox(V3{0, 0, 0}, V3{1, 1, 1})
	b := NewBox(V3{2, -1, 0}, V3{3, 0, 5})
	// The union of two boxes is the bounding box of their corners.
	u := BoundingBox([]V3{a.Min, a.Max, b.Min, b.Max})
	if u.Min != (V3{0, -1, 0}) || u.Max != (V3{3, 1, 5}) {
		t.Fatalf("Union = %+v", u)
	}
	e := a.Expand(0.5)
	if e.Min != (V3{-0.5, -0.5, -0.5}) || e.Max != (V3{1.5, 1.5, 1.5}) {
		t.Fatalf("Expand = %+v", e)
	}
}

func TestBoxCenterSize(t *testing.T) {
	b := NewBox(V3{-2, 0, 4}, V3{2, 2, 8})
	if b.Center() != (V3{0, 1, 6}) {
		t.Fatalf("Center = %v", b.Center())
	}
	if b.Size() != (V3{4, 2, 4}) {
		t.Fatalf("Size = %v", b.Size())
	}
	if b.LongestSide() != 4 {
		t.Fatalf("LongestSide = %v", b.LongestSide())
	}
}
