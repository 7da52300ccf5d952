package dist

import (
	"math/rand"
	"testing"

	"repro/internal/vec"
)

func TestParticlesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ps := make([]Particle, 137)
	for i := range ps {
		ps[i] = Particle{
			ID:   i,
			Mass: rng.Float64(),
			Pos:  vec.V3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()},
			Vel:  vec.V3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()},
		}
	}
	c := FromAoS(ps)
	if c.Len() != len(ps) {
		t.Fatalf("Len = %d, want %d", c.Len(), len(ps))
	}
	for i := range ps {
		if c.At(i) != ps[i] {
			t.Fatalf("At(%d) = %+v, want %+v", i, c.At(i), ps[i])
		}
	}
	out := make([]Particle, len(ps))
	c.Scatter(out)
	for i := range ps {
		if out[i] != ps[i] {
			t.Fatalf("Scatter[%d] = %+v, want %+v", i, out[i], ps[i])
		}
	}

	// Gather reuses capacity: a second, shorter gather must fully replace
	// the contents.
	c.Gather(ps[:10])
	if c.Len() != 10 {
		t.Fatalf("after regather Len = %d, want 10", c.Len())
	}
	for i := 0; i < 10; i++ {
		if c.At(i) != ps[i] {
			t.Fatalf("regather At(%d) mismatch", i)
		}
	}
}

func TestParticlesScatterLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Scatter with wrong length did not panic")
		}
	}()
	c := FromAoS(make([]Particle, 3))
	c.Scatter(make([]Particle, 2))
}
