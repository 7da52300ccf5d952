package service

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"
	"strings"
)

// CacheKey returns the canonical identity of the simulation this spec
// describes: a SHA-256 over the normalized, physics-affecting fields.
// Two specs that must produce bit-identical results — because simulated
// metrics are deterministic functions of the simulation inputs (the
// two-clock rule) — hash to the same key, regardless of JSON field
// order, enum casing, or whether a field was left to default or spelled
// out explicitly. Fields that only shape host-side behavior (Name,
// Trace, CheckpointEvery) are excluded: they cannot change a result
// byte.
//
// The receiver is not mutated; normalization happens on a copy.
func (s JobSpec) CacheKey() string {
	c := s // copy; Validate normalizes in place
	// Fill the same defaults admission would. Validate cannot fail in a
	// way that matters for identity: an invalid spec never reaches the
	// cache, so its key is irrelevant (but still deterministic).
	_ = (&c).Validate()

	mode := strings.ToLower(c.Mode)
	degree := c.Degree
	if mode == "potential" {
		if degree == 0 {
			degree = 4 // parbh default in potential mode
		}
	} else {
		degree = 0 // force mode uses monopoles; degree never enters the physics
	}
	integrator := strings.ToLower(c.Integrator)
	if integrator == "" {
		integrator = "leapfrog"
	}
	shipping := strings.ToLower(c.Shipping)
	if shipping == "" {
		shipping = "function"
	}
	transport := strings.ToLower(c.Transport)
	if transport == "" {
		transport = "inproc"
	}
	alpha := c.Alpha
	if alpha == 0 {
		alpha = 0.67
	}
	dt := c.DT
	if dt == 0 {
		dt = 0.01
	}
	gridLog2 := c.GridLog2
	if gridLog2 == 0 {
		gridLog2 = 3
	}
	binSize := c.BinSize
	if binSize == 0 {
		binSize = 100
	}

	// A fixed field order plus canonical float formatting makes the
	// digest stable across processes and releases of the JSON encoder.
	var b strings.Builder
	put := func(k, v string) {
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(v)
		b.WriteByte('\n')
	}
	putInt := func(k string, v int64) { put(k, strconv.FormatInt(v, 10)) }
	putFloat := func(k string, v float64) { put(k, strconv.FormatFloat(v, 'g', -1, 64)) }

	put("dist", strings.ToLower(c.Dist))
	putInt("n", int64(c.N))
	putInt("seed", c.Seed)
	putInt("processors", int64(c.Processors))
	put("scheme", strings.ToLower(c.Scheme))
	put("machine", strings.ToLower(c.Machine))
	put("mode", mode)
	putInt("steps", int64(c.Steps))
	putFloat("alpha", alpha)
	putInt("degree", int64(degree))
	putFloat("eps", c.Eps)
	putFloat("dt", dt)
	putInt("grid_log2", int64(gridLog2))
	putInt("bin_size", int64(binSize))
	put("integrator", integrator)
	put("shipping", shipping)
	// Transport is part of the identity: a tcp job runs distributed
	// force evaluations with no integration, so its result differs from
	// the same spec run in-process.
	put("transport", transport)

	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}
