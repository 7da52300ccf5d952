package msg

import (
	"repro/internal/recio"
	"repro/internal/transport"
)

// Wire IDs 21–30 are reserved for this package (see the block table in
// internal/transport/codec.go).
const (
	idPack   uint16 = 21
	idTriple uint16 = 22
	idReplay uint16 = 23
)

// CodeStats lists the wire fields of a Stats, for every payload that
// carries one.
func CodeStats(c *recio.Coder, s *Stats) {
	c.F64(&s.ComputeTime)
	c.F64(&s.CommTime)
	c.I64(&s.Messages)
	c.I64(&s.Words)
	c.F64(&s.Flops)
}

// CodeProfile lists the fields of a CostProfile, for the cluster's job
// start and the root package's checkpoint.
func CodeProfile(c *recio.Coder, p *CostProfile) {
	c.Str(&p.Name)
	c.F64(&p.FlopRate)
	c.F64(&p.TS)
	c.F64(&p.TW)
	c.F64(&p.TH)
	recio.Int32(c, &p.Topology)
	c.Bool(&p.StoreAndForward)
}

// The collective envelopes carry nested `any` payloads; those inner
// values resolve through the registry recursively, so anything a
// collective can forward must itself be registered.
func init() {
	transport.Register(idReplay, func(c *recio.Coder, v *Replayed) {
		c.F64(&v.Now)
		CodeStats(c, &v.Stats)
	})
	transport.Register(idPack, func(c *recio.Coder, v *pack) {
		recio.Slice(c, &v.ranks, 4, recio.Int32[int])
		recio.Slice(c, &v.items, 2, transport.Any)
		recio.Slice(c, &v.words, 8, recio.Int64[int])
	})
	transport.Register(idTriple, func(c *recio.Coder, v *[3]any) {
		for i := range v {
			transport.Any(c, &v[i])
		}
	})
}
