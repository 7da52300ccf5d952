package parbh

import (
	"slices"

	"repro/internal/let"
	"repro/internal/msg"
	"repro/internal/recio"
	"repro/internal/transport"
	"repro/internal/tree"
)

// Wire IDs 31–50 are reserved for this package (see the block table in
// internal/transport/codec.go). Everything an SPSA/SPDA/DPDA step can
// put on the wire is registered here: particle migrations, the
// function-shipping request/reply bins, branch summaries for the tree
// merge, the data-shipping cell fetches, and the end-of-step result
// gather envelopes. The codec exhaustiveness test runs full steps on a
// strict-wire machine to keep this list honest.
const (
	idWireParticles uint16 = 31
	idReqBin        uint16 = 32
	idRepBin        uint16 = 33
	idSummary       uint16 = 34
	idSummaries     uint16 = 35
	idFetchedCells  uint16 = 36
	idRankOut       uint16 = 37
	idStepOutputs   uint16 = 38
	idLETBounds     uint16 = 39
	idLETShip       uint16 = 40
	idLETLoad       uint16 = 41
	idShipLog       uint16 = 42
)

func codeParticle(c *recio.Coder, q *wireParticle) {
	c.I32(&q.ID)
	c.F64(&q.Mass)
	c.V3(&q.Pos)
	c.V3(&q.Vel)
}

// particleSize is one encoded particle: i32 ID + mass + two V3s.
const particleSize = 60

func codeSummary(c *recio.Coder, s *BranchSummary) {
	c.U64(&s.Key)
	c.I32(&s.Owner)
	c.I32(&s.Count)
	c.F64(&s.Mass)
	c.V3(&s.COM)
	c.F64s(&s.Exp)
}

// summarySize is the smallest encoded summary (nil Exp).
const summarySize = 52

func codeSection(c *recio.Coder, p **let.Section) {
	if c.Decoding {
		*p = new(let.Section)
	}
	s := *p
	c.U64(&s.BranchKey)
	recio.Slice(c, &s.Kind, 1, codeSectionKind)
	c.I32s(&s.Skip)
	c.F64s(&s.ComX)
	c.F64s(&s.ComY)
	c.F64s(&s.ComZ)
	c.F64s(&s.Mass)
	c.F64s(&s.Side)
	c.I32s(&s.Lo)
	c.I32s(&s.Hi)
	c.F64s(&s.ExpFloats)
	c.I32(&s.ExpStride)
	c.I32s(&s.ID)
	c.F64s(&s.PX)
	c.F64s(&s.PY)
	c.F64s(&s.PZ)
	c.F64s(&s.PM)
	// The receiver's sweep walks the section's columns unchecked.
	if c.Decoding {
		if err := s.CheckWalk(); err != nil {
			c.R.Fail("parbh: section: %v", err)
		}
	}
}

// A section node's kind travels as the code the wire has always carried:
// 0 open (tree.KindInternal), 1 closed (tree.KindClosed), 2 leaf
// (tree.KindLeaf). Any other code fails the decode.
var sectionKinds = [...]uint8{tree.KindInternal, tree.KindClosed, tree.KindLeaf}

func codeSectionKind(c *recio.Coder, k *uint8) {
	w := uint8(slices.Index(sectionKinds[:], *k)) // 0xff for a kind no section holds
	c.U8(&w)
	if c.Decoding {
		if int(w) >= len(sectionKinds) {
			c.R.Fail("parbh: section node kind %d", w)
			return
		}
		*k = sectionKinds[w]
	}
}

// sectionSize is the smallest encoded section: key + stride + fifteen
// empty columns.
const sectionSize = 72

// reqPartSize is one encoded request particle: a V3, its ID and its
// entry count.
const reqPartSize = 32

// checkReqBin fails the decode of a request bin whose particles do not
// account for its branch ordinals exactly: the owner's service would index
// past them. An ordinal itself is checked where it is served.
func checkReqBin(c *recio.Coder, v *reqBin) {
	var sum int64
	for i, q := range v.Parts {
		if q.N < 0 {
			c.R.Fail("parbh: request particle %d has %d entries", i, q.N)
			return
		}
		sum += int64(q.N)
	}
	if sum != int64(len(v.Branches)) {
		c.R.Fail("parbh: request particles hold %d entries, the bin %d branches", sum, len(v.Branches))
	}
}

func init() {
	transport.Register(idWireParticles, func(c *recio.Coder, v *[]wireParticle) {
		recio.Slice(c, v, particleSize, codeParticle)
	})
	transport.Register(idReqBin, func(c *recio.Coder, v *reqBin) {
		recio.Slice(c, &v.Parts, reqPartSize, func(c *recio.Coder, q *reqPart) {
			c.V3(&q.Pos)
			c.I32(&q.Self)
			c.I32(&q.N)
		})
		recio.Slice(c, &v.Branches, 8, (*recio.Coder).U64)
		c.Bool(&v.More)
		if c.Decoding {
			checkReqBin(c, v)
		}
	})
	transport.Register(idShipLog, func(c *recio.Coder, v *shipLog) {
		c.F64(&v.Start)
		c.F64s(&v.Flops)
		c.I32s(&v.Ships)
		recio.Slice(c, &v.Owners, 2, (*recio.Coder).U16)
		recio.Slice(c, &v.Served, 4, (*recio.Coder).F64s)
	})
	transport.Register(idRepBin, func(c *recio.Coder, v *repBin) {
		recio.Slice(c, &v.F, 24, (*recio.Coder).V3)
		recio.Slice(c, &v.P, 8, (*recio.Coder).F64)
	})
	transport.Register(idSummary, codeSummary)
	transport.Register(idSummaries, func(c *recio.Coder, v *[]BranchSummary) {
		recio.Slice(c, v, summarySize, codeSummary)
	})
	transport.Register(idFetchedCells, func(c *recio.Coder, v *[]fetchedCell) {
		recio.Slice(c, v, 8, func(c *recio.Coder, cell *fetchedCell) {
			c.U64(&cell.Key)
			recio.Slice(c, &cell.Children, summarySize, func(c *recio.Coder, fc *fetchedChild) {
				codeSummary(c, &fc.Sum)
				c.Bool(&fc.IsLeaf)
				recio.Slice(c, &fc.Particles, particleSize, codeParticle)
			})
		})
	})
	transport.Register(idRankOut, func(c *recio.Coder, v *rankOut) {
		c.I32(&v.Rank)
		msg.CodeStats(c, &v.MsgStats)
		c.I64(&v.TreeStats.MACTests)
		c.I64(&v.TreeStats.PC)
		c.I64(&v.TreeStats.PP)
		c.F64(&v.ForceT)
		c.I32(&v.Branches)
		c.I32s(&v.IDs)
		recio.Slice(c, &v.F, 24, (*recio.Coder).V3)
		c.F64s(&v.P)
	})
	transport.Register(idLETBounds, func(c *recio.Coder, v *let.Bounds) {
		c.Bool(&v.Has)
		c.V3(&v.Min)
		c.V3(&v.Max)
	})
	transport.Register(idLETShip, func(c *recio.Coder, v *letShipMsg) {
		recio.Slice(c, &v.Secs, sectionSize, codeSection)
	})
	transport.Register(idLETLoad, func(c *recio.Coder, v *letLoadMsg) {
		recio.Slice(c, &v.Keys, 8, (*recio.Coder).U64)
		c.I32s(&v.Nodes)
		recio.Slice(c, &v.Deltas, 8, (*recio.Coder).I64)
	})
	transport.Register(idStepOutputs, func(c *recio.Coder, v *stepOutputs) {
		recio.Int64(c, &v.Step)
		// Each output travels as a nested payload, wire ID first, which
		// the two directions reach from different sides of an interface.
		recio.Slice(c, &v.Outs, 2, func(c *recio.Coder, o *rankOut) {
			if !c.Decoding {
				var boxed any = *o
				transport.Any(c, &boxed)
				return
			}
			var got any
			transport.Any(c, &got)
			if ro, ok := got.(rankOut); ok {
				*o = ro
			} else if c.Err() == nil {
				c.R.Fail("parbh: stepOutputs element is %T, want rankOut", got)
			}
		})
	})
}
