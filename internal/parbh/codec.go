package parbh

import (
	"fmt"

	"repro/internal/let"
	"repro/internal/msg"
	"repro/internal/transport"
	"repro/internal/tree"
	"repro/internal/vec"
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

func putV3(w *transport.Writer, v vec.V3) {
	w.F64(v.X)
	w.F64(v.Y)
	w.F64(v.Z)
}

func getV3(r *transport.Reader) vec.V3 {
	return vec.V3{X: r.F64(), Y: r.F64(), Z: r.F64()}
}

func putBool(w *transport.Writer, b bool) {
	if b {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

func putF64s(w *transport.Writer, v []float64) {
	w.Len(len(v), v == nil)
	for _, x := range v {
		w.F64(x)
	}
}

func getF64s(r *transport.Reader) []float64 {
	n, notNil := r.SliceLen(8)
	if !notNil || r.Err() != nil {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = r.F64()
	}
	return out
}

func putI32s(w *transport.Writer, v []int32) {
	w.Len(len(v), v == nil)
	for _, x := range v {
		w.I32(x)
	}
}

func getI32s(r *transport.Reader) []int32 {
	n, notNil := r.SliceLen(4)
	if !notNil || r.Err() != nil {
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = r.I32()
	}
	return out
}

func putU8s(w *transport.Writer, v []uint8) {
	w.Len(len(v), v == nil)
	for _, x := range v {
		w.U8(x)
	}
}

func getU8s(r *transport.Reader) []uint8 {
	n, notNil := r.SliceLen(1)
	if !notNil || r.Err() != nil {
		return nil
	}
	out := make([]uint8, n)
	for i := range out {
		out[i] = r.U8()
	}
	return out
}

func putSection(w *transport.Writer, s *let.Section) {
	w.U64(s.BranchKey)
	w.I64(s.Epoch)
	if s.Cached {
		w.U8(1)
		return
	}
	w.U8(0)
	putU8s(w, s.Kind)
	putI32s(w, s.Skip)
	putF64s(w, s.ComX)
	putF64s(w, s.ComY)
	putF64s(w, s.ComZ)
	putF64s(w, s.Mass)
	putF64s(w, s.Side)
	putI32s(w, s.LeafLo)
	putI32s(w, s.LeafHi)
	putF64s(w, s.Exp)
	w.I32(s.ExpStride)
	putI32s(w, s.PID)
	putF64s(w, s.PX)
	putF64s(w, s.PY)
	putF64s(w, s.PZ)
	putF64s(w, s.PM)
}

func getSection(r *transport.Reader) *let.Section {
	s := &let.Section{BranchKey: r.U64(), Epoch: r.I64()}
	if r.U8() != 0 {
		s.Cached = true
		return s
	}
	s.Kind = getU8s(r)
	s.Skip = getI32s(r)
	s.ComX = getF64s(r)
	s.ComY = getF64s(r)
	s.ComZ = getF64s(r)
	s.Mass = getF64s(r)
	s.Side = getF64s(r)
	s.LeafLo = getI32s(r)
	s.LeafHi = getI32s(r)
	s.Exp = getF64s(r)
	s.ExpStride = r.I32()
	s.PID = getI32s(r)
	s.PX = getF64s(r)
	s.PY = getF64s(r)
	s.PZ = getF64s(r)
	s.PM = getF64s(r)
	return s
}

func putSummary(w *transport.Writer, s BranchSummary) {
	w.U64(s.Key)
	w.I32(s.Owner)
	w.I32(s.Count)
	w.F64(s.Mass)
	putV3(w, s.COM)
	putF64s(w, s.Exp)
}

func getSummary(r *transport.Reader) BranchSummary {
	var s BranchSummary
	s.Key = r.U64()
	s.Owner = r.I32()
	s.Count = r.I32()
	s.Mass = r.F64()
	s.COM = getV3(r)
	s.Exp = getF64s(r)
	return s
}

func init() {
	transport.Register(idWireParticles,
		func(w *transport.Writer, v []wireParticle) {
			w.Len(len(v), v == nil)
			for _, q := range v {
				w.I32(q.ID)
				w.F64(q.Mass)
				putV3(w, q.Pos)
				putV3(w, q.Vel)
			}
		},
		func(r *transport.Reader) ([]wireParticle, error) {
			// One encoded particle: i32 ID + mass + two V3s = 60 bytes.
			n, notNil := r.SliceLen(60)
			if !notNil || r.Err() != nil {
				return nil, r.Err()
			}
			out := wirePool.get(n)
			for i := range out {
				out[i].ID = r.I32()
				out[i].Mass = r.F64()
				out[i].Pos = getV3(r)
				out[i].Vel = getV3(r)
			}
			return out, r.Err()
		})
	transport.Register(idReqBin,
		func(w *transport.Writer, v reqBin) {
			w.Len(len(v.Entries), v.Entries == nil)
			for _, e := range v.Entries {
				w.U64(e.Key)
				putV3(w, e.Pos)
				w.I32(e.Self)
				w.I32(e.Slot)
			}
			putBool(w, v.More)
		},
		func(r *transport.Reader) (reqBin, error) {
			var v reqBin
			if n, notNil := r.SliceLen(8 * 5); notNil && r.Err() == nil {
				v.Entries = reqEntryPool.get(n)
				for i := range v.Entries {
					v.Entries[i].Key = r.U64()
					v.Entries[i].Pos = getV3(r)
					v.Entries[i].Self = r.I32()
					v.Entries[i].Slot = r.I32()
				}
			}
			v.More = r.U8() != 0
			return v, r.Err()
		})
	transport.Register(idShipLog,
		func(w *transport.Writer, v shipLog) {
			w.F64(v.Start)
			putF64s(w, v.Flops)
			putI32s(w, v.Ships)
			w.Len(len(v.Owners), v.Owners == nil)
			for _, o := range v.Owners {
				w.U16(o)
			}
			w.Len(len(v.Served), v.Served == nil)
			for _, bins := range v.Served {
				putF64s(w, bins)
			}
		},
		func(r *transport.Reader) (shipLog, error) {
			v := shipLog{Start: r.F64(), Flops: getF64s(r), Ships: getI32s(r)}
			if n, notNil := r.SliceLen(2); notNil && r.Err() == nil {
				v.Owners = make([]uint16, n)
				for i := range v.Owners {
					v.Owners[i] = r.U16()
				}
			}
			if n, notNil := r.SliceLen(4); notNil && r.Err() == nil {
				v.Served = make([][]float64, n)
				for q := range v.Served {
					v.Served[q] = getF64s(r)
				}
			}
			return v, r.Err()
		})
	transport.Register(idRepBin,
		func(w *transport.Writer, v repBin) {
			w.Len(len(v.Slots), v.Slots == nil)
			for _, s := range v.Slots {
				w.I32(s)
			}
			w.Len(len(v.F), v.F == nil)
			for _, f := range v.F {
				putV3(w, f)
			}
			putF64s(w, v.P)
		},
		func(r *transport.Reader) (repBin, error) {
			var v repBin
			if n, notNil := r.SliceLen(4); notNil && r.Err() == nil {
				v.Slots = slotPool.get(n)
				for i := range v.Slots {
					v.Slots[i] = r.I32()
				}
			}
			if n, notNil := r.SliceLen(24); notNil && r.Err() == nil {
				v.F = vec3Pool.get(n)
				for i := range v.F {
					v.F[i] = getV3(r)
				}
			}
			if n, notNil := r.SliceLen(8); notNil && r.Err() == nil {
				v.P = f64Pool.get(n)
				for i := range v.P {
					v.P[i] = r.F64()
				}
			}
			return v, r.Err()
		})
	transport.Register(idSummary,
		func(w *transport.Writer, v BranchSummary) { putSummary(w, v) },
		func(r *transport.Reader) (BranchSummary, error) { return getSummary(r), r.Err() })
	transport.Register(idSummaries,
		func(w *transport.Writer, v []BranchSummary) {
			w.Len(len(v), v == nil)
			for _, s := range v {
				putSummary(w, s)
			}
		},
		func(r *transport.Reader) ([]BranchSummary, error) {
			// Minimum encoded summary (nil Exp): 52 bytes.
			n, notNil := r.SliceLen(52)
			if !notNil || r.Err() != nil {
				return nil, r.Err()
			}
			out := make([]BranchSummary, n)
			for i := range out {
				out[i] = getSummary(r)
			}
			return out, r.Err()
		})
	transport.Register(idFetchedCells,
		func(w *transport.Writer, v []fetchedCell) {
			w.Len(len(v), v == nil)
			for _, c := range v {
				w.U64(c.Key)
				w.Len(len(c.Children), c.Children == nil)
				for _, fc := range c.Children {
					putSummary(w, fc.Sum)
					putBool(w, fc.IsLeaf)
					w.Len(len(fc.Particles), fc.Particles == nil)
					for _, q := range fc.Particles {
						w.I32(q.ID)
						w.F64(q.Mass)
						putV3(w, q.Pos)
						putV3(w, q.Vel)
					}
				}
			}
		},
		func(r *transport.Reader) ([]fetchedCell, error) {
			n, notNil := r.SliceLen(8)
			if !notNil || r.Err() != nil {
				return nil, r.Err()
			}
			out := make([]fetchedCell, n)
			for i := range out {
				out[i].Key = r.U64()
				nc, cNotNil := r.SliceLen(52)
				if r.Err() != nil {
					return nil, r.Err()
				}
				if !cNotNil {
					continue
				}
				out[i].Children = make([]fetchedChild, nc)
				for j := range out[i].Children {
					fc := &out[i].Children[j]
					fc.Sum = getSummary(r)
					fc.IsLeaf = r.U8() != 0
					np, pNotNil := r.SliceLen(60)
					if r.Err() != nil {
						return nil, r.Err()
					}
					if !pNotNil {
						continue
					}
					fc.Particles = make([]wireParticle, np)
					for k := range fc.Particles {
						fc.Particles[k].ID = r.I32()
						fc.Particles[k].Mass = r.F64()
						fc.Particles[k].Pos = getV3(r)
						fc.Particles[k].Vel = getV3(r)
					}
				}
			}
			return out, r.Err()
		})
	transport.Register(idRankOut,
		func(w *transport.Writer, v rankOut) {
			w.I32(v.Rank)
			w.F64(v.MsgStats.ComputeTime)
			w.F64(v.MsgStats.CommTime)
			w.I64(v.MsgStats.Messages)
			w.I64(v.MsgStats.Words)
			w.F64(v.MsgStats.Flops)
			w.I64(v.TreeStats.MACTests)
			w.I64(v.TreeStats.PC)
			w.I64(v.TreeStats.PP)
			w.F64(v.ForceT)
			w.I32(v.Branches)
			w.Len(len(v.IDs), v.IDs == nil)
			for _, id := range v.IDs {
				w.I32(id)
			}
			w.Len(len(v.F), v.F == nil)
			for _, f := range v.F {
				putV3(w, f)
			}
			putF64s(w, v.P)
		},
		func(r *transport.Reader) (rankOut, error) {
			var v rankOut
			v.Rank = r.I32()
			v.MsgStats = msg.Stats{
				ComputeTime: r.F64(),
				CommTime:    r.F64(),
				Messages:    r.I64(),
				Words:       r.I64(),
				Flops:       r.F64(),
			}
			v.TreeStats = tree.Stats{MACTests: r.I64(), PC: r.I64(), PP: r.I64()}
			v.ForceT = r.F64()
			v.Branches = r.I32()
			if n, notNil := r.SliceLen(4); notNil && r.Err() == nil {
				v.IDs = make([]int32, n)
				for i := range v.IDs {
					v.IDs[i] = r.I32()
				}
			}
			if n, notNil := r.SliceLen(24); notNil && r.Err() == nil {
				v.F = make([]vec.V3, n)
				for i := range v.F {
					v.F[i] = getV3(r)
				}
			}
			v.P = getF64s(r)
			return v, r.Err()
		})
	transport.Register(idLETBounds,
		func(w *transport.Writer, v let.Bounds) {
			putBool(w, v.Has)
			putV3(w, v.Min)
			putV3(w, v.Max)
		},
		func(r *transport.Reader) (let.Bounds, error) {
			var v let.Bounds
			v.Has = r.U8() != 0
			v.Min = getV3(r)
			v.Max = getV3(r)
			return v, r.Err()
		})
	transport.Register(idLETShip,
		func(w *transport.Writer, v letShipMsg) {
			w.Len(len(v.Secs), v.Secs == nil)
			for _, s := range v.Secs {
				putSection(w, s)
			}
		},
		func(r *transport.Reader) (letShipMsg, error) {
			// Minimum encoded section (cached marker): key + epoch + flag
			// = 17 bytes.
			n, notNil := r.SliceLen(17)
			if !notNil || r.Err() != nil {
				return letShipMsg{}, r.Err()
			}
			v := letShipMsg{Secs: make([]*let.Section, n)}
			for i := range v.Secs {
				v.Secs[i] = getSection(r)
			}
			return v, r.Err()
		})
	transport.Register(idLETLoad,
		func(w *transport.Writer, v letLoadMsg) {
			w.Len(len(v.Keys), v.Keys == nil)
			for _, k := range v.Keys {
				w.U64(k)
			}
			putI32s(w, v.Nodes)
			w.Len(len(v.Deltas), v.Deltas == nil)
			for _, d := range v.Deltas {
				w.I64(d)
			}
		},
		func(r *transport.Reader) (letLoadMsg, error) {
			var v letLoadMsg
			if n, notNil := r.SliceLen(8); notNil && r.Err() == nil {
				v.Keys = make([]uint64, n)
				for i := range v.Keys {
					v.Keys[i] = r.U64()
				}
			}
			v.Nodes = getI32s(r)
			if n, notNil := r.SliceLen(8); notNil && r.Err() == nil {
				v.Deltas = make([]int64, n)
				for i := range v.Deltas {
					v.Deltas[i] = r.I64()
				}
			}
			return v, r.Err()
		})
	transport.Register(idStepOutputs,
		func(w *transport.Writer, v stepOutputs) {
			w.I64(int64(v.Step))
			w.Len(len(v.Outs), v.Outs == nil)
			for _, o := range v.Outs {
				transport.MustEncodeAny(w, o)
			}
		},
		func(r *transport.Reader) (stepOutputs, error) {
			var v stepOutputs
			v.Step = int(r.I64())
			n, notNil := r.SliceLen(2)
			if !notNil || r.Err() != nil {
				return v, r.Err()
			}
			v.Outs = make([]rankOut, n)
			for i := range v.Outs {
				o, err := transport.DecodeAny(r)
				if err != nil {
					return v, err
				}
				ro, ok := o.(rankOut)
				if !ok {
					return v, fmt.Errorf("parbh: stepOutputs element %d is %T, want rankOut", i, o)
				}
				v.Outs[i] = ro
			}
			return v, r.Err()
		})
}
