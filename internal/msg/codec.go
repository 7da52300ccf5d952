package msg

import "repro/internal/transport"

// Wire IDs 21–30 are reserved for this package (see the block table in
// internal/transport/codec.go).
const (
	idPack   uint16 = 21
	idTriple uint16 = 22
	idReplay uint16 = 23
)

// The collective envelopes carry nested `any` payloads; those inner
// values resolve through the registry recursively, so anything a
// collective can forward must itself be registered.
func init() {
	transport.Register(idReplay,
		func(w *transport.Writer, v Replayed) {
			w.F64(v.Now)
			w.F64(v.Stats.ComputeTime)
			w.F64(v.Stats.CommTime)
			w.I64(v.Stats.Messages)
			w.I64(v.Stats.Words)
			w.F64(v.Stats.Flops)
		},
		func(r *transport.Reader) (Replayed, error) {
			v := Replayed{Now: r.F64()}
			v.Stats = Stats{ComputeTime: r.F64(), CommTime: r.F64(), Messages: r.I64(), Words: r.I64(), Flops: r.F64()}
			return v, r.Err()
		})
	transport.Register(idPack,
		func(w *transport.Writer, v pack) {
			w.Len(len(v.ranks), v.ranks == nil)
			for _, r := range v.ranks {
				w.I32(int32(r))
			}
			w.Len(len(v.items), v.items == nil)
			for _, it := range v.items {
				transport.MustEncodeAny(w, it)
			}
			w.Len(len(v.words), v.words == nil)
			for _, n := range v.words {
				w.I64(int64(n))
			}
		},
		func(r *transport.Reader) (pack, error) {
			var v pack
			if n, notNil := r.SliceLen(4); notNil && r.Err() == nil {
				v.ranks = make([]int, n)
				for i := range v.ranks {
					v.ranks[i] = int(r.I32())
				}
			}
			if n, notNil := r.SliceLen(2); notNil && r.Err() == nil {
				v.items = make([]any, n)
				for i := range v.items {
					it, err := transport.DecodeAny(r)
					if err != nil {
						return pack{}, err
					}
					v.items[i] = it
				}
			}
			if n, notNil := r.SliceLen(8); notNil && r.Err() == nil {
				v.words = make([]int, n)
				for i := range v.words {
					v.words[i] = int(r.I64())
				}
			}
			return v, r.Err()
		})
	transport.Register(idTriple,
		func(w *transport.Writer, v [3]any) {
			for _, it := range v {
				transport.MustEncodeAny(w, it)
			}
		},
		func(r *transport.Reader) ([3]any, error) {
			var v [3]any
			for i := range v {
				it, err := transport.DecodeAny(r)
				if err != nil {
					return v, err
				}
				v[i] = it
			}
			return v, r.Err()
		})
}
