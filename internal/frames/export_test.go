package frames

import "repro/internal/recio"

// Inject puts fault between w and its file (see recio.File.Inject).
func (w *Writer) Inject(fault *recio.Fault) { w.file.Inject(fault) }

// EncodeKeyframe is f's keyframe record built in one allocation of
// exactly its size: the oracle WriteKeyframe's stream is compared with.
func EncodeKeyframe(f *Frame) []byte {
	return appendKeyframe(make([]byte, 0, keyframeLen(f)), f)
}
