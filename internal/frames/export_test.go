package frames

import "repro/internal/recio"

// Inject puts fault between w and its file (see recio.File.Inject).
func (w *Writer) Inject(fault *recio.Fault) { w.file.Inject(fault) }
