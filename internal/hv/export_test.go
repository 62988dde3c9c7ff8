package hv

import "optimus/internal/mem"

// FramePinned reports whether the host frame at pa is pinned, for tests
// that check a teardown released exactly its own frames.
func (h *Hypervisor) FramePinned(pa mem.HPA) bool { return h.frames.Pinned(pa) }
