// Package mem models host physical memory for the simulated shared-memory
// FPGA platform: a sparse byte-addressable physical address space, a frame
// allocator for 4 KB and 2 MB pages, and page pinning (DMA-accessible pages
// must be pinned because the IOMMU cannot take page faults — §5 of the
// paper).
package mem

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync/atomic"
)

// Page sizes supported by the platform.
const (
	PageSize4K = 4 << 10
	PageSize2M = 2 << 20
	LineSize   = 64 // CCI-P cache line
)

// frameSize is the internal backing granularity of the sparse store.
const frameSize = PageSize4K

// frame is the backing store of one 4 KB frame plus its sharing header.
// Frames are shared copy-on-write between a cloned platform and its
// template (see ShareFrom): while refs > 1 the data is immutable and the
// first write copies the frame. The header lives with the data so the
// hot-path sharing check costs one load from memory the write touches
// anyway.
type frame struct {
	// refs counts the PhysMems whose frame map references this frame:
	// 1 = exclusively owned (in-place writes allowed), >1 = shared
	// read-only. Atomic because sweep workers break shares of the same
	// template frame concurrently; the release/acquire ordering of the
	// atomic ops is what makes "refs == 1 implies sole visibility" sound
	// across goroutines.
	refs atomic.Int32
	// gen is the dirty stamp: the owning PhysMem's dirty generation at the
	// last write. Shared frames are never restamped (the write that would
	// restamp them breaks the share first), so a frame inherited from a
	// template always carries a stamp older than the clone's generation.
	gen  uint64
	data [frameSize]byte
}

// PhysMem is a sparse simulated physical memory. Frames are materialized on
// first write; reads of untouched memory return zeros. This lets experiments
// declare multi-gigabyte working sets (which matter only for IOTLB indexing)
// without the host allocating them.
//
// Frames can be shared copy-on-write across PhysMems (ShareFrom): shared
// frames are read-only and the first write to one copies just that frame.
// Writes also stamp the frame with the current dirty generation, giving
// checkpoint/restore and live migration their dirty-page substrate
// (DirtyFrames/ResetDirty) for free.
//
//optimus:state
type PhysMem struct {
	size   uint64
	frames frameTable
	// discardWrites drops write data instead of materializing frames.
	// Bandwidth experiments (MemBench over multi-GB working sets) enable
	// it: timing is unaffected, only content fidelity is sacrificed.
	discardWrites bool
	// gen is the current dirty generation: a frame is dirty iff its stamp
	// equals gen. ResetDirty bumps gen, cleaning every frame in O(1).
	gen uint64
	// cowBreaks counts share-breaking frame copies performed by this
	// PhysMem's writes.
	//optimus:clone-skip per-instance CoW accounting, not guest-visible state; a clone starts its own break count
	cowBreaks uint64
	// slab holds the not yet used frames of the last slab allocation (see
	// alloc), and slabFrames is that slab's size.
	//optimus:clone-skip allocation arena, not memory contents; a clone carves its own
	slab []frame
	//optimus:clone-skip allocation arena, not memory contents; a clone carves its own
	slabFrames int
}

// NewPhysMem returns a physical memory of the given size in bytes.
func NewPhysMem(size uint64) *PhysMem {
	return &PhysMem{size: size, frames: newFrameTable(size)}
}

// Size returns the physical memory size in bytes.
func (m *PhysMem) Size() uint64 { return m.size }

// ResidentBytes returns the number of bytes actually backed by storage.
func (m *PhysMem) ResidentBytes() uint64 { return uint64(m.frames.n) * frameSize }

// ResidentFrames returns the number of materialized frames.
func (m *PhysMem) ResidentFrames() int { return m.frames.n }

// SharedFrames returns the number of resident frames whose backing store is
// currently shared copy-on-write with another PhysMem. It walks the frame
// table, so it is a snapshot operation (metrics, artifacts), not a hot-path
// one.
func (m *PhysMem) SharedFrames() int {
	n := 0
	m.frames.walk(func(_ HPA, f *frame) {
		if f.refs.Load() > 1 {
			n++
		}
	})
	return n
}

// SharedBytes returns the bytes of backing store shared with other
// PhysMems.
func (m *PhysMem) SharedBytes() uint64 { return uint64(m.SharedFrames()) * frameSize }

// CoWBreaks returns how many shared frames this PhysMem's writes have
// privatized (copied) so far.
func (m *PhysMem) CoWBreaks() uint64 { return m.cowBreaks }

func (m *PhysMem) check(pa HPA, n int) {
	if uint64(pa)+uint64(n) > m.size || pa+HPA(n) < pa {
		panic(fmt.Sprintf("mem: access [%#x,%#x) beyond physical memory size %#x", pa, pa+HPA(n), m.size))
	}
}

// Read copies len(b) bytes starting at physical address pa into b.
//
//optimus:hotpath
func (m *PhysMem) Read(pa HPA, b []byte) {
	m.check(pa, len(b))
	for len(b) > 0 {
		base := pa &^ (frameSize - 1)
		off := uint64(pa - base)
		n := frameSize - off
		if n > uint64(len(b)) {
			n = uint64(len(b))
		}
		if f := m.frames.lookup(base); f != nil {
			copy(b[:n], f.data[off:off+n])
		} else {
			clear(b[:n])
		}
		b = b[n:]
		pa += HPA(n)
	}
}

// Touch performs the bounds check of a Read of n bytes at pa without
// transferring any data. Timing-only DMA reads, whose issuer discards the
// payload, go through it so an out-of-range access panics exactly as the
// data-carrying Read would.
//
//optimus:hotpath
func (m *PhysMem) Touch(pa HPA, n int) { m.check(pa, n) }

// SetDiscardWrites toggles write-discard mode (see the field comment).
// Existing frames still accept writes; only new frame materialization is
// suppressed.
func (m *PhysMem) SetDiscardWrites(v bool) { m.discardWrites = v }

// Write copies b into physical memory starting at pa.
//
// This is the single write-interposition point of the platform: the CCI-P
// shell's DMA line writes, the hardware monitor's packet path, and the
// hypervisor's guest/shadow-table updates all funnel through here. The
// copy-on-write check is therefore exactly one predictable branch on the
// unshared hot path (refs == 1 for every frame a platform owns
// exclusively), and the dirty stamp is an unconditional store — no
// allocations, no extra branches (enforced by TestPhysMemWriteZeroAlloc
// and the hwmon packet-path zero-alloc gates).
//
//optimus:hotpath
func (m *PhysMem) Write(pa HPA, b []byte) {
	m.check(pa, len(b))
	for len(b) > 0 {
		base := pa &^ (frameSize - 1)
		off := uint64(pa - base)
		n := frameSize - off
		if n > uint64(len(b)) {
			n = uint64(len(b))
		}
		f := m.frames.lookup(base)
		if f == nil {
			if m.discardWrites {
				b = b[n:]
				pa += HPA(n)
				continue
			}
			f = m.newFrame(base)
		} else if f.refs.Load() > 1 {
			f = m.breakShare(base, f)
		}
		f.gen = m.gen
		copy(f.data[off:off+n], b[:n])
		b = b[n:]
		pa += HPA(n)
	}
}

// maxSlabFrames caps a slab: 31 frames (127,472 B) fill a 128 KB
// allocation with 2.7% slack.
const maxSlabFrames = 31

// alloc returns a private zero frame carved from m's current slab. Slabs
// hold 1, 3, 7, 15 and from then on 31 frames. A lone frame (4 KB plus its
// header) rounds up to the Go allocator's 4.75 KB size class, 15% slack;
// the larger slabs round up with 6–12%, and 31 frames with 2.7%. A memory
// that materializes one frame pays for one; a template that materializes
// thousands pays one allocation per 31. A slab lives while any of its
// frames is referenced, by this memory or by a clone sharing it, so a
// dropped frame's storage is reclaimed with its slab.
func (m *PhysMem) alloc() *frame {
	if len(m.slab) == 0 {
		m.slabFrames = min(2*m.slabFrames+1, maxSlabFrames)
		m.slab = make([]frame, m.slabFrames)
	}
	f := &m.slab[0]
	m.slab = m.slab[1:]
	f.refs.Store(1)
	return f
}

// newFrame materializes a private zero frame at base.
func (m *PhysMem) newFrame(base HPA) *frame {
	f := m.alloc()
	m.frames.install(base, f)
	return f
}

// breakShare privatizes the shared frame at base: m gets a copy it owns
// exclusively and drops its reference on the shared original, which is
// never written in place (other holders keep reading the original —
// including concurrently, which is safe because the copy below only reads
// it). The decrement is ordered after the copy, so a holder that later
// observes refs == 1 is guaranteed the breaking writer is done with the
// frame.
func (m *PhysMem) breakShare(base HPA, shared *frame) *frame {
	f := m.alloc()
	f.data = shared.data
	m.frames.install(base, f)
	shared.refs.Add(-1)
	m.cowBreaks++
	return f
}

// drop removes m's reference to the frame at base, releasing its share (if
// any) of the backing store.
func (m *PhysMem) drop(base HPA, f *frame) {
	f.refs.Add(-1)
	m.frames.remove(base)
}

// CopyFrom replaces m's contents with a deep copy of src's resident
// frames. The two memories must be the same size. Used by hypervisor
// cloning when copy-on-write sharing is disabled.
//
// The destination's existing frame table and any exclusively owned frame
// storage are reused rather than discarded, so repeatedly deep-copying
// into the same PhysMem reallocates nothing once the frame sets converge.
// The copy leaves m clean: DirtyFrames is empty until m's first
// post-copy write, exactly as for a ShareFrom clone.
func (m *PhysMem) CopyFrom(src *PhysMem) {
	if m == src {
		return
	}
	if m.size != src.size {
		panic(fmt.Sprintf("mem: CopyFrom size mismatch (%#x vs %#x)", m.size, src.size))
	}
	m.discardWrites = src.discardWrites
	m.frames.walk(func(base HPA, f *frame) {
		if src.frames.lookup(base) == nil {
			m.drop(base, f)
		}
	})
	src.frames.walk(func(base HPA, sf *frame) {
		df := m.frames.lookup(base)
		if df == nil || df.refs.Load() > 1 {
			// Absent, or present but shared (not writable in place):
			// install a fresh private frame.
			if df != nil {
				m.drop(base, df)
			}
			df = m.newFrame(base)
		}
		df.data = sf.data
		df.gen = sf.gen
	})
	m.gen = src.gen + 1
}

// ShareFrom replaces m's contents with copy-on-write references to src's
// resident frames: O(resident frames) pointer shares instead of byte
// copies. Both memories see the same contents until one of them writes,
// at which point the written frame (only) is privatized by the writer.
// The two memories must be the same size.
//
// Multiple clones may ShareFrom the same src concurrently (the warm-
// template cache does exactly that across sweep workers); src itself must
// be quiescent for the duration of the call, which hv.Clone's quiescence
// check guarantees. The share leaves m clean: its dirty generation starts
// past every stamp inherited from src, so DirtyFrames reports exactly the
// frames written since the clone.
func (m *PhysMem) ShareFrom(src *PhysMem) {
	if m == src {
		return
	}
	if m.size != src.size {
		panic(fmt.Sprintf("mem: ShareFrom size mismatch (%#x vs %#x)", m.size, src.size))
	}
	m.discardWrites = src.discardWrites
	m.frames.walk(func(base HPA, f *frame) {
		if src.frames.lookup(base) != f {
			m.drop(base, f)
		}
	})
	m.frames.shareFrom(&src.frames)
	if src.gen >= m.gen {
		m.gen = src.gen + 1
	}
}

// DirtyFrames returns the ascending bases of the frames written since the
// last ResetDirty (or, for a freshly cloned memory, since the clone).
// This is the pre-copy/checkpoint substrate: a migration round copies
// exactly these frames, calls ResetDirty, and repeats.
func (m *PhysMem) DirtyFrames() []HPA {
	var out []HPA
	m.frames.walk(func(base HPA, f *frame) {
		if f.gen == m.gen {
			out = append(out, base)
		}
	})
	return out
}

// DirtyFrameCount returns how many frames are currently dirty without
// materializing the list.
func (m *PhysMem) DirtyFrameCount() int {
	n := 0
	m.frames.walk(func(_ HPA, f *frame) {
		if f.gen == m.gen {
			n++
		}
	})
	return n
}

// ResetDirty marks every frame clean in O(1) by advancing the dirty
// generation. Subsequent writes re-dirty exactly the frames they touch.
func (m *PhysMem) ResetDirty() { m.gen++ }

// Fingerprint returns a content-sensitive hash of the resident frames
// (base addresses and bytes, in ascending base order). Two memories with
// the same resident frame set and contents fingerprint identically; it is
// how clone tests prove a template survived its clones unmutated.
func (m *PhysMem) Fingerprint() uint64 {
	h := fnv.New64a()
	var b [8]byte
	m.frames.walk(func(base HPA, f *frame) {
		for i := range b {
			b[i] = byte(uint64(base) >> (8 * i))
		}
		h.Write(b[:])
		h.Write(f.data[:])
	})
	return h.Sum64()
}

// ReadU64 reads a little-endian uint64 at pa.
func (m *PhysMem) ReadU64(pa HPA) uint64 {
	var b [8]byte
	m.Read(pa, b[:])
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// WriteU64 writes a little-endian uint64 at pa.
func (m *PhysMem) WriteU64(pa HPA, v uint64) {
	var b [8]byte
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
	m.Write(pa, b[:])
}

// FrameAllocator hands out physically contiguous page frames from a region
// of physical memory. It supports both page sizes; 2 MB allocations are
// naturally aligned, as the IOMMU requires.
//
//optimus:state
type FrameAllocator struct {
	base, limit HPA
	next        HPA
	free4k      []HPA
	free2m      []HPA
	pinned      map[HPA]int    // frame base -> pin count
	allocated   map[HPA]uint64 // frame base -> page size
}

// NewFrameAllocator manages [base, base+size).
func NewFrameAllocator(base HPA, size uint64) *FrameAllocator {
	if !Aligned(base, PageSize4K) {
		panic("mem: allocator base must be 4K-aligned")
	}
	return &FrameAllocator{
		base:      base,
		limit:     base + HPA(size),
		next:      base,
		pinned:    make(map[HPA]int),
		allocated: make(map[HPA]uint64),
	}
}

// CopyFrom replaces a's state with a deep copy of src's, preserving
// free-list order so subsequent allocations return identical addresses.
// Both allocators must manage the same region. Used by hypervisor cloning.
func (a *FrameAllocator) CopyFrom(src *FrameAllocator) {
	if a.base != src.base || a.limit != src.limit {
		panic(fmt.Sprintf("mem: CopyFrom region mismatch ([%#x,%#x) vs [%#x,%#x))",
			a.base, a.limit, src.base, src.limit))
	}
	a.next = src.next
	a.free4k = append([]HPA(nil), src.free4k...)
	a.free2m = append([]HPA(nil), src.free2m...)
	a.pinned = make(map[HPA]int, len(src.pinned))
	for pa, n := range src.pinned {
		a.pinned[pa] = n
	}
	a.allocated = make(map[HPA]uint64, len(src.allocated))
	for pa, size := range src.allocated {
		a.allocated[pa] = size
	}
}

// Alloc returns the base physical address of a naturally aligned free frame
// of the given page size.
func (a *FrameAllocator) Alloc(pageSize uint64) (HPA, error) {
	switch pageSize {
	case PageSize4K:
		if n := len(a.free4k); n > 0 {
			pa := a.free4k[n-1]
			a.free4k = a.free4k[:n-1]
			a.allocated[pa] = pageSize
			return pa, nil
		}
	case PageSize2M:
		if n := len(a.free2m); n > 0 {
			pa := a.free2m[n-1]
			a.free2m = a.free2m[:n-1]
			a.allocated[pa] = pageSize
			return pa, nil
		}
	default:
		return 0, fmt.Errorf("mem: unsupported page size %d", pageSize)
	}
	pa := (a.next + HPA(pageSize) - 1) &^ HPA(pageSize-1)
	// Return alignment slack to the 4K free list rather than leaking it.
	for slack := a.next; slack < pa; slack += PageSize4K {
		a.free4k = append(a.free4k, slack)
	}
	if pa+HPA(pageSize) > a.limit {
		return 0, fmt.Errorf("mem: out of physical frames (want %d bytes, %d left)", pageSize, a.limit-a.next)
	}
	a.next = pa + HPA(pageSize)
	a.allocated[pa] = pageSize
	return pa, nil
}

// Free returns a frame to the allocator. Freeing a pinned frame panics: it
// is the simulated equivalent of a use-after-free visible to a DMA device.
func (a *FrameAllocator) Free(pa HPA) {
	size, ok := a.allocated[pa]
	if !ok {
		panic(fmt.Sprintf("mem: free of unallocated frame %#x", pa))
	}
	if a.pinned[pa] > 0 {
		panic(fmt.Sprintf("mem: free of pinned frame %#x", pa))
	}
	delete(a.allocated, pa)
	if size == PageSize4K {
		a.free4k = append(a.free4k, pa)
	} else {
		a.free2m = append(a.free2m, pa)
	}
}

// Pin marks a frame as DMA-pinned. Pins nest.
func (a *FrameAllocator) Pin(pa HPA) {
	if _, ok := a.allocated[pa]; !ok {
		panic(fmt.Sprintf("mem: pin of unallocated frame %#x", pa))
	}
	a.pinned[pa]++
}

// Unpin releases one pin on a frame.
func (a *FrameAllocator) Unpin(pa HPA) {
	if a.pinned[pa] <= 0 {
		panic(fmt.Sprintf("mem: unpin of unpinned frame %#x", pa))
	}
	a.pinned[pa]--
	if a.pinned[pa] == 0 {
		delete(a.pinned, pa)
	}
}

// Pinned reports whether a frame is currently pinned.
func (a *FrameAllocator) Pinned(pa HPA) bool { return a.pinned[pa] > 0 }

// AllocatedFrames returns the sorted list of allocated frame bases.
func (a *FrameAllocator) AllocatedFrames() []HPA {
	out := make([]HPA, 0, len(a.allocated))
	for pa := range a.allocated {
		out = append(out, pa)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// InUseBytes returns the total bytes currently allocated.
func (a *FrameAllocator) InUseBytes() uint64 {
	var total uint64
	for _, size := range a.allocated {
		total += size
	}
	return total
}
