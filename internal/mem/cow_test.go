package mem

import (
	"bytes"
	"sync"
	"testing"
)

// fillFrames writes a distinct pattern into n consecutive frames of m
// starting at base, one full frame per write.
func fillFrames(m *PhysMem, base HPA, n int, tag byte) {
	buf := make([]byte, frameSize)
	for i := 0; i < n; i++ {
		for j := range buf {
			buf[j] = tag ^ byte(i*13+j)
		}
		m.Write(base+HPA(i*frameSize), buf)
	}
}

func TestShareFromSharesAndBreaks(t *testing.T) {
	const frames = 8
	src := NewPhysMem(1 << 20)
	fillFrames(src, 0, frames, 0xa5)
	want := src.Fingerprint()

	c := NewPhysMem(1 << 20)
	c.ShareFrom(src)
	if got := c.ResidentFrames(); got != frames {
		t.Fatalf("clone resident frames = %d, want %d", got, frames)
	}
	if got := c.SharedFrames(); got != frames {
		t.Fatalf("clone shared frames = %d, want %d (everything shared before first write)", got, frames)
	}
	if got := src.SharedFrames(); got != frames {
		t.Fatalf("template shared frames = %d, want %d", got, frames)
	}
	if c.Fingerprint() != want {
		t.Fatal("clone contents differ from template after ShareFrom")
	}

	// First write to one shared frame privatizes exactly that frame.
	c.Write(2*frameSize+100, []byte("divergence"))
	if got := c.CoWBreaks(); got != 1 {
		t.Fatalf("CoWBreaks = %d, want 1", got)
	}
	if got := c.SharedFrames(); got != frames-1 {
		t.Fatalf("clone shared frames after break = %d, want %d", got, frames-1)
	}
	if got := src.SharedFrames(); got != frames-1 {
		t.Fatalf("template shared frames after break = %d, want %d", got, frames-1)
	}
	if src.Fingerprint() != want {
		t.Fatal("breaking a share mutated the template")
	}
	got := make([]byte, 10)
	c.Read(2*frameSize+100, got)
	if !bytes.Equal(got, []byte("divergence")) {
		t.Fatalf("clone read back %q after CoW break", got)
	}

	// A second write to the now-private frame breaks nothing further.
	c.Write(2*frameSize+500, []byte("again"))
	if got := c.CoWBreaks(); got != 1 {
		t.Fatalf("CoWBreaks after in-place write = %d, want 1", got)
	}

	// Writes to untouched addresses materialize private frames, never
	// shared ones.
	c.Write(HPA(frames*frameSize), []byte("new"))
	if got := c.SharedFrames(); got != frames-1 {
		t.Fatalf("new-frame write changed shared count to %d", got)
	}
	if src.Fingerprint() != want {
		t.Fatal("clone writes mutated the template")
	}
}

func TestShareFromReplacesPriorContents(t *testing.T) {
	src := NewPhysMem(1 << 20)
	fillFrames(src, 0, 4, 0x11)

	c := NewPhysMem(1 << 20)
	fillFrames(c, 0, 2, 0x22)              // will be replaced by src's frames
	c.Write(10*frameSize, []byte("stale")) // absent from src: must vanish
	c.ShareFrom(src)
	if c.Fingerprint() != src.Fingerprint() {
		t.Fatal("ShareFrom did not make clone contents identical to src")
	}
	if got := c.ResidentFrames(); got != 4 {
		t.Fatalf("resident frames = %d, want 4 (stale frame dropped)", got)
	}

	// Re-sharing from the same src is idempotent: refcounts must not climb.
	c.ShareFrom(src)
	src.frames.walk(func(base HPA, f *frame) {
		if refs := f.refs.Load(); refs != 2 {
			t.Fatalf("frame %#x refs = %d after repeated ShareFrom, want 2", base, refs)
		}
	})
}

func TestCopyFromReusesStorage(t *testing.T) {
	src := NewPhysMem(1 << 20)
	fillFrames(src, 0, 6, 0x3c)

	c := NewPhysMem(1 << 20)
	c.CopyFrom(src)
	if c.Fingerprint() != src.Fingerprint() {
		t.Fatal("CopyFrom contents differ")
	}
	ptrs := map[HPA]*frame{}
	c.frames.walk(func(base HPA, f *frame) { ptrs[base] = f })

	// Second deep copy into the same destination: frame set unchanged, so
	// every frame's storage must be reused in place.
	src.Write(3*frameSize, []byte("updated"))
	c.CopyFrom(src)
	if c.Fingerprint() != src.Fingerprint() {
		t.Fatal("second CopyFrom contents differ")
	}
	c.frames.walk(func(base HPA, f *frame) {
		if ptrs[base] != f {
			t.Fatalf("CopyFrom reallocated frame %#x instead of reusing it", base)
		}
	})

	// CoW-shared destination frames must NOT be written in place: deep-
	// copying over a clone may not corrupt the template it was sharing
	// with.
	tpl := NewPhysMem(1 << 20)
	fillFrames(tpl, 0, 6, 0x77)
	tplFP := tpl.Fingerprint()
	c2 := NewPhysMem(1 << 20)
	c2.ShareFrom(tpl)
	c2.CopyFrom(src)
	if tpl.Fingerprint() != tplFP {
		t.Fatal("CopyFrom over a sharing clone mutated the template")
	}
	if c2.Fingerprint() != src.Fingerprint() {
		t.Fatal("CopyFrom over a sharing clone has wrong contents")
	}
	if got := tpl.SharedFrames(); got != 0 {
		t.Fatalf("template still reports %d shared frames after clone was overwritten", got)
	}
}

func TestDirtyTracking(t *testing.T) {
	m := NewPhysMem(1 << 20)
	fillFrames(m, 0, 3, 0x01)
	if got := m.DirtyFrameCount(); got != 3 {
		t.Fatalf("dirty after writes = %d, want 3", got)
	}
	m.ResetDirty()
	if got := m.DirtyFrameCount(); got != 0 {
		t.Fatalf("dirty after ResetDirty = %d, want 0", got)
	}

	// Re-dirty exactly the touched frames; DirtyFrames is sorted.
	m.Write(2*frameSize, []byte("x"))
	m.Write(0, []byte("y"))
	dirty := m.DirtyFrames()
	if len(dirty) != 2 || dirty[0] != 0 || dirty[1] != 2*frameSize {
		t.Fatalf("DirtyFrames = %v, want [0 %#x]", dirty, 2*frameSize)
	}

	// Clones start clean in both transfer modes, even though the template
	// has dirty frames at clone time.
	share := NewPhysMem(1 << 20)
	share.ShareFrom(m)
	if got := share.DirtyFrameCount(); got != 0 {
		t.Fatalf("ShareFrom clone starts with %d dirty frames, want 0", got)
	}
	deep := NewPhysMem(1 << 20)
	deep.CopyFrom(m)
	if got := deep.DirtyFrameCount(); got != 0 {
		t.Fatalf("CopyFrom clone starts with %d dirty frames, want 0", got)
	}

	// A clone's first write dirties exactly the written frame — and on the
	// share path that same write is the CoW break.
	share.Write(frameSize, []byte("z"))
	dirty = share.DirtyFrames()
	if len(dirty) != 1 || dirty[0] != frameSize {
		t.Fatalf("clone DirtyFrames = %v, want [%#x]", dirty, frameSize)
	}
	if got := share.CoWBreaks(); got != 1 {
		t.Fatalf("clone CoWBreaks = %d, want 1", got)
	}
}

func TestDiscardWritesStillBreaksShares(t *testing.T) {
	src := NewPhysMem(1 << 20)
	fillFrames(src, 0, 2, 0x5a)
	want := src.Fingerprint()

	c := NewPhysMem(1 << 20)
	c.ShareFrom(src)
	c.SetDiscardWrites(true)

	// Discard mode suppresses only new-frame materialization; a write
	// landing on an existing shared frame must still privatize it, or the
	// write would corrupt the template.
	c.Write(0, []byte("scribble"))
	if src.Fingerprint() != want {
		t.Fatal("discard-mode write corrupted the shared template")
	}
	if got := c.CoWBreaks(); got != 1 {
		t.Fatalf("CoWBreaks = %d, want 1", got)
	}
	// And a write beyond the resident set is dropped without materializing.
	c.Write(100*frameSize, []byte("dropped"))
	if got := c.ResidentFrames(); got != 2 {
		t.Fatalf("resident frames = %d, want 2 (discard mode materialized)", got)
	}
}

// TestPhysMemWriteZeroAlloc is the zero-alloc gate for the CoW write
// interposition: the unshared hot path (exclusively owned frame, line-
// sized write) must not allocate. Only materializing a new frame or
// breaking a share may.
func TestPhysMemWriteZeroAlloc(t *testing.T) {
	m := NewPhysMem(1 << 20)
	line := make([]byte, LineSize)
	m.Write(0, line) // materialize outside the measured loop
	if allocs := testing.AllocsPerRun(1000, func() {
		m.Write(0, line)
	}); allocs != 0 {
		t.Fatalf("unshared line write allocates %.1f objects/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		m.Read(0, line)
	}); allocs != 0 {
		t.Fatalf("resident line read allocates %.1f objects/op, want 0", allocs)
	}
}

// TestConcurrentCloneBreaks exercises the atomic refcount protocol the way
// the warm-template cache does: many goroutines each ShareFrom the same
// quiescent template, then write every frame, concurrently. Run under
// -race in CI.
func TestConcurrentCloneBreaks(t *testing.T) {
	const frames = 32
	const clones = 8
	src := NewPhysMem(1 << 20)
	fillFrames(src, 0, frames, 0xc3)
	want := src.Fingerprint()

	var wg sync.WaitGroup
	results := make([]uint64, clones)
	for g := 0; g < clones; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := NewPhysMem(1 << 20)
			c.ShareFrom(src)
			fillFrames(c, 0, frames, byte(g)) // breaks every share
			results[g] = c.Fingerprint()
		}(g)
	}
	wg.Wait()

	if src.Fingerprint() != want {
		t.Fatal("concurrent clones mutated the template")
	}
	if got := src.SharedFrames(); got != 0 {
		t.Fatalf("template shared frames = %d after all clones diverged, want 0", got)
	}
	// Each clone wrote a distinct pattern; a reference clone written
	// sequentially must match, proving no clone saw another's writes.
	for g := 0; g < clones; g++ {
		ref := NewPhysMem(1 << 20)
		fillFrames(ref, 0, frames, byte(g))
		if results[g] != ref.Fingerprint() {
			t.Fatalf("clone %d contents diverged from sequential reference", g)
		}
	}
}
