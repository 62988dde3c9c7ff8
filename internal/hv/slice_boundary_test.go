package hv_test

import (
	"testing"

	"optimus/internal/hv"
	"optimus/internal/mem"
)

// boundaryTenant is a minimal VM + process + vaccel (no guest device).
func boundaryTenant(t *testing.T, h *hv.Hypervisor, slot int) (*hv.Process, *hv.VAccel) {
	t.Helper()
	vm, err := h.NewVM("vm", 10<<30)
	if err != nil {
		t.Fatal(err)
	}
	proc := vm.NewProcess()
	va, err := h.NewVAccel(proc, slot)
	if err != nil {
		t.Fatal(err)
	}
	return proc, va
}

// mapGuestPage backs one guest page and registers it through the
// shadow-paging hypercall, returning the page's IOVA.
func mapGuestPage(t *testing.T, h *hv.Hypervisor, proc *hv.Process, va *hv.VAccel, gva mem.GVA) mem.IOVA {
	t.Helper()
	ps := h.Config().PageSize
	if err := proc.EnsureMapped(gva, ps); err != nil {
		t.Fatalf("EnsureMapped(%#x): %v", gva, err)
	}
	gpa, err := proc.Translate(gva)
	if err != nil {
		t.Fatalf("Translate(%#x): %v", gva, err)
	}
	if err := va.MapPage(gva, gpa); err != nil {
		t.Fatalf("MapPage(%#x): %v", gva, err)
	}
	return h.SliceIOVABase(va.Slice()) + mem.IOVA(gva-proc.DMABase)
}

// TestSliceLastByteTranslates maps the final page of a vaccel's 64 GB
// window and checks that the slice's very last byte is device-reachable —
// IOPT-mapped to the pinned host frame — while the first byte past the
// window is rejected by the hypercall.
func TestSliceLastByteTranslates(t *testing.T) {
	h, err := hv.New(hv.Config{Accels: []string{"AES", "AES"}})
	if err != nil {
		t.Fatal(err)
	}
	cfg := h.Config()
	ps := cfg.PageSize
	if cfg.SliceSize != 64<<30 {
		t.Fatalf("default SliceSize = %#x, want 64 GB", cfg.SliceSize)
	}
	proc, va := boundaryTenant(t, h, 0)

	lastPage := proc.DMABase + mem.GVA(cfg.SliceSize) - mem.GVA(ps)
	iovaPage := mapGuestPage(t, h, proc, va, lastPage)

	wantIOVAPage := h.SliceIOVABase(va.Slice()) + mem.IOVA(cfg.SliceSize) - mem.IOVA(ps)
	if iovaPage != wantIOVAPage {
		t.Fatalf("last page rebased to IOVA %#x, want %#x", iovaPage, wantIOVAPage)
	}

	e, ok := h.Shell.IOMMU.Table().Lookup(iovaPage)
	if !ok {
		t.Fatalf("last page of the slice (IOVA %#x) is not IOPT-mapped", iovaPage)
	}
	hpa, err := proc.TranslateToHPA(lastPage)
	if err != nil {
		t.Fatal(err)
	}
	if e.PA != mem.PageBase(hpa, ps) {
		t.Fatalf("IOPT maps last page to frame %#x, want pinned frame %#x", e.PA, mem.PageBase(hpa, ps))
	}
	// The slice's final byte sits just below the next slice's guard gap.
	lastByte := iovaPage + mem.IOVA(ps) - 1
	if want := h.SliceIOVABase(0) + mem.IOVA(cfg.SliceSize) - 1; lastByte != want {
		t.Fatalf("slice 0 last byte = %#x, want %#x", lastByte, want)
	}
	if lastByte >= h.SliceIOVABase(1) {
		t.Fatalf("slice 0 last byte %#x overlaps slice 1 base %#x", lastByte, h.SliceIOVABase(1))
	}

	// One page beyond the 64 GB window must be rejected.
	beyond := proc.DMABase + mem.GVA(cfg.SliceSize)
	if err := proc.EnsureMapped(beyond, ps); err != nil {
		t.Fatal(err)
	}
	gpa, err := proc.Translate(beyond)
	if err != nil {
		t.Fatal(err)
	}
	if err := va.MapPage(beyond, gpa); err == nil {
		t.Fatalf("hypercall mapped gva %#x, one page past the 64 GB window", beyond)
	}
}

// TestGuardGapUnmapped checks the 128 MB IOTLB-conflict guard between
// consecutive slices: its span is exactly SliceGuard and no IOVA inside it
// resolves through the IO page table, even with both neighbors mapped up
// to their edges.
func TestGuardGapUnmapped(t *testing.T) {
	h, err := hv.New(hv.Config{Accels: []string{"AES", "AES"}})
	if err != nil {
		t.Fatal(err)
	}
	cfg := h.Config()
	ps := cfg.PageSize
	if cfg.SliceGuard != 128<<20 {
		t.Fatalf("default SliceGuard = %#x, want 128 MB", cfg.SliceGuard)
	}

	proc0, va0 := boundaryTenant(t, h, 0)
	proc1, va1 := boundaryTenant(t, h, 1)

	// Populate both sides of the gap.
	mapGuestPage(t, h, proc0, va0, proc0.DMABase+mem.GVA(cfg.SliceSize)-mem.GVA(ps))
	firstIOVA := mapGuestPage(t, h, proc1, va1, proc1.DMABase)

	gapStart := h.SliceIOVABase(0) + mem.IOVA(cfg.SliceSize)
	gapEnd := h.SliceIOVABase(1)
	if got := uint64(gapEnd - gapStart); got != cfg.SliceGuard {
		t.Fatalf("guard gap spans %#x bytes, want %#x", got, cfg.SliceGuard)
	}
	if firstIOVA != gapEnd {
		t.Fatalf("slice 1 first page at IOVA %#x, want %#x", firstIOVA, gapEnd)
	}

	iopt := h.Shell.IOMMU.Table()
	probes := []mem.IOVA{
		gapStart,                              // first page of the gap
		gapStart + mem.IOVA(cfg.SliceGuard/2), // middle
		gapEnd - mem.IOVA(ps),                 // last page of the gap
	}
	for _, iova := range probes {
		if _, ok := iopt.Lookup(iova); ok {
			t.Fatalf("guard-gap IOVA %#x is mapped; the gap must stay unbacked", iova)
		}
	}
}

// TestDisableGuardAdjacentSlices checks the ablation switch: with
// DisableGuard the guard collapses to zero and consecutive slices are
// exactly contiguous — the page after slice 0's last is slice 1's first.
func TestDisableGuardAdjacentSlices(t *testing.T) {
	h, err := hv.New(hv.Config{Accels: []string{"AES", "AES"}, DisableGuard: true})
	if err != nil {
		t.Fatal(err)
	}
	cfg := h.Config()
	ps := cfg.PageSize
	if cfg.SliceGuard != 0 {
		t.Fatalf("DisableGuard left SliceGuard = %#x, want 0", cfg.SliceGuard)
	}
	if got, want := h.SliceIOVABase(1), h.SliceIOVABase(0)+mem.IOVA(cfg.SliceSize); got != want {
		t.Fatalf("slice 1 base = %#x, want contiguous %#x", got, want)
	}

	proc0, va0 := boundaryTenant(t, h, 0)
	proc1, va1 := boundaryTenant(t, h, 1)
	lastIOVA := mapGuestPage(t, h, proc0, va0, proc0.DMABase+mem.GVA(cfg.SliceSize)-mem.GVA(ps))
	firstIOVA := mapGuestPage(t, h, proc1, va1, proc1.DMABase)

	if firstIOVA != lastIOVA+mem.IOVA(ps) {
		t.Fatalf("slices not adjacent without guard: slice 0 last page %#x, slice 1 first page %#x", lastIOVA, firstIOVA)
	}
	iopt := h.Shell.IOMMU.Table()
	e0, ok0 := iopt.Lookup(lastIOVA)
	e1, ok1 := iopt.Lookup(firstIOVA)
	if !ok0 || !ok1 {
		t.Fatalf("boundary pages unmapped: slice0=%v slice1=%v", ok0, ok1)
	}
	if e0.PA == e1.PA {
		t.Fatalf("adjacent slices share frame %#x; isolation broken", e0.PA)
	}
}

// TestCloseAfterDMABaseRewrite checks that a vaccel's teardown removes the
// IOPT entries its map hypercalls installed, not entries recomputed from
// the current DMA base. A guest that rewrites BAR2RegDMABase so its first
// page rebases onto the neighbouring slice and then closes must leave that
// neighbour's mapping and pin intact, and must still release its own page.
func TestCloseAfterDMABaseRewrite(t *testing.T) {
	h, err := hv.New(hv.Config{Accels: []string{"AES", "AES"}})
	if err != nil {
		t.Fatal(err)
	}
	cfg := h.Config()
	ps := cfg.PageSize
	procA, vaA := boundaryTenant(t, h, 0)
	procB, vaB := boundaryTenant(t, h, 1)

	iovaB := mapGuestPage(t, h, procB, vaB, procB.DMABase)
	iovaA := mapGuestPage(t, h, procA, vaA, procA.DMABase)
	frame := func(p *hv.Process) mem.HPA {
		hpa, err := p.TranslateToHPA(p.DMABase)
		if err != nil {
			t.Fatal(err)
		}
		return mem.PageBase(hpa, ps)
	}
	frameA, frameB := frame(procA), frame(procB)

	// Shift A's DMA base down one slice stride: A's first page now
	// rebases onto B's first IOVA.
	stride := cfg.SliceSize + cfg.SliceGuard
	if err := vaA.BAR2Write(hv.BAR2RegDMABase, uint64(procA.DMABase)-stride); err != nil {
		t.Fatal(err)
	}
	vaA.Close()

	iopt := h.Shell.IOMMU.Table()
	if e, ok := iopt.Lookup(iovaB); !ok || e.PA != frameB {
		t.Fatalf("B's IOVA %#x after A's Close: entry %+v mapped=%v, want frame %#x", iovaB, e, ok, frameB)
	}
	if !h.FramePinned(frameB) {
		t.Fatalf("A's Close unpinned B's frame %#x", frameB)
	}
	if _, ok := iopt.Lookup(iovaA); ok {
		t.Fatalf("A's IOVA %#x still mapped after Close", iovaA)
	}
	if h.FramePinned(frameA) {
		t.Fatalf("A's frame %#x still pinned after Close", frameA)
	}
}
