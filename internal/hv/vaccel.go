package hv

import (
	"fmt"
	"slices"

	"optimus/internal/accel"
	"optimus/internal/hwmon"
	"optimus/internal/mem"
	"optimus/internal/obs"
	"optimus/internal/pagetable"
	"optimus/internal/sim"
)

// VAccel is a virtual accelerator: the guest-visible PCIe device (§4.3).
// BAR0 exposes the (trapped) accelerator MMIO page; BAR2 exposes the
// hypervisor communication page used for slice registration and the
// shadow-paging hypercall.
//
// The //optimus:state annotation makes the statecopy analyzer prove that
// hv.Clone's reconstruction of every vaccel accounts for every field here:
// adding a field without copying it (or skipping it with a reason) fails
// the lint job instead of silently corrupting clone determinism.
//
//optimus:state
type VAccel struct {
	hv   *Hypervisor
	proc *Process
	phys *PhysAccel

	slice     int
	scheduled bool

	// Software-cached register file while descheduled (§4.2: accesses to
	// application registers are postponed until the virtual accelerator is
	// scheduled; idempotent registers are cached and synchronized).
	args      [accel.NumArgRegs]uint64
	stateAddr uint64
	workDone  uint64

	// dmaBase is the guest-virtual base of the process's reserved DMA
	// region, written by the guest library to BAR2 (§5).
	dmaBase mem.GVA

	// Job lifecycle.
	jobActive     bool
	pendingStart  bool
	hasSavedState bool //optimus:clone-skip Clone's quiescence guard forbids saved preemption state on a template
	vstatus       uint64
	failure       error
	doneWaiters   []func() //optimus:clone-skip waiters register at Start; a quiescent template has none

	// Scheduling parameters and accounting.
	weight   int
	priority int
	runTime  sim.Time
	// mapped holds the IOVA of every page the map hypercall installed.
	// Close tears down exactly these: recomputing them from GVAs would use
	// the current dmaBase, which the guest may have rewritten since.
	mapped map[mem.IOVA]bool

	// Forced-reset hardening (see Config.QuarantineAfter): how many times
	// this vaccel has blown the preemption-handshake timeout, and whether it
	// has been permanently barred from its slot as a result. quarantined is
	// sticky across GuestReset — only tearing the vaccel down clears it.
	forcedResets int
	quarantined  bool

	// pendingMapGVA buffers the first half of the two-register hypercall.
	pendingMapGVA mem.GVA
}

// BAR2 register offsets (hypervisor MMIO space).
const (
	BAR2RegDMABase = 0x00 // W: guest's reserved DMA region base GVA
	BAR2RegMapGVA  = 0x08 // W: hypercall argument (GVA)
	BAR2RegMapGPA  = 0x10 // W: hypercall argument (GPA); triggers the map
	BAR2RegSlice   = 0x18 // R: assigned IOVA slice base (diagnostics)
)

// NewVAccel creates a virtual accelerator for proc on physical slot.
func (h *Hypervisor) NewVAccel(proc *Process, slot int) (*VAccel, error) {
	if slot < 0 || slot >= len(h.Phys) {
		return nil, fmt.Errorf("hv: no physical accelerator in slot %d", slot)
	}
	pa := h.Phys[slot]
	if h.cfg.Mode == ModePassThrough && len(pa.sched.vaccels) > 0 {
		return nil, fmt.Errorf("hv: pass-through slot %d already assigned", slot)
	}
	va := &VAccel{
		hv:      h,
		proc:    proc,
		phys:    pa,
		slice:   h.allocSlice(),
		vstatus: accel.StatusIdle,
		weight:  1,
		mapped:  make(map[mem.IOVA]bool),
		dmaBase: proc.DMABase,
	}
	pa.sched.attach(va)
	return va, nil
}

// Close releases the virtual accelerator and its slice.
func (va *VAccel) Close() {
	va.phys.sched.detach(va)
	va.hv.freeSlice(va.slice)
	// Unpin and unmap the slice's IOPT entries. Walk the registered pages
	// in sorted order: teardown mutates the frame allocator's free lists,
	// so iteration order is simulation-visible state (detwall).
	iopt := va.hv.Shell.IOMMU.Table()
	ps := va.hv.cfg.PageSize
	iovas := make([]mem.IOVA, 0, len(va.mapped))
	for iova := range va.mapped {
		iovas = append(iovas, iova)
	}
	slices.Sort(iovas)
	for _, iova := range iovas {
		if e, ok := iopt.Lookup(iova); ok {
			va.hv.frames.Unpin(mem.PageBase(e.PA, ps))
			iopt.Unmap(iova)
			va.hv.Shell.IOMMU.Invalidate(iova)
		}
	}
	va.mapped = nil
}

// Phys returns the backing physical accelerator slot.
func (va *VAccel) Phys() *PhysAccel { return va.phys }

// Slice returns the assigned IOVA slice index.
func (va *VAccel) Slice() int { return va.slice }

// SliceSize returns the size of the vaccel's DMA window.
func (va *VAccel) SliceSize() uint64 { return va.hv.cfg.SliceSize }

// Hypervisor returns the owning hypervisor.
func (va *VAccel) Hypervisor() *Hypervisor { return va.hv }

// Process returns the owning guest process.
func (va *VAccel) Process() *Process { return va.proc }

// SetWeight configures the weighted-round-robin share.
func (va *VAccel) SetWeight(w int) {
	if w < 1 {
		w = 1
	}
	va.weight = w
}

// SetPriority configures the priority-scheduler rank (higher runs first).
func (va *VAccel) SetPriority(p int) { va.priority = p }

// Scheduled reports whether the vaccel currently owns its physical slot.
func (va *VAccel) Scheduled() bool { return va.scheduled }

// Failed returns the job's terminal error, if any.
func (va *VAccel) Failed() error { return va.failure }

// ForcedResets returns how many times this vaccel has been forcibly reset
// for refusing the preemption handshake.
func (va *VAccel) ForcedResets() int { return va.forcedResets }

// Quarantined reports whether the vaccel has been permanently barred from
// its physical slot after repeated forced resets (Config.QuarantineAfter).
func (va *VAccel) Quarantined() bool { return va.quarantined }

// iovaFor maps a DMA-region GVA into the vaccel's IOVA slice. This is the
// hypervisor-side sanctioned GVA→IOVA crossing point — the shadow-page
// installer's linear rebase into the slice (§5) — mirroring the hardware
// monitor's offset-table rewrite.
//
//optimus:addrspace-rewrite
func (va *VAccel) iovaFor(gva mem.GVA) mem.IOVA {
	if va.hv.cfg.Mode == ModePassThrough {
		return mem.IOVA(gva) // vIOMMU: GVA == IOVA
	}
	return va.hv.SliceIOVABase(va.slice) + mem.IOVA(gva-va.dmaBase)
}

// trap accounts one trapped-and-emulated guest MMIO access and traces it on
// the guest VM's lane.
func (va *VAccel) trap(off, val uint64) {
	va.hv.stats.MMIOTraps++
	va.hv.tr.EmitSpan(va.hv.K.Now(), obs.KindMMIOTrap, obs.VM(va.proc.vm.ID), uint32(va.slice), off, val)
}

// BAR2Write handles hypervisor-page MMIO (always trapped).
func (va *VAccel) BAR2Write(reg uint64, val uint64) error {
	va.trap(reg, val)
	switch reg {
	case BAR2RegDMABase:
		va.dmaBase = mem.GVA(val)
		return nil
	case BAR2RegMapGVA:
		va.pendingMapGVA = mem.GVA(val)
		return nil
	case BAR2RegMapGPA:
		return va.mapPage(va.pendingMapGVA, mem.GPA(val))
	default:
		return fmt.Errorf("hv: unknown BAR2 register %#x", reg)
	}
}

// BAR2Read handles hypervisor-page MMIO reads.
func (va *VAccel) BAR2Read(reg uint64) (uint64, error) {
	va.trap(reg, 0)
	switch reg {
	case BAR2RegSlice:
		return uint64(va.hv.SliceIOVABase(va.slice)), nil
	case BAR2RegDMABase:
		return uint64(va.dmaBase), nil
	default:
		return 0, fmt.Errorf("hv: unknown BAR2 register %#x", reg)
	}
}

// MapPage is the shadow-paging hypercall (§5): the guest notifies the
// hypervisor of a GVA→GPA pair for a page it wants FPGA-accessible. The
// hypervisor checks permissions, resolves and pins the host frame, and
// installs IOVA→HPA in the IO page table.
func (va *VAccel) MapPage(gva mem.GVA, gpa mem.GPA) error {
	va.trap(BAR2RegMapGPA, uint64(gpa))
	return va.mapPage(gva, gpa)
}

func (va *VAccel) mapPage(gva mem.GVA, gpa mem.GPA) error {
	h := va.hv
	h.stats.Hypercalls++
	ps := h.cfg.PageSize
	if !mem.Aligned(gva, ps) || !mem.Aligned(gpa, ps) {
		return fmt.Errorf("hv: misaligned hypercall gva=%#x gpa=%#x", gva, gpa)
	}
	if h.cfg.Mode == ModeOptimus {
		if gva < va.dmaBase || gva+mem.GVA(ps) > va.dmaBase+mem.GVA(h.cfg.SliceSize) {
			return fmt.Errorf("hv: gva %#x outside the vaccel's DMA region", gva)
		}
	}
	// Permission check: the guest page table must actually map gva→gpa RW.
	e, ok := va.proc.pt.Lookup(gva)
	if !ok || e.PA != gpa {
		return fmt.Errorf("hv: hypercall gva %#x does not map gpa %#x in the guest", gva, gpa)
	}
	if e.Perm&pagetable.PermRW != pagetable.PermRW {
		return fmt.Errorf("hv: page %#x lacks read/write permission", gva)
	}
	hpa, err := va.proc.vm.ept.Translate(gpa, pagetable.PermRW)
	if err != nil {
		return fmt.Errorf("hv: ept: %w", err)
	}
	iova := va.iovaFor(gva)
	if va.mapped[iova] {
		return nil // idempotent re-registration
	}
	if h.chaos != nil {
		if err := h.injectPinFault(va, gva); err != nil {
			return err
		}
	}
	// Pin: the IOMMU cannot take page faults, so device-visible frames
	// must stay resident (§5, "Huge Pages").
	frame := mem.PageBase(hpa, ps)
	h.frames.Pin(frame)
	h.stats.PagesPinned++
	if err := h.Shell.IOMMU.Table().Map(iova, frame, pagetable.PermRW); err != nil {
		h.frames.Unpin(frame)
		return fmt.Errorf("hv: iopt: %w", err)
	}
	va.mapped[iova] = true
	return nil
}

// BAR0Read is a trapped guest read of the accelerator MMIO page.
func (va *VAccel) BAR0Read(off uint64) (uint64, error) {
	va.trap(off, 0)
	switch {
	case off == accel.RegStatus:
		return va.virtualStatus(), nil
	case off == accel.RegStateSize:
		return va.physMMIORead(accel.RegStateSize)
	case off == accel.RegWorkDone:
		if va.scheduled {
			return va.physMMIORead(accel.RegWorkDone)
		}
		return va.workDone, nil
	case off == accel.RegStateAddr:
		return va.stateAddr, nil
	case off >= accel.RegArgBase && off < accel.RegArgBase+accel.NumArgRegs*8 && off%8 == 0:
		if va.scheduled {
			return va.physMMIORead(off)
		}
		return va.args[(off-accel.RegArgBase)/8], nil
	case off == accel.RegBytesRead || off == accel.RegBytesWritten:
		if va.scheduled {
			return va.physMMIORead(off)
		}
		return 0, nil
	default:
		return 0, fmt.Errorf("hv: BAR0 read of unknown register %#x", off)
	}
}

// BAR0Write is a trapped guest write of the accelerator MMIO page.
// Control registers are emulated (§4.2); application registers are
// forwarded when scheduled and cached otherwise.
func (va *VAccel) BAR0Write(off uint64, val uint64) error {
	va.trap(off, val)
	switch {
	case off == accel.RegCtrl:
		if val != accel.CmdStart {
			return fmt.Errorf("hv: guests may only issue START (got %d); preemption is hypervisor-controlled", val)
		}
		return va.guestStart()
	case off == accel.RegStateAddr:
		va.stateAddr = val
		if va.scheduled {
			return va.physMMIOWrite(accel.RegStateAddr, val)
		}
		return nil
	case off >= accel.RegArgBase && off < accel.RegArgBase+accel.NumArgRegs*8 && off%8 == 0:
		va.args[(off-accel.RegArgBase)/8] = val
		if va.scheduled {
			return va.physMMIOWrite(off, val)
		}
		return nil
	default:
		return fmt.Errorf("hv: BAR0 write of unknown register %#x", off)
	}
}

// virtualStatus hides the hardware status of the physical accelerator
// (§4.2): a descheduled-but-active job still reports "running".
func (va *VAccel) virtualStatus() uint64 {
	if va.failure != nil {
		return accel.StatusError
	}
	if !va.jobActive {
		return va.vstatus
	}
	if va.scheduled {
		s := va.phys.Accel.Status()
		switch s {
		case accel.StatusSaving, accel.StatusSaved, accel.StatusLoading:
			return accel.StatusRunning
		default:
			return s
		}
	}
	return accel.StatusRunning
}

// guestStart begins a job: immediately if the vaccel holds the physical
// accelerator, otherwise the start is postponed until scheduled.
func (va *VAccel) guestStart() error {
	if va.quarantined {
		return fmt.Errorf("hv: virtual accelerator quarantined after %d forced resets", va.forcedResets)
	}
	if va.jobActive {
		return fmt.Errorf("hv: job already active on this virtual accelerator")
	}
	va.jobActive = true
	va.hasSavedState = false
	va.pendingStart = true
	va.failure = nil
	va.workDone = 0
	va.vstatus = accel.StatusRunning
	va.phys.sched.kick()
	return nil
}

// GuestReset is the guest-visible reset (§4.3: the userspace library lets
// the programmer reset the accelerator): any active job is abandoned, the
// software register cache clears, and — if the vaccel currently holds the
// physical accelerator — the hardware is reset and the slot freed.
func (va *VAccel) GuestReset() {
	va.trap(accel.RegCtrl, 0)
	va.jobActive = false
	va.pendingStart = false
	va.hasSavedState = false
	va.failure = nil
	va.vstatus = accel.StatusIdle
	va.args = [accel.NumArgRegs]uint64{}
	va.stateAddr = 0
	va.workDone = 0
	notifyDone(va)
	s := va.phys.sched
	if s.current == va && !s.switching {
		s.descheduleCurrent(false)
		s.kick()
	}
}

// OnDone registers fn to run when the current job completes (or fails).
func (va *VAccel) OnDone(fn func()) {
	if !va.jobActive {
		fn()
		return
	}
	va.doneWaiters = append(va.doneWaiters, fn)
}

// WorkDone returns the job's progress counter (live when scheduled).
func (va *VAccel) WorkDone() uint64 {
	if va.scheduled {
		return va.phys.Accel.WorkDone()
	}
	return va.workDone
}

// Runtime returns the accumulated physical-accelerator occupancy,
// including the in-progress slice when currently scheduled.
func (va *VAccel) Runtime() sim.Time {
	t := va.runTime
	if va.scheduled && va.phys.sched.current == va {
		t += va.hv.K.Now() - va.phys.sched.scheduledAt
	}
	return t
}

func (va *VAccel) physMMIORead(off uint64) (uint64, error) {
	h := va.hv
	if h.Monitor != nil {
		return h.Monitor.MMIORead(hwmon.AccelMMIO(va.phys.Slot) + off)
	}
	return va.phys.Accel.MMIORead(off), nil
}

func (va *VAccel) physMMIOWrite(off uint64, val uint64) error {
	h := va.hv
	if h.Monitor != nil {
		return h.Monitor.MMIOWrite(hwmon.AccelMMIO(va.phys.Slot)+off, val)
	}
	va.phys.Accel.MMIOWrite(off, val)
	return nil
}
