package hv

import (
	"fmt"
	"maps"

	"optimus/internal/obs"
)

// Clone snapshots a fully provisioned but not-yet-started platform into a
// fresh, independent instance. The structural skeleton (kernel, shell,
// monitor, accelerators, schedulers) is rebuilt by New from the same
// configuration; everything data-dependent — physical memory contents,
// frame-allocator state, the IO page table, guest address spaces, virtual
// accelerators, chaos-plan position, hypervisor counters — is then deep
// copied, so the clone is indistinguishable from a platform provisioned
// from scratch by the same call sequence.
//
// Cloning exists for sweep warm-up (see internal/exp): constructing and
// provisioning a platform costs far more than the copies below, and a
// sweep re-runs the identical construction for every point. One warmed
// template per configuration plus one Clone per point preserves
// byte-identical results at any parallelism because all divergent state
// (event kernel, RNG streams, tracers) is still private per clone.
//
// The template must be quiescent: simulated time zero, no pending or
// executed events, and no job active on any virtual accelerator. This is
// exactly the state after provisioning (VM/process/vaccel creation, BAR2
// setup, page pinning) and before the first Start — provisioning is fully
// synchronous and schedules nothing. The event kernel's sequence counter
// only advances with heap-scheduled events, so the quiescence check also
// guarantees a pristine kernel.
//
// A clone never shares a telemetry handle with its template: it gets a
// fresh tracer of the template's ring capacity, a fresh metrics registry,
// and the template's sample/profile settings, so concurrent clones of one
// template never race on a ring or a counter. Registering the clone's
// handles anywhere (a collector) is the caller's business.
func (h *Hypervisor) Clone() (*Hypervisor, error) {
	if now, pend, exec := h.K.Now(), h.K.Pending(), h.K.Executed(); now != 0 || pend != 0 || exec != 0 {
		return nil, fmt.Errorf("hv: Clone requires a quiescent platform (now=%v pending=%d executed=%d)", now, pend, exec)
	}
	for _, pa := range h.Phys {
		for _, va := range pa.sched.vaccels {
			if va.jobActive || va.pendingStart || va.scheduled || va.failure != nil {
				return nil, fmt.Errorf("hv: Clone with job state on slot %d", pa.Slot)
			}
		}
	}

	cfg := h.cfg
	if cfg.Trace != nil {
		cfg.Trace = obs.NewTracer(cfg.Trace.Cap())
	}
	if cfg.Metrics != nil {
		cfg.Metrics = obs.NewRegistry()
	}
	c, err := New(cfg)
	if err != nil {
		return nil, err
	}

	// Data state. The frame allocator copy preserves free-list order, so
	// post-clone allocations return the same addresses a fresh platform
	// would; the IOPT copy carries the pinned shadow mappings installed by
	// provisioning-time mapPage hypercalls. Physical memory transfers by
	// copy-on-write frame sharing (see mem.PhysMem.ShareFrom).
	c.Mem.ShareFrom(h.Mem)
	c.frames.CopyFrom(h.frames)
	c.Shell.IOMMU.Table().CopyFrom(h.Shell.IOMMU.Table())
	if c.chaos != nil && h.chaos != nil {
		c.chaos.CopyStateFrom(h.chaos)
	}
	c.stats = h.stats
	c.slicePool = append([]int(nil), h.slicePool...)
	c.nextSlice = h.nextSlice

	// Guest graph: replaying NewVM/NewProcess in creation order reproduces
	// the template's IDs, then the address-space contents are copied over
	// the freshly built (empty) tables.
	procMap := make(map[*Process]*Process, 8)
	for _, vm := range h.vms {
		nvm, err := c.NewVM(vm.Name, vm.memBytes)
		if err != nil {
			return nil, err
		}
		nvm.gpaNext = vm.gpaNext
		nvm.ept.CopyFrom(vm.ept)
		for _, p := range vm.procs {
			np := nvm.NewProcess()
			np.DMABase = p.DMABase
			np.pt.CopyFrom(p.pt)
			procMap[p] = np
		}
	}
	c.nextVMID = h.nextVMID

	// Virtual accelerators: rebuilt directly (not via NewVAccel) because
	// their slice indices came from an alloc/free history that cannot be
	// replayed; the recorded index plus the slice-pool copy above restores
	// the allocator to the same state.
	for si, pa := range h.Phys {
		npa := c.Phys[si]
		for _, va := range pa.sched.vaccels {
			np := procMap[va.proc]
			if np == nil {
				return nil, fmt.Errorf("hv: Clone: vaccel on slot %d owned by unknown process", pa.Slot)
			}
			nva := &VAccel{
				hv:            c,
				proc:          np,
				phys:          npa,
				slice:         va.slice,
				args:          va.args,
				stateAddr:     va.stateAddr,
				workDone:      va.workDone,
				dmaBase:       va.dmaBase,
				vstatus:       va.vstatus,
				weight:        va.weight,
				priority:      va.priority,
				runTime:       va.runTime,
				mapped:        maps.Clone(va.mapped),
				forcedResets:  va.forcedResets,
				quarantined:   va.quarantined,
				pendingMapGVA: va.pendingMapGVA,
			}
			npa.sched.attach(nva)
		}
		npa.sched.policy = pa.sched.policy
		npa.sched.rrNext = pa.sched.rrNext
	}
	return c, nil
}

// VAccels returns the slot's attached virtual accelerators in attach
// order. Callers must not mutate the returned slice; it is how sweep code
// recovers tenant handles on a cloned platform.
func (pa *PhysAccel) VAccels() []*VAccel { return pa.sched.vaccels }
