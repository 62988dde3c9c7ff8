// Package hv implements the OPTIMUS hypervisor (§4): a mediated
// pass-through design in which control-plane operations (MMIO) are trapped
// and emulated while the DMA data plane bypasses the hypervisor entirely.
// It assembles the simulated machine (CPU-side memory, CCI-P shell,
// hardware monitor, physical accelerators), manages VMs and their guest
// address spaces, isolates each virtual accelerator's DMAs with page table
// slicing, maintains the shadow IO page table, and temporally multiplexes
// physical accelerators with preemptive round-robin, weighted, and
// priority schedulers.
package hv

import (
	"fmt"

	"optimus/internal/accel"
	"optimus/internal/ccip"
	"optimus/internal/chaos"
	"optimus/internal/fpga"
	"optimus/internal/hwmon"
	"optimus/internal/mem"
	"optimus/internal/obs"
	"optimus/internal/sim"
)

// Mode selects the virtualization architecture.
type Mode int

// Modes.
const (
	// ModeOptimus runs the full hypervisor: hardware monitor, page table
	// slicing, temporal multiplexing.
	ModeOptimus Mode = iota
	// ModePassThrough directly assigns the device: no monitor in the DMA
	// path, a vIOMMU mapping GVA==IOVA, one VM per accelerator. This is
	// the paper's baseline (§6.1).
	ModePassThrough
)

// Trap-and-emulate cost model (§2.1: control-plane operations become more
// expensive under virtualization).
const (
	// MMIOTrapCost is the latency of a trapped guest MMIO access.
	MMIOTrapCost = 2 * sim.Microsecond
	// MMIODirectCost is a native (unvirtualized) MMIO access.
	MMIODirectCost = 300 * sim.Nanosecond
	// HypercallCost is one shadow-paging hypercall round trip.
	HypercallCost = 3 * sim.Microsecond
)

// Config assembles a platform.
type Config struct {
	// Accels names the physical accelerators synthesized on the FPGA
	// (Table 1 abbreviations), one per slot, up to 8.
	Accels []string
	// Mode selects OPTIMUS or the pass-through baseline.
	Mode Mode
	// MemBytes is host DRAM (default 188 GB, the paper's testbed).
	MemBytes uint64
	// PageSize is the platform page size: 2 MB (default) or 4 KB (§6.5).
	PageSize uint64
	// SliceSize is each virtual accelerator's IOVA slice (default 64 GB).
	SliceSize uint64
	// SliceGuard is the inter-slice gap for IOTLB conflict mitigation
	// (default 128 MB; set negative... use DisableGuard to turn off).
	SliceGuard uint64
	// DisableGuard turns off IOTLB conflict mitigation (ablation).
	DisableGuard bool
	// TimeSlice is the temporal-multiplexing quantum (default 10 ms).
	TimeSlice sim.Time
	// PreemptTimeout bounds how long the hypervisor waits for an
	// accelerator to cede control before forcibly resetting it (§4.2).
	// Defaults to one TimeSlice — the paper's 10 ms, slice-derived, so
	// shrinking the quantum tightens the containment window with it.
	PreemptTimeout sim.Time
	// QuarantineAfter is the number of forced resets after which a virtual
	// accelerator is quarantined: further job starts are rejected and the
	// scheduler skips it, so a guest that repeatedly refuses the preemption
	// handshake cannot keep stealing slices from co-tenants. 0 selects the
	// default (3); negative disables quarantine.
	QuarantineAfter int
	// Chaos, when non-nil, arms the deterministic fault-injection plan on
	// the platform (see internal/chaos and docs/ROBUSTNESS.md). A zero-value
	// Seed is replaced with a value derived from Config.Seed.
	Chaos *chaos.Config
	// Shell overrides the interconnect configuration.
	Shell *ccip.Config
	// Monitor overrides hardware monitor parameters (NumAccels is derived
	// from Accels).
	Monitor hwmon.Config
	// Seed drives all platform randomness.
	Seed uint64
	// Trace, when non-nil, is attached to every instrumented component
	// (shell, monitor, accelerators, schedulers). Tracing only copies
	// scalars into the ring, so it never perturbs simulated behaviour.
	Trace *obs.Tracer
	// Metrics, when non-nil, receives the platform's counter, gauge, and
	// histogram registrations (see RegisterMetrics).
	Metrics *obs.Registry
	// Profile, when true, attaches a utilization profiler to the platform's
	// tracer: per-actor busy/stall/preempt/idle sim-time accounting derived
	// from the trace stream at emit time (obs.Profiler). Requires Trace;
	// otherwise it is a no-op.
	Profile bool
	// Sample, when non-nil, attaches an epoch-driven time-series sampler
	// (obs.Sampler) over the platform's metrics registry: every registered
	// metric is snapshotted into ring buffers once per Sample.Window of
	// simulated time. Requires Metrics; otherwise it is a no-op. The
	// config is read at assembly only.
	Sample *obs.SampleConfig
}

func (c Config) withDefaults() Config {
	if c.MemBytes == 0 {
		c.MemBytes = 188 << 30
	}
	if c.PageSize == 0 {
		c.PageSize = mem.PageSize2M
	}
	if c.SliceSize == 0 {
		c.SliceSize = 64 << 30
	}
	if c.SliceGuard == 0 {
		c.SliceGuard = 128 << 20
		if c.PageSize == mem.PageSize4K {
			// 128 MB is a multiple of 512 pages at every page size the
			// IOTLB indexes with 9 bits, so by itself it would not stagger
			// 4 KB-page set indices at all. Add 64 pages so consecutive
			// slices land 64 sets apart (the same effect the plain 128 MB
			// gap has for 2 MB pages).
			c.SliceGuard += 64 * mem.PageSize4K
		}
	}
	if c.DisableGuard {
		c.SliceGuard = 0
	}
	if c.TimeSlice == 0 {
		c.TimeSlice = 10 * sim.Millisecond
	}
	if c.PreemptTimeout == 0 {
		c.PreemptTimeout = c.TimeSlice
	}
	if c.QuarantineAfter == 0 {
		c.QuarantineAfter = 3
	}
	return c
}

// PhysAccel is one physical accelerator slot.
type PhysAccel struct {
	Slot  int
	Name  string
	Accel *accel.Accel
	sched *scheduler
}

// Hypervisor owns the simulated machine and its virtualization state.
//
//optimus:state
type Hypervisor struct {
	cfg Config

	K       *sim.Kernel
	Mem     *mem.PhysMem
	Shell   *ccip.Shell
	Monitor *hwmon.Monitor //optimus:clone-skip structural, rebuilt by New from cfg; nil in pass-through mode
	Phys    []*PhysAccel

	frames *mem.FrameAllocator

	vms       []*VM
	nextVMID  int
	slicePool []int
	nextSlice int

	tr      *obs.Tracer   //optimus:clone-skip rebuilt by New; clones get private observability handles, never shared ones
	prof    *obs.Profiler //optimus:clone-skip rebuilt by New; derived observability, never copied state
	sampler *obs.Sampler  //optimus:clone-skip rebuilt by New; derived observability, never copied state
	chaos   *chaos.Plan   // nil = fault injection disabled
	stats   Stats
}

// Stats counts hypervisor events.
type Stats struct {
	MMIOTraps       uint64
	Hypercalls      uint64
	ContextSwitches uint64
	ForcedResets    uint64
	Quarantines     uint64
	PagesPinned     uint64
	ElasticGrows    uint64
	ElasticShrinks  uint64
}

// New assembles a platform per cfg.
func New(cfg Config) (*Hypervisor, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Accels) == 0 || len(cfg.Accels) > 8 {
		return nil, fmt.Errorf("hv: %d accelerators (want 1–8)", len(cfg.Accels))
	}
	k := sim.NewKernel()
	pm := mem.NewPhysMem(cfg.MemBytes)
	shellCfg := ccip.DefaultConfig()
	if cfg.Shell != nil {
		shellCfg = *cfg.Shell
	}
	shellCfg.PageSize = cfg.PageSize
	shellCfg.Seed = cfg.Seed
	shell := ccip.NewShell(k, pm, shellCfg)

	h := &Hypervisor{
		cfg:    cfg,
		K:      k,
		Mem:    pm,
		Shell:  shell,
		frames: mem.NewFrameAllocator(0, cfg.MemBytes),
		tr:     cfg.Trace,
	}
	shell.SetTracer(h.tr)

	if cfg.Chaos != nil {
		cc := *cfg.Chaos
		if cc.Seed == 0 {
			cc.Seed = cfg.Seed ^ 0xfa177 // distinct per-platform stream in seeded sweeps
		}
		h.chaos = chaos.NewPlan(cc)
		shell.SetChaos(h.chaos)
	}

	var ports []ccip.Port
	if cfg.Mode == ModeOptimus {
		mcfg := cfg.Monitor
		mcfg.NumAccels = len(cfg.Accels)
		if mcfg.Topology.Arity == 0 && !mcfg.Topology.Flat {
			mcfg.Topology = fpga.MuxTopology{Arity: 2}
		}
		mon, err := hwmon.New(k, shell, mcfg)
		if err != nil {
			return nil, err
		}
		h.Monitor = mon
		mon.SetTracer(h.tr)
		shell.SetTagged(true)
		for i := range cfg.Accels {
			ports = append(ports, mon.AccelPort(i))
		}
	} else {
		for range cfg.Accels {
			ports = append(ports, shell)
		}
	}

	for i, name := range cfg.Accels {
		a, err := accel.NewByName(name)
		if err != nil {
			return nil, err
		}
		a.Attach(k, ports[i])
		a.SetTracer(h.tr, i)
		if h.Monitor != nil {
			if err := h.Monitor.RegisterAccel(i, a, a.Reset); err != nil {
				return nil, err
			}
		}
		pa := &PhysAccel{Slot: i, Name: name, Accel: a}
		pa.sched = newScheduler(h, pa)
		a.OnStatusChange(pa.sched.onStatus)
		h.Phys = append(h.Phys, pa)
	}
	if cfg.Profile && h.tr != nil {
		h.prof = obs.NewProfiler()
		h.tr.SetProfiler(h.prof)
	}
	if cfg.Metrics != nil {
		h.RegisterMetrics(cfg.Metrics)
		if cfg.Sample != nil {
			h.sampler = obs.NewSampler(cfg.Metrics, h.prof, *cfg.Sample)
			h.sampler.Attach(k)
		}
	}
	return h, nil
}

// Trace returns the platform's tracer (nil when tracing is off).
func (h *Hypervisor) Trace() *obs.Tracer { return h.tr }

// Profiler returns the platform's utilization profiler (nil when profiling
// is off).
func (h *Hypervisor) Profiler() *obs.Profiler { return h.prof }

// Sampler returns the platform's time-series sampler (nil when sampling is
// off).
func (h *Hypervisor) Sampler() *obs.Sampler { return h.sampler }

// Chaos returns the platform's fault-injection plan (nil when disabled).
func (h *Hypervisor) Chaos() *chaos.Plan { return h.chaos }

// Config returns the (defaulted) configuration.
func (h *Hypervisor) Config() Config { return h.cfg }

// Stats returns a copy of the hypervisor counters.
func (h *Hypervisor) Stats() Stats { return h.stats }

// Phy returns the physical accelerator in slot i.
func (h *Hypervisor) Phy(i int) *PhysAccel { return h.Phys[i] }

// ReplaceAccel installs a custom accelerator in slot i — the path for
// designs written against the accel.Logic interface outside the built-in
// catalog. The accelerator is attached to the slot's DMA port, registered
// with the hardware monitor, and wired to the slot's scheduler. Call
// before any virtual accelerator on the slot starts a job.
func (h *Hypervisor) ReplaceAccel(i int, a *accel.Accel) error {
	if i < 0 || i >= len(h.Phys) {
		return fmt.Errorf("hv: no slot %d", i)
	}
	pa := h.Phys[i]
	if h.Monitor != nil {
		a.Attach(h.K, h.Monitor.AccelPort(i))
		if err := h.Monitor.RegisterAccel(i, a, a.Reset); err != nil {
			return err
		}
	} else {
		a.Attach(h.K, h.Shell)
	}
	a.SetTracer(h.tr, i)
	a.OnStatusChange(pa.sched.onStatus)
	pa.Accel = a
	pa.Name = a.Name()
	return nil
}

// allocSlice hands out a unique IOVA slice index.
func (h *Hypervisor) allocSlice() int {
	if n := len(h.slicePool); n > 0 {
		s := h.slicePool[n-1]
		h.slicePool = h.slicePool[:n-1]
		return s
	}
	s := h.nextSlice
	h.nextSlice++
	return s
}

func (h *Hypervisor) freeSlice(s int) { h.slicePool = append(h.slicePool, s) }

// SliceIOVABase returns the IO-virtual base address of slice index s: 64 GB
// slices separated by the 128 MB guard that keeps different accelerators'
// hot pages out of each other's IOTLB sets (§5, "IOTLB Conflict
// Mitigation").
func (h *Hypervisor) SliceIOVABase(s int) mem.IOVA {
	return mem.IOVA(s) * mem.IOVA(h.cfg.SliceSize+h.cfg.SliceGuard)
}

// Scheduler returns physical slot i's temporal-multiplexing scheduler
// handle (policy configuration, occupancy accounting).
func (h *Hypervisor) Scheduler(i int) *Scheduler {
	return &Scheduler{s: h.Phys[i].sched}
}
