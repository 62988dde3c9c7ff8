package exp

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"optimus/internal/accel"
	"optimus/internal/guest"
	"optimus/internal/hv"
	"optimus/internal/load"
	"optimus/internal/obs"
	"optimus/internal/sim"
)

// Scenario declares one platform and the tenants it hosts: the single
// description that optimus-sim and the runners provision from. Spatial
// multiplexing puts each tenant on a slot of its own, temporal
// multiplexing puts several on one slot, and open-loop serving fronts
// tenants with request streams.
type Scenario struct {
	Config hv.Config
	// Policy is every slot scheduler's temporal-multiplexing policy.
	Policy hv.Policy
	// StatePad grows every accelerator's preemption state by this many
	// bytes (accel.PadState): fig8's "MD5 worst case".
	StatePad int
	Tenants  []Tenant
}

// Tenant is one guest VM whose process holds a device on Slot.
type Tenant struct {
	Slot int
	Job  Job
	// Weight and Priority parameterize the weighted and priority
	// policies (hv.VAccel.SetWeight, SetPriority); the zero values are the
	// vaccel defaults.
	Weight, Priority int
	StateBuf         StateBuf
	// Stream, if set, makes the tenant open-loop: Platform.Serve fronts its
	// device with this request stream, each request costing Job.Bursts
	// MemBench bursts. Launch starts only closed-loop tenants.
	Stream *load.StreamConfig
	// Standby, if set, is an elastic standby device for the stream.
	Standby *Standby
}

// Standby is a second device of a tenant: a new process in the tenant's VM
// attached to Slot, provisioned with Job and the tenant's StateBuf. Only an
// elastic stream (Stream.Elastic.HighWater > 0) grows onto it.
type Standby struct {
	Slot int
	Job  Job
}

// Job is the work a device is provisioned with.
type Job struct {
	// App is "MB", "LL", another application provisionJob sizes from Size
	// and Seed, or "" for a device left without a job.
	App string
	// Size is the buffer the job runs over: the MemBench working set, the
	// LinkedList buffer, or an application's input bytes.
	Size uint64
	// Nodes is the LinkedList length.
	Nodes int
	// WritePct is MemBench's share of writes in percent; KeepWritePct
	// leaves the register at its reset value.
	WritePct int
	// Bursts is MemBench's burst count (0 runs until stopped). An
	// open-loop tenant's requests cost Bursts each.
	Bursts uint64
	Seed   uint64
}

// KeepWritePct as Job.WritePct skips the MemBench write-share register.
const KeepWritePct = -1

// StateBuf places a device's preemption state buffer relative to its job.
// Runners differ in the order, and every step is a trapped MMIO access
// that shows up in traces, so the scenario keeps each runner's own.
type StateBuf uint8

// State buffer placements.
const (
	NoStateBuf StateBuf = iota
	// StateBufFirst sets the buffer up after the job's buffer is allocated
	// and before the job is programmed.
	StateBufFirst
	// StateBufLast sets the buffer up after the job is programmed.
	StateBufLast
)

// Platform is a provisioned Scenario: the hypervisor and the guest handles
// of every tenant, in scenario order.
type Platform struct {
	H       *hv.Hypervisor
	sc      Scenario
	tenants []*tenant
}

// VAccel returns tenant i's virtual accelerator.
func (p *Platform) VAccel(i int) *hv.VAccel { return p.tenants[i].dev.VAccel() }

// Serve attaches a traffic engine (window length, absolute horizon) that
// fronts every open-loop tenant with its stream, and returns it.
func (p *Platform) Serve(window, horizon sim.Time) *load.Engine {
	eng := load.NewEngine(p.H.K, window, horizon)
	for i, t := range p.sc.Tenants {
		if t.Stream == nil {
			continue
		}
		tn := p.tenants[i]
		st := eng.AddStream(*t.Stream)
		st.AddWorker(&worker{h: p.H, dev: tn.dev, bursts: t.Job.Bursts})
		if tn.standby != nil && t.Stream.Elastic.HighWater > 0 {
			st.AddElasticWorker(&worker{h: p.H, dev: tn.standby, bursts: t.Standby.Job.Bursts})
		}
		st.SetTrace(p.H.Trace(), obs.VM(tn.vm.ID))
	}
	if reg := p.H.Config().Metrics; reg != nil {
		eng.RegisterMetrics(reg)
	}
	eng.Attach()
	return eng
}

// Launch provisions sc on a platform of its own and starts every
// closed-loop tenant's job (one with a job and no stream), each as soon as
// the tenant is provisioned.
func (s *Session) Launch(sc Scenario) (*Platform, error) { return s.provision(sc, false) }

// provision acquires a platform for sc and provisions its tenants: on a
// platform of its own, starting closed-loop jobs as Launch does, or — with
// clone set — on a clone of a warm template provisioned once per
// (scenario, configuration), with nothing started (hv.Clone needs a
// quiescent template). Streams are not part of a template and may differ
// between the scenarios that share one.
func (s *Session) provision(sc Scenario, clone bool) (*Platform, error) {
	if err := sc.validate(); err != nil {
		return nil, err
	}
	var rebind func(*Platform, *hv.Hypervisor) (*Platform, error)
	if clone {
		rebind = func(tmpl *Platform, h *hv.Hypervisor) (*Platform, error) { return tmpl.rebind(h, sc) }
	}
	_, p, err := acquire(s, sc.Config, sc.recipe(),
		func(h *hv.Hypervisor) (*Platform, error) { return s.build(h, sc, !clone) }, rebind)
	return p, err
}

// build provisions sc's tenants on h, one at a time in scenario order:
// attached (VM, process, vaccel, device), provisioned, and with start set
// started if closed-loop, before the next is attached. A scheduler's
// round-robin rotor wraps over the vaccels attached when a job starts, so
// this order is part of the scenario. Standbys follow, in tenant order,
// after every tenant: the spare slot's vaccels and IOVA slices come last.
func (s *Session) build(h *hv.Hypervisor, sc Scenario, start bool) (*Platform, error) {
	for i := range h.Phys {
		if sc.StatePad > 0 {
			accel.PadState(h.Phy(i).Accel, sc.StatePad)
		}
		h.Scheduler(i).SetPolicy(sc.Policy)
	}
	p := &Platform{H: h, sc: sc, tenants: make([]*tenant, len(sc.Tenants))}
	for i, t := range sc.Tenants {
		tn, err := newTenant(h, t.Slot)
		if err != nil {
			return nil, err
		}
		tn.dev.VAccel().SetWeight(t.Weight)
		tn.dev.VAccel().SetPriority(t.Priority)
		if err := s.provisionJob(tn, t.Job, t.StateBuf); err != nil {
			return nil, fmt.Errorf("tenant %d: %w", i, err)
		}
		if start && t.Stream == nil && t.Job.App != "" {
			if err := tn.dev.Start(); err != nil {
				return nil, err
			}
		}
		p.tenants[i] = tn
	}
	for i, t := range sc.Tenants {
		if t.Standby == nil {
			continue
		}
		tn := p.tenants[i]
		proc := tn.vm.NewProcess()
		va, err := h.NewVAccel(proc, t.Standby.Slot)
		if err != nil {
			return nil, err
		}
		dev, err := guest.Open(proc, va)
		if err != nil {
			return nil, err
		}
		if err := s.provisionJob(&tenant{vm: tn.vm, dev: dev}, t.Standby.Job, t.StateBuf); err != nil {
			return nil, fmt.Errorf("tenant %d standby: %w", i, err)
		}
		tn.standby = dev
	}
	return p, nil
}

// rebind re-wraps the guest handles of p, a template, around the clone h's
// counterparts for the scenario sc.
func (p *Platform) rebind(h *hv.Hypervisor, sc Scenario) (*Platform, error) {
	c := &Platform{H: h, sc: sc, tenants: make([]*tenant, len(p.tenants))}
	for i, tt := range p.tenants {
		dev, err := cloneDevice(tt.dev, h)
		if err != nil {
			return nil, err
		}
		tn := &tenant{vm: dev.VAccel().Process().VM(), dev: dev, work: tt.work, completeOnly: tt.completeOnly}
		if tt.standby != nil {
			if tn.standby, err = cloneDevice(tt.standby, h); err != nil {
				return nil, err
			}
		}
		c.tenants[i] = tn
	}
	return c, nil
}

// cloneDevice finds a template device's counterpart on the clone h by slot
// and attach order — hv.Clone rebuilds every slot's vaccels in attach
// order — and re-wraps it.
func cloneDevice(d *guest.Device, h *hv.Hypervisor) (*guest.Device, error) {
	pa := d.VAccel().Phys()
	i := slices.Index(pa.VAccels(), d.VAccel())
	vas := h.Phy(pa.Slot).VAccels()
	if i < 0 || i >= len(vas) {
		return nil, fmt.Errorf("exp: clone slot %d has no vaccel #%d", pa.Slot, i)
	}
	return d.CloneFor(vas[i].Process(), vas[i]), nil
}

// recipe fingerprints what a template provisions: everything in the
// scenario except its configuration (acquire keys that) and its streams
// (applied after cloning).
func (sc Scenario) recipe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario/%d/%d", sc.Policy, sc.StatePad)
	for _, t := range sc.Tenants {
		fmt.Fprintf(&b, "|%d:%+v:%d:%d:%d", t.Slot, t.Job, t.Weight, t.Priority, t.StateBuf)
		if t.Standby != nil {
			fmt.Fprintf(&b, ":standby%+v", *t.Standby)
		}
	}
	return b.String()
}

// validate rejects scenario input that would crash or hang a run.
func (sc Scenario) validate() error {
	for i, t := range sc.Tenants {
		if t.Stream == nil {
			continue
		}
		if err := validStream(*t.Stream); err != nil {
			return fmt.Errorf("exp: tenant %d stream: %w", i, err)
		}
	}
	return nil
}

func validStream(c load.StreamConfig) error {
	positive := func(v float64) bool { return v > 0 && !math.IsInf(v, 0) }
	switch {
	case c.Arrivals.Kind != load.Trace && !positive(c.Arrivals.RatePerSec):
		return fmt.Errorf("rate must be positive and finite (got %v)", c.Arrivals.RatePerSec)
	case c.QueueCap <= 0:
		return fmt.Errorf("queue capacity must be positive (got %d)", c.QueueCap)
	case c.BatchMax <= 0:
		return fmt.Errorf("batch size must be positive (got %d)", c.BatchMax)
	case (c.Policy == load.TokenBucket || c.TokenRatePerSec != 0) && !positive(c.TokenRatePerSec):
		return fmt.Errorf("token rate must be positive and finite (got %v)", c.TokenRatePerSec)
	case c.TokenBurst < 0 || math.IsNaN(c.TokenBurst) || math.IsInf(c.TokenBurst, 0):
		return fmt.Errorf("token burst must be finite and non-negative (got %v)", c.TokenBurst)
	}
	return nil
}

// programJob allocates an MB or LL job's buffer on d and programs the
// job, setting up the state buffer where sb places it. It is the one place
// either job is programmed.
func programJob(d *guest.Device, j Job, sb StateBuf) error {
	buf, err := d.AllocDMA(j.Size)
	if err != nil {
		return err
	}
	if sb == StateBufFirst {
		if _, err := d.SetupStateBuffer(); err != nil {
			return err
		}
	}
	if j.App == "LL" {
		head, _, err := d.BuildList(buf, j.Nodes, j.Seed)
		if err == nil {
			err = d.RegWrite(accel.LLArgHead, head)
		}
		if err != nil {
			return err
		}
	} else {
		regs := []reg{{accel.MBArgBase, uint64(buf.Addr)}, {accel.MBArgSize, j.Size}, {accel.MBArgBursts, j.Bursts}}
		if j.WritePct != KeepWritePct {
			regs = append(regs, reg{accel.MBArgWritePct, uint64(j.WritePct)})
		}
		if err := writeRegs(d, append(regs, reg{accel.MBArgSeed, j.Seed})...); err != nil {
			return err
		}
	}
	if sb == StateBufLast {
		if _, err := d.SetupStateBuffer(); err != nil {
			return err
		}
	}
	return nil
}

// reg is one application-register write.
type reg struct {
	i int
	v uint64
}

// writeRegs programs the registers in order, stopping at the first error.
func writeRegs(d *guest.Device, regs ...reg) error {
	for _, r := range regs {
		if err := d.RegWrite(r.i, r.v); err != nil {
			return err
		}
	}
	return nil
}

// worker adapts one guest device to load.Worker: a batch of n requests is
// one MemBench job of bursts*n bursts. The completion callback is prebuilt
// in Bind so the steady-state launch path allocates no closures; failure is
// read off the vaccel at completion time.
type worker struct {
	h      *hv.Hypervisor
	dev    *guest.Device
	bursts uint64
	done   func(failed bool)
	onDone func()
}

func (w *worker) Bind(done func(failed bool)) {
	w.done = done
	w.onDone = func() { w.done(w.dev.VAccel().Failed() != nil) }
}

func (w *worker) Launch(n int) error {
	if err := w.dev.RegWrite(accel.MBArgBursts, w.bursts*uint64(n)); err != nil {
		return err
	}
	if err := w.dev.Start(); err != nil {
		return err
	}
	// After Start: OnDone on an idle device fires immediately, which would
	// complete the batch before it ran.
	w.dev.OnDone(w.onDone)
	return nil
}

// Grow activates the standby's claim on the spare slot. A refused grow
// (failed or quarantined standby, e.g. under chaos) leaves the worker
// released and its ready callback unfired; the stream's controller holds it
// in "growing" from then on, which is exactly the deterministic degraded
// mode we want — a broken standby cannot flap.
func (w *worker) Grow(ready func()) {
	if err := w.h.ElasticGrow(w.dev.VAccel(), serveGrowCost, ready); err != nil {
		return
	}
}

func (w *worker) Shrink() { w.h.ElasticShrink(w.dev.VAccel()) }
