package hwmon

import (
	"fmt"

	"optimus/internal/ccip"
	"optimus/internal/fpga"
	"optimus/internal/mem"
	"optimus/internal/obs"
	"optimus/internal/sim"
)

// Config parameterizes the hardware monitor.
type Config struct {
	// NumAccels is the number of physical accelerators (1–8 at 400 MHz).
	NumAccels int
	// Topology is the multiplexer arrangement; the default is the paper's
	// three-level binary tree.
	Topology fpga.MuxTopology
	// TreeFreqMHz is the multiplexer clock (default 400).
	TreeFreqMHz int
	// LevelLatency is the pipeline latency each tree level adds in each
	// direction (default 33 ns, §6.3).
	LevelLatency sim.Time
	// InjectionCycles is the number of tree cycles an auditor needs to
	// accept one request line (2 under OPTIMUS due to routing complexity,
	// §6.3; 1 models pass-through).
	InjectionCycles int
	// CreditLines bounds the cache lines in flight between the tree root
	// and the shell (CCI-P's credit-based flow control). Backpressure from
	// these credits is what makes the tree's round-robin arbiters — not
	// the link queues — divide bandwidth, enabling the paper's
	// subtree-placement bandwidth shaping (§4.1). Default 512 (covers the
	// bandwidth-delay product with headroom).
	CreditLines int
}

func (c Config) withDefaults() Config {
	if c.NumAccels == 0 {
		c.NumAccels = 1
	}
	if c.Topology.Arity == 0 && !c.Topology.Flat {
		c.Topology.Arity = 2
	}
	if c.TreeFreqMHz == 0 {
		c.TreeFreqMHz = 400
	}
	if c.LevelLatency == 0 {
		c.LevelLatency = 33 * sim.Nanosecond
	}
	if c.InjectionCycles == 0 {
		c.InjectionCycles = 2
	}
	if c.CreditLines == 0 {
		c.CreditLines = 512
	}
	return c
}

// creditPool is the root→shell flow-control state.
type creditPool struct {
	max      int
	inflight int
	waiter   func()
}

// tryAcquire reserves lines of credit. Requests larger than the whole pool
// (multi-megabyte preemption-state DMAs) are admitted alone.
func (c *creditPool) tryAcquire(lines int) bool {
	if c.inflight > 0 && c.inflight+lines > c.max {
		return false
	}
	c.inflight += lines
	return true
}

func (c *creditPool) release(lines int) {
	c.inflight -= lines
	if w := c.waiter; w != nil {
		c.waiter = nil
		w()
	}
}

// Stats aggregates monitor counters.
type Stats struct {
	MMIOReads       uint64
	MMIOWrites      uint64
	MMIODiscarded   uint64
	DMARequests     uint64
	DMADropped      uint64 // responses dropped by tag check or reset fence
	RangeViolations uint64
	Resets          uint64
}

// Monitor is the on-FPGA hardware monitor.
type Monitor struct {
	k   *sim.Kernel
	cfg Config

	shell      ccip.Port
	clock      sim.Clock
	treeLevels int

	auditors []*Auditor
	root     *muxNode             // upstream tree root (nil for a single accelerator)
	entries  []func(ccip.Request) // per-accelerator leaf injection points

	// downstream is the response-side root server: all responses cross the
	// shell→tree boundary at one line per cycle.
	downstreamFree sim.Time

	credits creditPool

	// flFree is the freelist of pooled inflight records (the per-request
	// state arena). Records are recycled as responses deliver, so the
	// audited DMA path allocates only while the pool is still growing.
	flFree []*inflight

	stats Stats
	tr    *obs.Tracer // nil = tracing disabled
}

// getInflight pops a pooled record (or grows the pool). Each record's fire
// closures are built exactly once, capturing only the record pointer.
//
//optimus:hotpath
func (m *Monitor) getInflight() *inflight {
	if n := len(m.flFree); n > 0 {
		fl := m.flFree[n-1]
		m.flFree[n-1] = nil
		m.flFree = m.flFree[:n-1]
		return fl
	}
	fl := &inflight{m: m}
	fl.fireInject = fl.inject
	fl.fireDeliver = fl.deliver
	fl.fireFault = fl.fault
	return fl
}

// putInflight recycles a record, dropping every reference it carried.
//
//optimus:hotpath
func (m *Monitor) putInflight(fl *inflight) {
	fl.a = nil
	fl.done = nil
	fl.comp = nil
	fl.creditLines = 0
	fl.req = ccip.Request{}
	fl.resp = ccip.Response{}
	m.flFree = append(m.flFree, fl)
}

// New builds a monitor in front of shell.
func New(k *sim.Kernel, shell ccip.Port, cfg Config) (*Monitor, error) {
	cfg = cfg.withDefaults()
	if cfg.NumAccels < 1 {
		return nil, fmt.Errorf("hwmon: invalid accelerator count %d", cfg.NumAccels)
	}
	m := &Monitor{
		k:          k,
		cfg:        cfg,
		shell:      shell,
		clock:      sim.NewClock(cfg.TreeFreqMHz),
		treeLevels: cfg.Topology.Levels(cfg.NumAccels),
		credits:    creditPool{max: cfg.CreditLines},
	}
	m.root = buildTree(m, cfg.NumAccels)
	for i := 0; i < cfg.NumAccels; i++ {
		m.auditors = append(m.auditors, newAuditor(m, i))
	}
	return m, nil
}

// Stats returns a copy of the counters.
func (m *Monitor) Stats() Stats { return m.stats }

// SetTracer attaches tr to the monitor's DMA, MMIO, and arbitration paths
// (nil disables tracing).
func (m *Monitor) SetTracer(tr *obs.Tracer) { m.tr = tr }

// TreeLevels returns the multiplexer tree depth.
func (m *Monitor) TreeLevels() int { return m.treeLevels }

// NumAccels returns the number of physical accelerators.
func (m *Monitor) NumAccels() int { return len(m.auditors) }

// RegisterAccel attaches an accelerator's MMIO register file and reset hook
// to slot i.
func (m *Monitor) RegisterAccel(i int, h MMIOHandler, reset func()) error {
	if i < 0 || i >= len(m.auditors) {
		return fmt.Errorf("hwmon: accelerator slot %d out of range", i)
	}
	m.auditors[i].handler = h
	m.auditors[i].reset = reset
	return nil
}

// AccelPort returns the CCI-P port accelerator i must issue DMAs through
// (its auditor).
func (m *Monitor) AccelPort(i int) ccip.Port { return m.auditors[i] }

// Auditor returns auditor i for inspection (tests, hypervisor diagnostics).
func (m *Monitor) Auditor(i int) *Auditor { return m.auditors[i] }

// SetWindow programs accelerator i's slicing window via the VCU: DMAs to
// guest-virtual [gvaBase, gvaBase+size) are rewritten to IO-virtual
// [iovaBase, iovaBase+size). This is the typed equivalent of the three VCU
// register writes the hypervisor performs.
func (m *Monitor) SetWindow(i int, gvaBase mem.GVA, iovaBase mem.IOVA, size uint64) error {
	base := VCUBase + uint64(VCUAccelBlockBase) + uint64(i)*VCUAccelBlockSize
	if err := m.MMIOWrite(base+VCUOffGVABase, uint64(gvaBase)); err != nil {
		return err
	}
	if err := m.MMIOWrite(base+VCUOffIOVABase, uint64(iovaBase)); err != nil {
		return err
	}
	return m.MMIOWrite(base+VCUOffWindowSize, size)
}

// Reset pulses accelerator i's reset line via the VCU reset table.
func (m *Monitor) Reset(i int) error {
	base := VCUBase + uint64(VCUAccelBlockBase) + uint64(i)*VCUAccelBlockSize
	return m.MMIOWrite(base+VCUOffReset, 1)
}

func (m *Monitor) resetAccel(i int) {
	a := m.auditors[i]
	a.generation++ // fences in-flight responses
	m.stats.Resets++
	m.tr.Emit(m.k.Now(), obs.KindAccelReset, obs.PA(i), a.generation, 0)
	if a.reset != nil {
		a.reset()
	}
}

// deliverDownstream models the response path: the root downstream server
// (one line per tree cycle, shared by all accelerators). The per-level 33 ns
// pipeline cost is charged on the request path by the tree nodes, matching
// the paper's "~100 ns on the path through the multiplexer tree" for three
// levels.
func (m *Monitor) deliverDownstream(lines int, fn func()) {
	m.k.At(m.downstreamAt(lines), fn)
}

// downstreamAt reserves the downstream server for lines and returns the
// delivery time. Split from deliverDownstream so the pooled response path can
// schedule its prebuilt closure without wrapping.
//
//optimus:hotpath
func (m *Monitor) downstreamAt(lines int) sim.Time {
	start := m.k.Now()
	if m.downstreamFree > start {
		start = m.downstreamFree
	}
	busy := m.clock.Cycles(int64(lines))
	m.downstreamFree = start + busy
	return start + busy
}
