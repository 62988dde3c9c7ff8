package hv

import (
	"fmt"

	"optimus/internal/chaos"
	"optimus/internal/obs"
)

// RegisterMetrics publishes the platform's per-package counters into r under
// stable dotted names: iommu.* and shell.* for the interconnect, hwmon.* for
// the hardware monitor, hv.* for trap-and-emulate bookkeeping, and
// sched.pa<i>.* / accel.pa<i>.* per physical slot. Registration installs
// read-through closures over the live Stats sources — nothing is sampled
// until Registry.Snapshot. Every counter is cumulative over the platform's
// life; callers that want a phase's share take the difference of two
// snapshots.
//
// New calls this automatically when Config.Metrics is set; it is exported so
// tests and custom drivers can publish into their own registry.
func (h *Hypervisor) RegisterMetrics(r *obs.Registry) {
	u := h.Shell.IOMMU
	r.RegisterCounter("iommu.hits", func() uint64 { return u.Stats().Hits })
	r.RegisterCounter("iommu.misses", func() uint64 { return u.Stats().Misses })
	r.RegisterCounter("iommu.evictions", func() uint64 { return u.Stats().Evictions })
	r.RegisterCounter("iommu.spec_hits", func() uint64 { return u.Stats().SpecHits })
	r.RegisterCounter("iommu.faults", func() uint64 { return u.Stats().Faults })
	r.RegisterGauge("iommu.hit_rate", func() float64 { return u.Stats().HitRate() })

	sh := h.Shell
	r.RegisterCounter("shell.reads", func() uint64 { return sh.Stats().Reads })
	r.RegisterCounter("shell.writes", func() uint64 { return sh.Stats().Writes })
	r.RegisterCounter("shell.bytes_read", func() uint64 { return sh.Stats().BytesRead })
	r.RegisterCounter("shell.bytes_written", func() uint64 { return sh.Stats().BytesWritten })
	r.RegisterCounter("shell.faults", func() uint64 { return sh.Stats().Faults })
	shCfg := sh.Config()
	for _, name := range []string{shCfg.UPI.Name, shCfg.PCIe0.Name, shCfg.PCIe1.Name} {
		name := name
		r.RegisterCounter(fmt.Sprintf("shell.%s.bytes_read", name),
			func() uint64 { return sh.Stats().PerChannelRdBytes[name] })
		r.RegisterCounter(fmt.Sprintf("shell.%s.bytes_written", name),
			func() uint64 { return sh.Stats().PerChannelWrBytes[name] })
	}

	if m := h.Monitor; m != nil {
		r.RegisterCounter("hwmon.mmio_reads", func() uint64 { return m.Stats().MMIOReads })
		r.RegisterCounter("hwmon.mmio_writes", func() uint64 { return m.Stats().MMIOWrites })
		r.RegisterCounter("hwmon.mmio_discarded", func() uint64 { return m.Stats().MMIODiscarded })
		r.RegisterCounter("hwmon.dma_requests", func() uint64 { return m.Stats().DMARequests })
		r.RegisterCounter("hwmon.dma_dropped", func() uint64 { return m.Stats().DMADropped })
		r.RegisterCounter("hwmon.range_violations", func() uint64 { return m.Stats().RangeViolations })
		r.RegisterCounter("hwmon.resets", func() uint64 { return m.Stats().Resets })
	}

	// Memory model: residency and copy-on-write sharing state. Gauges walk
	// the frame map, which is fine at Snapshot frequency; the sharing
	// ratio of a cloned platform is shared_frames over resident frames.
	pm := h.Mem
	r.RegisterGauge("mem.resident_bytes", func() float64 { return float64(pm.ResidentBytes()) })
	r.RegisterGauge("mem.shared_frames", func() float64 { return float64(pm.SharedFrames()) })
	r.RegisterGauge("mem.dirty_frames", func() float64 { return float64(pm.DirtyFrameCount()) })
	r.RegisterCounter("mem.cow_breaks", pm.CoWBreaks)

	r.RegisterCounter("hv.mmio_traps", func() uint64 { return h.stats.MMIOTraps })
	r.RegisterCounter("hv.hypercalls", func() uint64 { return h.stats.Hypercalls })
	r.RegisterCounter("hv.context_switches", func() uint64 { return h.stats.ContextSwitches })
	r.RegisterCounter("hv.forced_resets", func() uint64 { return h.stats.ForcedResets })
	r.RegisterCounter("hv.pages_pinned", func() uint64 { return h.stats.PagesPinned })
	r.RegisterCounter("hv.quarantines", func() uint64 { return h.stats.Quarantines })
	r.RegisterCounter("hv.elastic_grows", func() uint64 { return h.stats.ElasticGrows })
	r.RegisterCounter("hv.elastic_shrinks", func() uint64 { return h.stats.ElasticShrinks })

	r.RegisterCounter("sched.forced_resets", func() uint64 {
		var n uint64
		for _, pa := range h.Phys {
			n += pa.sched.forcedResets
		}
		return n
	})

	if p := h.chaos; p != nil {
		r.RegisterCounter("chaos.injected", func() uint64 { return p.Stats().TotalInjected() })
		for c := chaos.ClassXlat; c < chaos.NumClasses; c++ {
			c := c
			r.RegisterCounter("chaos.injected."+c.String(),
				func() uint64 { return p.Stats().Injected[c] })
		}
		r.RegisterCounter("chaos.xlat_retries", func() uint64 { return p.Stats().XlatRetries })
		r.RegisterCounter("chaos.retransmits", func() uint64 { return p.Stats().Retransmits })
		r.RegisterCounter("chaos.dups_suppressed", func() uint64 { return p.Stats().DupsSuppressed })
		r.RegisterCounter("chaos.pin_retries", func() uint64 { return p.Stats().PinRetries })
		r.RegisterCounter("chaos.exhausted", func() uint64 { return p.Stats().Exhausted })
		r.RegisterCounter("chaos.recovered", func() uint64 { return p.Stats().Recovered })
		r.RegisterHistogram("chaos.recovery_latency", p.Recovery())
	}

	for _, pa := range h.Phys {
		pa := pa
		r.RegisterCounter(fmt.Sprintf("sched.pa%d.switches", pa.Slot),
			func() uint64 { return pa.sched.switches })
		r.RegisterCounter(fmt.Sprintf("sched.pa%d.preemptions", pa.Slot),
			func() uint64 { return pa.sched.preemptions })
		r.RegisterCounter(fmt.Sprintf("sched.pa%d.forced_resets", pa.Slot),
			func() uint64 { return pa.sched.forcedResets })
		r.RegisterCounter(fmt.Sprintf("accel.pa%d.jobs_done", pa.Slot),
			func() uint64 { return pa.Accel.JobsDone() })
		r.RegisterCounter(fmt.Sprintf("accel.pa%d.bytes_read", pa.Slot),
			func() uint64 { return pa.Accel.BytesRead() })
		r.RegisterCounter(fmt.Sprintf("accel.pa%d.bytes_written", pa.Slot),
			func() uint64 { return pa.Accel.BytesWritten() })
		r.RegisterHistogram(fmt.Sprintf("accel.pa%d.dma_latency", pa.Slot),
			pa.Accel.DMALatency())
	}
}
