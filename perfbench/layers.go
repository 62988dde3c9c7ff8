package main

// layerUnits names every per-layer metric a traced run reports on every
// workload, with its unit. Counts are exact and repeat for a seed; the rest
// are host measurements. Metrics that only some workloads produce are in
// extraLayerMetrics.
var layerUnits = map[string]string{
	"sim.events":                     "count",
	"sim.ns_per_event":               "ns",
	"sim.pending_mean":               "count",
	"sim.probe_ns_per_event":         "ns",
	"runtime.allocs_per_event":       "count",
	"runtime.bytes_per_event":        "B",
	"runtime.gc_cpu_pct":             "%",
	"mem.probe_read_ns":              "ns",
	"mem.probe_write_ns":             "ns",
	"mem.cow_breaks":                 "count",
	"mem.resident_mb":                "MB",
	"mem.shared_pct":                 "%",
	"pagetable.probe_lookup_ns":      "ns",
	"pagetable.probe_map_ns":         "ns",
	"iommu.probe_translate_ns":       "ns",
	"iommu.hit_pct":                  "%",
	"iommu.misses":                   "count",
	"ccip.requests":                  "count",
	"ccip.bytes":                     "B",
	"ccip.probe_req_ns":              "ns",
	"hwmon.dma_requests":             "count",
	"hwmon.probe_req_ns":             "ns",
	"accel.pump_s":                   "s",
	"accel.pump_calls":               "count",
	"hv.new_s":                       "s",
	"hv.provision_s":                 "s",
	"guest.write_s":                  "s",
	"hv.clone_s":                     "s",
	"hv.hypercalls":                  "count",
	"hv.context_switches":            "count",
	"algo.aes.ns_per_byte":           "ns/B",
	"algo.md5.ns_per_byte":           "ns/B",
	"algo.sha512.ns_per_byte":        "ns/B",
	"algo.fir.ns_per_byte":           "ns/B",
	"algo.grn.ns_per_byte":           "ns/B",
	"algo.reedsolomon.ns_per_byte":   "ns/B",
	"algo.smithwaterman.ns_per_byte": "ns/B",
	"algo.imgfilter.ns_per_byte":     "ns/B",
	"algo.bitcoin.ns_per_byte":       "ns/B",
}

// layerMetrics derives one traced pass's per-layer metrics from its
// outcomes, the runner's accumulators and the spans recorded since from.
func layerMetrics(r *runner, outs []outcome, from int) map[string]float64 {
	var c platformCounts
	var resident, shared float64
	for i := range outs {
		outs[i].counts.addTo(&c)
		resident += float64(outs[i].counts.resident)
		shared += float64(outs[i].counts.shared)
	}
	ev := float64(r.runEvents)
	m := map[string]float64{
		"sim.events":               float64(c.events),
		"sim.ns_per_event":         float64(r.runHost.Nanoseconds()) / ev,
		"sim.pending_mean":         r.pendingSum / r.pendingN,
		"runtime.allocs_per_event": r.rt.allocs / ev,
		"runtime.bytes_per_event":  r.rt.bytes / ev,
		"runtime.gc_cpu_pct":       100 * r.rt.gcCPU / r.rt.totalCPU,
		"mem.cow_breaks":           float64(c.cowBreaks),
		"mem.resident_mb":          float64(c.resident) / 1e6,
		"mem.shared_pct":           100 * shared / resident,
		"iommu.hit_pct":            100 * float64(c.iotlbHits) / float64(c.iotlbHits+c.iotlbMisses),
		"iommu.misses":             float64(c.iotlbMisses),
		"ccip.requests":            float64(c.reads + c.writes),
		"ccip.bytes":               float64(c.bytes),
		"hwmon.dma_requests":       float64(c.dmaRequests),
		"accel.pump_s":             r.acc.pump.Seconds(),
		"accel.pump_calls":         float64(r.acc.pumpCalls),
		"accel.state_s":            r.acc.state.Seconds(),
		"hv.new_s":                 r.tr.total("hv.New", from),
		"hv.provision_s":           r.tr.total("hv.provision", from),
		"guest.write_s":            r.tr.total("guest.Write", from),
		"hv.clone_s":               r.tr.total("hv.Clone", from),
		"hv.hypercalls":            float64(c.hypercalls),
		"hv.context_switches":      float64(c.switches),
		"hv.preemptions":           float64(c.preemptions),
		"hv.elastic_grows":         float64(c.grows),
		"load.launch_s":            r.launch.Seconds(),
	}
	for _, o := range outs {
		if s := o.serve; s != nil {
			m["load.offered"] += float64(s.offered)
			m["load.dropped"] += float64(s.dropped)
			m["load.completed"] += float64(s.completed)
		}
	}
	return m
}

// extraLayerMetrics are per-layer metrics that only some workloads
// produce; a traced run prints those that apply on its text lines.
func extraLayerMetrics(res *result) []metric {
	med := func(name string) float64 {
		return res.median(func(p passStats) float64 { return p.layers[name] })
	}
	var out []metric
	if v := med("hv.preemptions"); v > 0 {
		out = append(out, metric{"hv.preemptions", v, "count"}, metric{"accel.state_s", med("accel.state_s"), "s"})
	}
	if v := med("load.offered"); v > 0 {
		out = append(out,
			metric{"hv.elastic_grows", med("hv.elastic_grows"), "count"},
			metric{"load.offered", v, "count"},
			metric{"load.dropped", med("load.dropped"), "count"},
			metric{"load.completed", med("load.completed"), "count"},
			metric{"load.launch_s", med("load.launch_s"), "s"})
	}
	return out
}
