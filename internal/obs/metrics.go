package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"optimus/internal/sim"
)

// Registry unifies the platform's scattered per-package counters
// (iommu.Stats, hwmon.Stats, ccip.ShellStats, scheduler occupancy,
// accelerator DMA latency) behind named Counter/Gauge/Histogram handles
// with one Snapshot. Registration happens at platform assembly
// (hv.(*Hypervisor).RegisterMetrics); reading a snapshot walks the live
// sources, so a registry is always current without any per-event cost.
//
// Three handle shapes cover the existing stats surfaces:
//
//   - Counter — a registry-owned *sim.Counter for new code, or a
//     RegisterCounter callback reading an existing struct field.
//   - Gauge — a float64 callback (rates, ratios, occupancy).
//   - Histogram — a *sim.LatencyStat, summarized with count/mean/min/max
//     and lazy-sorted percentiles.
//
// Counters are cumulative over the platform's life; a phase's share is the
// difference of two snapshots. A registry belongs to its platform's
// goroutine and has no lock.
type Registry struct {
	counters map[string]func() uint64
	gauges   map[string]func() float64
	hists    map[string]*sim.LatencyStat
	owned    map[string]*sim.Counter
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]func() uint64{},
		gauges:   map[string]func() float64{},
		hists:    map[string]*sim.LatencyStat{},
		owned:    map[string]*sim.Counter{},
	}
}

// Counter returns the registry-owned sim.Counter with the given name,
// creating and registering it on first use. The returned handle is live:
// Add on it is immediately visible to Snapshot.
func (r *Registry) Counter(name string) *sim.Counter {
	if c, ok := r.owned[name]; ok {
		return c
	}
	c := &sim.Counter{Name: name}
	r.owned[name] = c
	r.counters[name] = func() uint64 { return c.Value }
	return c
}

// RegisterCounter registers a monotonically-increasing value read through fn
// (typically a closure over an existing Stats field).
func (r *Registry) RegisterCounter(name string, fn func() uint64) {
	r.counters[name] = fn
}

// RegisterGauge registers an instantaneous value read through fn.
func (r *Registry) RegisterGauge(name string, fn func() float64) {
	r.gauges[name] = fn
}

// RegisterHistogram registers a latency distribution.
func (r *Registry) RegisterHistogram(name string, h *sim.LatencyStat) {
	r.hists[name] = h
}

// HistSummary condenses a LatencyStat for a snapshot.
type HistSummary struct {
	Count  uint64  `json:"count"`
	MeanNS float64 `json:"mean_ns"`
	MinNS  float64 `json:"min_ns"`
	MaxNS  float64 `json:"max_ns"`
	P50NS  float64 `json:"p50_ns"`
	P95NS  float64 `json:"p95_ns"`
	P99NS  float64 `json:"p99_ns"`
	P999NS float64 `json:"p999_ns"`
}

// Sample is one metric in a snapshot. Value carries the counter or gauge
// reading (a histogram's Value is its sample count); Hist is set for
// histograms only.
type Sample struct {
	Name  string       `json:"name"`
	Kind  string       `json:"kind"`
	Value float64      `json:"value"`
	Hist  *HistSummary `json:"hist,omitempty"`
}

// Snapshot reads every registered metric, sorted by name.
func (r *Registry) Snapshot() []Sample {
	out := make([]Sample, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for name, fn := range r.counters {
		out = append(out, Sample{Name: name, Kind: "counter", Value: float64(fn())})
	}
	for name, fn := range r.gauges {
		out = append(out, Sample{Name: name, Kind: "gauge", Value: fn()})
	}
	for name, h := range r.hists {
		ps := h.Percentiles(50, 95, 99, 99.9)
		out = append(out, Sample{
			Name: name, Kind: "histogram", Value: float64(h.Count()),
			Hist: &HistSummary{
				Count:  h.Count(),
				MeanNS: h.Mean().Nanoseconds(),
				MinNS:  h.Min().Nanoseconds(),
				MaxNS:  h.Max().Nanoseconds(),
				P50NS:  ps[0].Nanoseconds(),
				P95NS:  ps[1].Nanoseconds(),
				P99NS:  ps[2].Nanoseconds(),
				P999NS: ps[3].Nanoseconds(),
			},
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// WriteText renders the snapshot as an aligned name/value dump.
func (r *Registry) WriteText(w io.Writer) error {
	width := 0
	samples := r.Snapshot()
	for _, s := range samples {
		if len(s.Name) > width {
			width = len(s.Name)
		}
	}
	for _, s := range samples {
		var err error
		switch {
		case s.Hist != nil:
			_, err = fmt.Fprintf(w, "%-*s  n=%d mean=%.1fns p50=%.1fns p95=%.1fns p99=%.1fns p999=%.1fns max=%.1fns\n",
				width, s.Name, s.Hist.Count, s.Hist.MeanNS, s.Hist.P50NS, s.Hist.P95NS, s.Hist.P99NS, s.Hist.P999NS, s.Hist.MaxNS)
		case s.Kind == "gauge":
			_, err = fmt.Fprintf(w, "%-*s  %.4f\n", width, s.Name, s.Value)
		default:
			_, err = fmt.Fprintf(w, "%-*s  %.0f\n", width, s.Name, s.Value)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON renders the snapshot as a JSON array.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// WriteMetrics dumps every collected platform's registry, labelled.
func (c *Collector) WriteMetrics(w io.Writer) error {
	for _, p := range c.Platforms() {
		if p.Metrics == nil {
			continue
		}
		if _, err := fmt.Fprintf(w, "== %s ==\n", p.Label); err != nil {
			return err
		}
		if err := p.Metrics.WriteText(w); err != nil {
			return err
		}
	}
	return nil
}
