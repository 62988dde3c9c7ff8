package obs

import (
	"encoding/json"
	"io"
	"sort"

	"optimus/internal/sim"
)

// Sampler is the epoch-driven time-series engine: attached to a kernel's
// epoch hook (sim.Kernel.SetEpochHook), it snapshots every metric registered
// in a Registry — plus the utilization profiler's per-class totals when one
// is attached — into preallocated per-metric ring buffers keyed by simulated
// time, one sample per configured window.
//
// Encoding per metric kind:
//
//   - counters: delta-encoded — each window stores the increase over the
//     previous boundary, so a window's value is directly "events in this
//     window" and the series is non-negative by construction;
//   - gauges: the instantaneous value at the window boundary;
//   - histograms: the window's new-sample count (delta) plus the cumulative
//     p50/p99/p999 at the boundary.
//
// Cost contract, matching the tracer's: a platform without a sampler pays
// one nil check per kernel clock advance (the uninstalled epoch hook); with
// one attached, each window boundary is a fixed sweep over prebuilt closures
// into preallocated rings — zero allocations in steady state (hotalloc +
// TestTelemetryZeroAlloc). The sampler never schedules events, draws no
// randomness, and only reads the registry, so sampled and unsampled runs
// replay identically (the extended TestParallelDeterminism in internal/exp).
//
// The metric set is bound lazily at the first epoch — after platform
// assembly has finished registering — and is fixed from then on; rings keep
// the most recent MaxWindows windows, oldest overwritten first.
type Sampler struct {
	reg  *Registry
	prof *Profiler
	cfg  SampleConfig

	bound    bool
	counters []counterSeries
	gauges   []gaugeSeries
	hists    []histSeries

	ends  []sim.Time // window-end boundaries, ring
	head  int        // next ring slot to write
	n     int        // windows currently held (<= MaxWindows)
	fired uint64     // total windows sampled, including overwritten
}

// SampleConfig shapes a Sampler.
type SampleConfig struct {
	// Window is the sampling period in simulated time (default 100 µs).
	Window sim.Time
	// MaxWindows bounds each per-metric ring (default 512); once full, the
	// oldest window is overwritten — a series keeps the most recent span of
	// the run, exactly like the trace ring.
	MaxWindows int
}

func (c SampleConfig) withDefaults() SampleConfig {
	if c.Window <= 0 {
		c.Window = 100 * sim.Microsecond
	}
	if c.MaxWindows <= 0 {
		c.MaxWindows = 512
	}
	return c
}

type counterSeries struct {
	name string
	fn   func() uint64
	prev uint64
	ring []uint64 // per-window deltas
}

type gaugeSeries struct {
	name string
	fn   func() float64
	ring []float64 // boundary values
}

type histSeries struct {
	name      string
	h         *sim.LatencyStat
	prevCount uint64
	count     []uint64  // per-window new samples
	p50       []float64 // cumulative percentile at boundary, ns
	p99       []float64
	p999      []float64
}

// NewSampler returns a sampler over reg (and prof's utilization totals when
// prof is non-nil). Call Attach to start sampling.
func NewSampler(reg *Registry, prof *Profiler, cfg SampleConfig) *Sampler {
	return &Sampler{reg: reg, prof: prof, cfg: cfg.withDefaults()}
}

// Window returns the sampling period.
func (s *Sampler) Window() sim.Time { return s.cfg.Window }

// Windows returns how many windows the rings currently hold.
func (s *Sampler) Windows() int { return s.n }

// Fired returns the total number of windows sampled, including any that
// ring wraparound has overwritten.
func (s *Sampler) Fired() uint64 { return s.fired }

// Attach installs the sampler on k's epoch hook, first firing one window
// after the kernel's current time.
func (s *Sampler) Attach(k *sim.Kernel) {
	k.SetEpochHook(k.Now()+s.cfg.Window, s.onEpoch)
}

// onEpoch is the kernel hook: sample at the boundary, ask for the next one.
func (s *Sampler) onEpoch(boundary sim.Time) sim.Time {
	if !s.bound {
		s.bind()
	}
	s.sample(boundary)
	return boundary + s.cfg.Window
}

// bind fixes the metric set and preallocates every ring. It runs once, at
// the first window boundary — after RegisterMetrics has populated the
// registry — and is the only allocating step of the sampler's life.
func (s *Sampler) bind() {
	s.bound = true
	max := s.cfg.MaxWindows
	s.ends = make([]sim.Time, max)

	r := s.reg
	r.mu.Lock()
	for name, fn := range r.counters {
		s.counters = append(s.counters, counterSeries{name: name, fn: fn, ring: make([]uint64, max)})
	}
	for name, fn := range r.gauges {
		s.gauges = append(s.gauges, gaugeSeries{name: name, fn: fn, ring: make([]float64, max)})
	}
	for name, h := range r.hists {
		s.hists = append(s.hists, histSeries{
			name: name, h: h,
			count: make([]uint64, max),
			p50:   make([]float64, max), p99: make([]float64, max), p999: make([]float64, max),
		})
	}
	r.mu.Unlock()

	// The profiler's per-class cumulative totals join as synthetic counters:
	// delta-encoding them yields per-window utilization series for free.
	if p := s.prof; p != nil {
		for _, c := range []Class{ClassPA, ClassSched, ClassVM} {
			for st := 0; st < numProfStates; st++ {
				c, st := c, st
				s.counters = append(s.counters, counterSeries{
					name: "util." + c.String() + "." + profStateNames[st] + "_ps",
					fn:   func() uint64 { return uint64(p.classTotal[c][st]) },
					ring: make([]uint64, max),
				})
			}
		}
	}

	sort.Slice(s.counters, func(i, j int) bool { return s.counters[i].name < s.counters[j].name })
	sort.Slice(s.gauges, func(i, j int) bool { return s.gauges[i].name < s.gauges[j].name })
	sort.Slice(s.hists, func(i, j int) bool { return s.hists[i].name < s.hists[j].name })
}

// sample records one window ending at boundary. Fixed sweep over prebuilt
// closures into preallocated rings; nothing here may allocate (a counter
// reset between windows clamps to zero rather than going negative).
//
//optimus:hotpath
func (s *Sampler) sample(boundary sim.Time) {
	i := s.head
	s.ends[i] = boundary
	for ci := range s.counters {
		c := &s.counters[ci]
		v := c.fn()
		d := uint64(0)
		if v >= c.prev {
			d = v - c.prev
		}
		c.ring[i] = d
		c.prev = v
	}
	for gi := range s.gauges {
		g := &s.gauges[gi]
		g.ring[i] = g.fn()
	}
	for hi := range s.hists {
		h := &s.hists[hi]
		n := h.h.Count()
		d := uint64(0)
		if n >= h.prevCount {
			d = n - h.prevCount
		}
		h.count[i] = d
		h.prevCount = n
		h.p50[i] = h.h.Percentile(50).Nanoseconds()
		h.p99[i] = h.h.Percentile(99).Nanoseconds()
		h.p999[i] = h.h.Percentile(99.9).Nanoseconds()
	}
	s.head++
	if s.head == len(s.ends) {
		s.head = 0
	}
	if s.n < len(s.ends) {
		s.n++
	}
	s.fired++
}

// order returns ring indices oldest-first.
func (s *Sampler) order() []int {
	idx := make([]int, 0, s.n)
	start := 0
	if s.n == len(s.ends) {
		start = s.head
	}
	for i := 0; i < s.n; i++ {
		idx = append(idx, (start+i)%len(s.ends))
	}
	return idx
}

// JSON artifact schema (the -timeseries flag on optimus-sim/optimus-bench).

type tsSeries struct {
	Name   string    `json:"name"`
	Kind   string    `json:"kind"`
	Deltas []uint64  `json:"deltas,omitempty"` // counters
	Values []float64 `json:"values,omitempty"` // gauges
	Counts []uint64  `json:"counts,omitempty"` // histograms
	P50NS  []float64 `json:"p50_ns,omitempty"`
	P99NS  []float64 `json:"p99_ns,omitempty"`
	P999NS []float64 `json:"p999_ns,omitempty"`
}

type tsPlatform struct {
	Label          string     `json:"label"`
	WindowPS       int64      `json:"window_ps"`
	WindowsSampled uint64     `json:"windows_sampled"` // incl. overwritten
	Windows        []int64    `json:"windows"`         // window-end sim times, ps, oldest first
	Series         []tsSeries `json:"series"`
}

type tsArtifact struct {
	WindowPS  int64        `json:"window_ps"` // first platform's window, for gates
	Platforms []tsPlatform `json:"platforms"`
}

// export materializes the rings oldest-first.
func (s *Sampler) export(label string) tsPlatform {
	idx := s.order()
	p := tsPlatform{
		Label:          label,
		WindowPS:       int64(s.cfg.Window),
		WindowsSampled: s.fired,
		Windows:        make([]int64, 0, len(idx)),
	}
	for _, i := range idx {
		p.Windows = append(p.Windows, int64(s.ends[i]))
	}
	pick := func(ring []uint64) []uint64 {
		out := make([]uint64, 0, len(idx))
		for _, i := range idx {
			out = append(out, ring[i])
		}
		return out
	}
	pickF := func(ring []float64) []float64 {
		out := make([]float64, 0, len(idx))
		for _, i := range idx {
			out = append(out, ring[i])
		}
		return out
	}
	for ci := range s.counters {
		c := &s.counters[ci]
		p.Series = append(p.Series, tsSeries{Name: c.name, Kind: "counter", Deltas: pick(c.ring)})
	}
	for gi := range s.gauges {
		g := &s.gauges[gi]
		p.Series = append(p.Series, tsSeries{Name: g.name, Kind: "gauge", Values: pickF(g.ring)})
	}
	for hi := range s.hists {
		h := &s.hists[hi]
		p.Series = append(p.Series, tsSeries{Name: h.name, Kind: "histogram",
			Counts: pick(h.count), P50NS: pickF(h.p50), P99NS: pickF(h.p99), P999NS: pickF(h.p999)})
	}
	sort.Slice(p.Series, func(i, j int) bool { return p.Series[i].Name < p.Series[j].Name })
	return p
}

// WriteTimeseries renders every collected platform that carries a sampler
// into one -timeseries artifact, in collection order.
func (c *Collector) WriteTimeseries(w io.Writer) error {
	var ps []tsPlatform
	for _, p := range c.Platforms() {
		if p.Sampler == nil {
			continue
		}
		ps = append(ps, p.Sampler.export(p.Label))
	}
	art := tsArtifact{Platforms: ps}
	if len(ps) > 0 {
		art.WindowPS = ps[0].WindowPS
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(art)
}
