package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"optimus/internal/accel"
	"optimus/internal/hv"
	"optimus/internal/sim"
)

// runner owns one process's measurement state. Everything a workload does
// to the simulator goes through timed (a measured region) and span (a layer
// boundary inside one); the heap is read at point boundaries, outside every
// measured region. tr is nil in untraced runs, which makes every span call
// a no-op.
type runner struct {
	tr    *tracer
	point int // id of the point being run, for span attribution

	// Accumulators of the current pass.
	wall, setup time.Duration
	cpu         time.Duration
	heapPeak    uint64

	// Traced-run accumulators of the current pass: the simulated run phase
	// (host time, executed events, runtime/metrics deltas), the kernel's
	// pending depth sampled at epoch boundaries, and the in-situ timers of
	// calls too frequent to record as spans (the accelerator decorator's
	// methods and load.Worker.Launch).
	runHost    time.Duration
	runEvents  uint64
	rt         rtDelta
	pendingSum float64
	pendingN   float64
	acc        accelTimes
	launch     time.Duration
}

// resetPass clears the per-pass accumulators.
func (r *runner) resetPass() {
	tr := r.tr
	point := r.point
	*r = runner{tr: tr, point: point}
}

// timed runs fn as a measured region: its host wall and CPU time count
// toward the pass, and toward set-up when setup is true.
func (r *runner) timed(name string, setup bool, fn func() error) error {
	end := r.span(name)
	c0 := cpuTime()
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	r.cpu += cpuTime() - c0
	end()
	r.wall += d
	if setup {
		r.setup += d
	}
	return err
}

// noEnd is the span terminator of untraced runs.
func noEnd() {}

// span opens a layer span named after the public call it wraps and returns
// its terminator.
func (r *runner) span(name string) func() {
	if r.tr == nil {
		return noEnd
	}
	return r.tr.begin(name, r.point)
}

// simulate runs the kernel through fn as the point's run phase. In traced
// runs it also samples the kernel's pending depth once per simulated
// microsecond (the epoch hook neither schedules events nor perturbs their
// order) and takes runtime/metrics deltas around the phase.
func (r *runner) simulate(k *sim.Kernel, fn func() error) error {
	return r.timed("sim.Run", false, func() error {
		if r.tr == nil {
			return fn()
		}
		k.SetEpochHook(k.Now(), func(b sim.Time) sim.Time {
			r.pendingSum += float64(k.Pending())
			r.pendingN++
			return b + sim.Microsecond
		})
		ev0 := k.Executed()
		before := readRuntime()
		t0 := time.Now()
		err := fn()
		r.runHost += time.Since(t0)
		r.rt.add(before, readRuntime())
		r.runEvents += k.Executed() - ev0
		k.SetEpochHook(0, nil)
		return err
	})
}

// boundary ends a point: a forced GC, then the live heap, outside every
// measured region. Callers still hold the point's platform, so the reading
// includes it.
func (r *runner) boundary() {
	runtime.GC()
	if live := heapLive(); live > r.heapPeak {
		r.heapPeak = live
	}
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

var rtNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

// rtSample is one reading of rtNames.
type rtSample [4]float64

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var out rtSample
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

// rtDelta accumulates runtime/metrics differences over run phases.
type rtDelta struct{ allocs, bytes, gcCPU, totalCPU float64 }

func (d *rtDelta) add(a, b rtSample) {
	d.allocs += b[0] - a[0]
	d.bytes += b[1] - a[1]
	d.gcCPU += b[2] - a[2]
	d.totalCPU += b[3] - a[3]
}

func heapLive() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	return s[0].Value.Uint64()
}

// span is one recorded interval: a call into a layer's public API made by
// the benchmark, or a decorator method of the installed accelerator.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 at top level
	Point  int    `json:"point"`
}

// tracer keeps spans in memory; they are written out once the run ends.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // indices of open spans, innermost last
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, point int) func() {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	i := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Point: point})
	t.open = append(t.open, i)
	return func() {
		t.spans[i].End = int64(time.Since(t.t0))
		t.open = t.open[:len(t.open)-1]
	}
}

// total sums the durations of every span named name whose start is at or
// after from (an index into spans), in seconds.
func (t *tracer) total(name string, from int) float64 {
	var ns int64
	for _, s := range t.spans[from:] {
		if s.Name == name {
			ns += s.End - s.Start
		}
	}
	return float64(ns) / 1e9
}

// write stores the spans as one JSON array.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// accelTimes accumulates the decorator's in-situ timers.
type accelTimes struct {
	pump, state time.Duration
	pumpCalls   uint64
	depth       int // Pump re-entry depth: a completion can start the next job inside Pump
}

// timedLogic is the benchmark-owned accel.Logic decorator of traced runs:
// it forwards every call and times Pump and the preemption state
// save/restore. Only the outermost Pump of a nested chain is timed.
type timedLogic struct {
	accel.Logic
	t *accelTimes
}

func (l timedLogic) Pump(a *accel.Accel) {
	l.t.pumpCalls++
	if l.t.depth > 0 {
		l.Logic.Pump(a)
		return
	}
	l.t.depth++
	t0 := time.Now()
	l.Logic.Pump(a)
	l.t.pump += time.Since(t0)
	l.t.depth--
}

func (l timedLogic) SaveState() []byte {
	t0 := time.Now()
	b := l.Logic.SaveState()
	l.t.state += time.Since(t0)
	return b
}

func (l timedLogic) RestoreState(data []byte) error {
	t0 := time.Now()
	err := l.Logic.RestoreState(data)
	l.t.state += time.Since(t0)
	return err
}

// instrument replaces every slot's accelerator of a not-yet-started
// platform with the timing decorator around the same logic (traced runs
// only). The logic keeps any state padding already applied.
func (r *runner) instrument(h *hv.Hypervisor) error {
	if r.tr == nil {
		return nil
	}
	for i, pa := range h.Phys {
		if err := h.ReplaceAccel(i, accel.New(timedLogic{Logic: pa.Accel.Logic(), t: &r.acc})); err != nil {
			return err
		}
	}
	return nil
}

// digest is an FNV-1a hash of simulated results and exact counts.
type digest struct{ h hash.Hash64 }

func newDigest() digest { return digest{h: fnv.New64a()} }

func (d digest) add(vs ...uint64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], v)
		d.h.Write(b[:])
	}
}

func (d digest) bytes(b []byte) { d.h.Write(b) }

func (d digest) sum() uint64 { return d.h.Sum64() }

// platformCounts are the exact counts every point reads off its platform.
type platformCounts struct {
	events, hypercalls, switches, preemptions, grows uint64
	iotlbHits, iotlbMisses, iotlbFaults              uint64
	reads, writes, bytes, shellFaults, dmaRequests   uint64
	violation                                        uint64
	cowBreaks, resident, shared                      uint64
}

// countsOf reads the exact counts of a finished point. resident and shared
// are the caller's acquisition-time samples.
func countsOf(h *hv.Hypervisor) platformCounts {
	st := h.Stats()
	io := h.Shell.IOMMU.Stats()
	sh := h.Shell.Stats()
	c := platformCounts{
		events:      h.K.Executed(),
		hypercalls:  st.Hypercalls,
		switches:    st.ContextSwitches,
		grows:       st.ElasticGrows,
		iotlbHits:   io.Hits + io.SpecHits,
		iotlbMisses: io.Misses,
		iotlbFaults: io.Faults,
		reads:       sh.Reads,
		writes:      sh.Writes,
		bytes:       sh.BytesRead + sh.BytesWritten,
		shellFaults: sh.Faults,
		cowBreaks:   h.Mem.CoWBreaks(),
	}
	for i := range h.Phys {
		c.preemptions += h.Scheduler(i).Preemptions()
	}
	if h.Monitor != nil {
		ms := h.Monitor.Stats()
		c.dmaRequests = ms.DMARequests
		c.violation = ms.RangeViolations
	}
	return c
}

// addTo sums c's simulated counts into t.
func (c *platformCounts) addTo(t *platformCounts) {
	t.events += c.events
	t.hypercalls += c.hypercalls
	t.switches += c.switches
	t.preemptions += c.preemptions
	t.grows += c.grows
	t.iotlbHits += c.iotlbHits
	t.iotlbMisses += c.iotlbMisses
	t.iotlbFaults += c.iotlbFaults
	t.reads += c.reads
	t.writes += c.writes
	t.bytes += c.bytes
	t.shellFaults += c.shellFaults
	t.dmaRequests += c.dmaRequests
	t.violation += c.violation
	t.cowBreaks += c.cowBreaks
	t.resident = max(t.resident, c.resident) // the largest point's footprint
}

// fold adds the simulated counts to d (resident/shared are host-side
// footprint, not simulated results, and stay out).
func (c *platformCounts) fold(d digest) {
	d.add(c.events, c.hypercalls, c.switches, c.preemptions, c.grows,
		c.iotlbHits, c.iotlbMisses, c.iotlbFaults, c.reads, c.writes, c.bytes,
		c.shellFaults, c.dmaRequests, c.violation, c.cowBreaks)
}

// isolation checks the counters that must stay zero on a healthy run.
func (c *platformCounts) isolation() error {
	if c.violation != 0 || c.shellFaults != 0 || c.iotlbFaults != 0 {
		return fmt.Errorf("hwmon.range_violations=%d shell.faults=%d iommu.faults=%d, want 0",
			c.violation, c.shellFaults, c.iotlbFaults)
	}
	return nil
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
