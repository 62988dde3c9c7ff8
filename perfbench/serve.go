package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"optimus/internal/accel"
	"optimus/internal/guest"
	"optimus/internal/hv"
	"optimus/internal/load"
	"optimus/internal/sim"
)

// The serve workload: an open loop of Poisson, Markov-bursty and
// token-bucket tenants of read-only MemBench requests on a 4 KB-page
// platform, in the shape of UltraShare-style elastic serving. Each tenant's
// working set exceeds the 2 MB IOTLB reach, so translations miss and walk.
// Three tenants own a slot each; each also has a standby on a shared spare
// slot that the elastic controller grows onto under backlog. Every point
// runs one fixed offered-load multiplier on a clone of one template.
var serveMults = []float64{0.5, 0.8, 1.1, 1.4}

const (
	serveRefMult   = 0.8 // the load the latency metrics are reported at
	serveTenants   = 3
	serveWS        = 4 << 20 // per device
	serveBursts    = 32      // MemBench bursts per request
	serveBatchMax  = 4
	serveQueueCap  = 256
	serveSLO       = 500 * sim.Microsecond
	serveGrowCost  = 150 * sim.Microsecond
	serveHorizon   = 48 * sim.Millisecond
	serveDrain     = 4 * sim.Millisecond
	serveWindow    = sim.Millisecond
	serveReservoir = 1 << 16 // holds every sample of a point, so percentiles are exact

	servePoissonRate = 20000.0  // steady tenants, requests/s at x1
	serveBurstRate   = 150000.0 // bursty tenant's on-phase rate at x1
	serveTokenRate   = 25000.0  // token-bucket tenant's admission rate, fixed across loads
	// Short dwells give each point hundreds of bursts, so the offered work
	// of a point, and the host time to serve it, varies little by seed.
	serveMeanOn  = 50 * sim.Microsecond
	serveMeanOff = 150 * sim.Microsecond
)

type serve struct {
	platformSeed uint64
	devSeeds     []uint64   // MemBench seeds, homes then standbys
	streamSeeds  [][]uint64 // [point][tenant]
	block        []byte     // working-set contents
}

func newServe(seed uint64) *serve {
	rng := sim.NewRand(seed ^ 0x5e7e)
	w := &serve{platformSeed: rng.Uint64(), block: make([]byte, serveWS)}
	rng.Fill(w.block)
	for i := 0; i < 2*serveTenants; i++ {
		w.devSeeds = append(w.devSeeds, rng.Uint64())
	}
	for range serveMults {
		seeds := make([]uint64, serveTenants)
		for i := range seeds {
			seeds[i] = rng.Uint64()
		}
		w.streamSeeds = append(w.streamSeeds, seeds)
	}
	return w
}

func (w *serve) pageSize() uint64 { return 4 << 10 }

func (w *serve) pass(r *runner) []outcome {
	outs := make([]outcome, len(serveMults))
	var tmpl *hv.Hypervisor
	var tdevs []*guest.Device
	err := r.timed("setup", true, func() error {
		var err error
		tmpl, tdevs, err = w.build(r)
		return err
	})
	for i, mult := range serveMults {
		if err != nil {
			outs[i] = r.newPoint(fmt.Sprintf("x%.1f", mult))
			outs[i].err = err
			continue
		}
		outs[i] = w.point(r, i, tmpl, tdevs)
	}
	return outs
}

// build assembles the template: home tenants on slots 0..n-1 and one
// standby per tenant, in its own process of the tenant's VM, on the spare
// slot n. Devices are returned in creation order.
func (w *serve) build(r *runner) (*hv.Hypervisor, []*guest.Device, error) {
	accels := make([]string, serveTenants+1)
	for i := range accels {
		accels[i] = "MB"
	}
	h, err := newPlatform(r, hv.Config{Accels: accels, PageSize: w.pageSize(), Seed: w.platformSeed})
	if err != nil {
		return nil, nil, err
	}
	var devs []*guest.Device
	for i := 0; i < serveTenants; i++ {
		end := r.span("hv.provision")
		vm, err := h.NewVM(fmt.Sprintf("tenant-%d", i), 10<<30)
		var home, standby *guest.Device
		if err == nil {
			home, err = openDevice(h, vm.NewProcess(), i)
		}
		if err == nil {
			standby, err = openDevice(h, vm.NewProcess(), serveTenants)
		}
		end()
		if err != nil {
			return nil, nil, err
		}
		for j, dev := range []*guest.Device{home, standby} {
			if err := w.provision(r, dev, w.devSeeds[2*i+j]); err != nil {
				return nil, nil, err
			}
			devs = append(devs, dev)
		}
	}
	return h, devs, nil
}

// provision writes a device's working set and programs a read-only
// MemBench job; the burst count is rewritten per launch. Standbys share the
// spare slot and are preempted by design, so every device gets a state
// buffer.
func (w *serve) provision(r *runner, dev *guest.Device, seed uint64) error {
	buf, err := input(r, dev, w.block)
	if err != nil {
		return err
	}
	if err := regs(r, dev, reg{accel.MBArgBase, uint64(buf.Addr)}, reg{accel.MBArgSize, serveWS},
		reg{accel.MBArgBursts, serveBursts}, reg{accel.MBArgWritePct, 0}, reg{accel.MBArgSeed, seed}); err != nil {
		return err
	}
	end := r.span("hv.provision")
	defer end()
	_, err = dev.SetupStateBuffer()
	return err
}

// worker adapts one guest device to load.Worker: a batch of n requests is
// one MemBench job of n*serveBursts bursts.
type worker struct {
	r      *runner
	h      *hv.Hypervisor
	dev    *guest.Device
	done   func(failed bool)
	onDone func()
}

func (wk *worker) Bind(done func(failed bool)) {
	wk.done = done
	wk.onDone = func() { wk.done(wk.dev.VAccel().Failed() != nil) }
}

func (wk *worker) Launch(n int) error {
	if wk.r.tr != nil {
		t0 := time.Now()
		defer func() { wk.r.launch += time.Since(t0) }()
	}
	if err := wk.dev.RegWrite(accel.MBArgBursts, serveBursts*uint64(n)); err != nil {
		return err
	}
	if err := wk.dev.Start(); err != nil {
		return err
	}
	// After Start: OnDone on an idle device fires at once.
	wk.dev.OnDone(wk.onDone)
	return nil
}

// Grow activates the standby's claim on the spare slot. A refused grow
// leaves the ready callback unfired, holding the stream in "growing".
func (wk *worker) Grow(ready func()) { _ = wk.h.ElasticGrow(wk.dev.VAccel(), serveGrowCost, ready) }

func (wk *worker) Shrink() { wk.h.ElasticShrink(wk.dev.VAccel()) }

// serveResult is one point's request accounting and latency samples.
type serveResult struct {
	mult                         float64
	offered, dropped, dispatched uint64
	completed, failed, queued    uint64
	latencies                    []sim.Time // every completed request's latency, sorted
}

// refused counts requests that count as beyond any latency limit.
func (s *serveResult) refused() uint64 { return s.dropped + s.failed }

// percentile is the nearest-rank p-th percentile over completed, dropped
// and failed requests, the last two counting as infinitely late.
func (s *serveResult) percentile(p float64) float64 {
	n := uint64(len(s.latencies)) + s.refused()
	if n == 0 {
		return math.Inf(1)
	}
	rank := uint64(math.Ceil(p / 100 * float64(n)))
	if rank == 0 {
		rank = 1
	}
	if rank > uint64(len(s.latencies)) {
		return math.Inf(1)
	}
	return float64(s.latencies[rank-1]) / float64(sim.Microsecond)
}

// inSLO counts completed requests no later than the SLO.
func (s *serveResult) inSLO() int {
	return sort.Search(len(s.latencies), func(i int) bool { return s.latencies[i] > serveSLO })
}

func (w *serve) streams(pi int) []load.StreamConfig {
	mult, seeds := serveMults[pi], w.streamSeeds[pi]
	return []load.StreamConfig{
		{
			Name: "bursty",
			Arrivals: load.ArrivalSpec{Kind: load.Bursty, RatePerSec: serveBurstRate * mult,
				MeanOn: serveMeanOn, MeanOff: serveMeanOff},
			Seed: seeds[0],
		},
		{
			Name:     "steady",
			Arrivals: load.ArrivalSpec{Kind: load.Poisson, RatePerSec: servePoissonRate * mult},
			Seed:     seeds[1],
		},
		{
			Name:            "limited",
			Arrivals:        load.ArrivalSpec{Kind: load.Poisson, RatePerSec: servePoissonRate * mult},
			Seed:            seeds[2],
			Policy:          load.TokenBucket,
			TokenRatePerSec: serveTokenRate,
			TokenBurst:      32,
		},
	}
}

func (w *serve) point(r *runner, pi int, tmpl *hv.Hypervisor, tdevs []*guest.Device) outcome {
	mult := serveMults[pi]
	out := r.newPoint(fmt.Sprintf("x%.1f", mult))
	var h *hv.Hypervisor
	var devs []*guest.Device
	var eng *load.Engine
	var streams []*load.Stream
	out.err = r.timed("setup", true, func() error {
		var err error
		if h, devs, err = cloneTenants(r, tmpl, tdevs); err != nil {
			return err
		}
		if err := r.instrument(h); err != nil {
			return err
		}
		eng = load.NewEngine(h.K, serveWindow, serveHorizon)
		for i, sc := range w.streams(pi) {
			sc.QueueCap = serveQueueCap
			sc.BatchMax = serveBatchMax
			sc.SLO = serveSLO
			sc.ReservoirCap = serveReservoir
			// Grow at a queue of 12, shrink after 3 windows at 2 or less.
			sc.Elastic = load.ElasticConfig{HighWater: 12, LowWater: 2, LowStreak: 3}
			st := eng.AddStream(sc)
			st.AddWorker(&worker{r: r, h: h, dev: devs[2*i]})
			st.AddElasticWorker(&worker{r: r, h: h, dev: devs[2*i+1]})
			streams = append(streams, st)
		}
		return nil
	})
	if out.err != nil {
		return out
	}
	out.acquired(h)
	out.err = r.simulate(h.K, func() error {
		eng.Attach()
		h.K.RunUntil(serveHorizon + serveDrain)
		return nil
	})
	out.finish(h)
	res := &serveResult{mult: mult}
	for _, st := range streams {
		if out.err == nil {
			out.err = conserved(st)
		}
		res.offered += st.Offered()
		res.dropped += st.Dropped()
		res.dispatched += st.Dispatched()
		res.completed += st.Completed()
		res.failed += st.Failed()
		res.queued += uint64(st.QueueDepth())
		xs, err := samples(st.Latency())
		if out.err == nil {
			out.err = err
		}
		res.latencies = append(res.latencies, xs...)
		out.digest.add(st.Offered(), st.Admitted(), st.Dropped(), st.Completed(), st.Failed(),
			st.Grows(), st.Shrinks(), uint64(st.QueueDepth()))
	}
	sort.Slice(res.latencies, func(i, j int) bool { return res.latencies[i] < res.latencies[j] })
	for _, l := range res.latencies {
		out.digest.add(uint64(l))
	}
	if out.err == nil && uint64(len(res.latencies)) != res.completed {
		out.err = fmt.Errorf("%d latency samples for %d completed requests", len(res.latencies), res.completed)
	}
	if out.err == nil {
		out.err = w.checkDevices(devs)
	}
	out.serve = res
	r.end(h)
	return out
}

// conserved checks a stream's request accounting: offered = admitted +
// dropped, and admitted = completed + failed + queued, where queued is
// what waits in the admission queue or in an unfinished batch.
func conserved(st *load.Stream) error {
	inflight := int64(st.Dispatched()) - int64(st.Completed()+st.Failed())
	if st.Offered() != st.Admitted()+st.Dropped() || inflight < 0 ||
		st.Admitted() != st.Dispatched()+uint64(st.QueueDepth()) {
		return fmt.Errorf("stream %s does not conserve requests: offered %d admitted %d dropped %d dispatched %d completed %d failed %d queued %d",
			st.Name(), st.Offered(), st.Admitted(), st.Dropped(), st.Dispatched(), st.Completed(), st.Failed(), st.QueueDepth())
	}
	return nil
}

func (w *serve) checkDevices(devs []*guest.Device) error {
	for i, d := range devs {
		if err := d.VAccel().Failed(); err != nil {
			return fmt.Errorf("device %d failed: %w", i, err)
		}
	}
	return nil
}

// samples recovers every latency sample of a stat whose reservoir never
// evicted (Count() <= its capacity): Percentile indexes the sorted
// reservoir at int(p/100*(n-1)), so the midpoint rank of each index picks
// exactly that sample. The recovered set is checked against the stat's
// exact minimum, maximum and mean.
func samples(s *sim.LatencyStat) ([]sim.Time, error) {
	n := int(s.Count())
	if n == 0 {
		return nil, nil
	}
	if n > serveReservoir {
		return nil, fmt.Errorf("%d latency samples overflow the %d-sample reservoir", n, serveReservoir)
	}
	ps := make([]float64, n)
	for i := range ps {
		ps[i] = 100 * (float64(i) + 0.5) / float64(max(n-1, 1))
	}
	xs := s.Percentiles(ps...)
	var sum sim.Time
	for _, x := range xs {
		sum += x
	}
	if xs[0] != s.Min() || xs[n-1] != s.Max() || sum/sim.Time(n) != s.Mean() {
		return nil, fmt.Errorf("recovered latency samples do not match the stat's min, max and mean")
	}
	return xs, nil
}

func (w *serve) simMetrics(outs []outcome) []metric {
	var ms []metric
	maxLoad := 0.0
	for _, o := range outs {
		s := o.serve
		if s == nil {
			continue
		}
		p99 := s.percentile(99)
		if p99 <= float64(serveSLO)/float64(sim.Microsecond) && s.queued == 0 && s.dispatched == s.completed+s.failed {
			maxLoad = math.Max(maxLoad, s.mult)
		}
		if s.mult != serveRefMult {
			continue
		}
		secs := (serveHorizon + serveDrain).Seconds()
		ms = append(ms,
			metric{"p50_us", s.percentile(50), "us"},
			metric{"p99_us", p99, "us"},
			metric{"latency_samples", float64(uint64(len(s.latencies)) + s.refused()), "count"},
			metric{"goodput_rps", float64(s.inSLO()) / secs, "1/s"})
	}
	ms = append(ms, metric{"max_load_in_slo", maxLoad, "x"}, simGBps(outs))
	return ms
}
