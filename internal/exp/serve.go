package exp

import (
	"encoding/json"
	"fmt"
	"io"

	"optimus/internal/accel"
	"optimus/internal/guest"
	"optimus/internal/hv"
	"optimus/internal/load"
	"optimus/internal/obs"
	"optimus/internal/sim"
)

// The serve experiment: open-loop tail latency under multi-tenant serving.
//
// OPTIMUS's evaluation runs each accelerator to completion; a serving
// deployment instead sees an endless request stream and is judged by tail
// latency against an SLO. This experiment drives the platform with
// internal/load's open-loop traffic engine: three tenants on their own
// MemBench slots, each fronted by a bounded admission queue, swept across
// offered-load multipliers in two modes. "static" gives each tenant exactly
// its home slot; "elastic" additionally provisions a standby virtual
// accelerator per tenant on a shared spare slot, grown and shrunk by the
// queue-depth controller (UltraShare-style elastic slicing), paying a real
// preemption handshake plus a reprovisioning delay on every grow.
//
// Tenant 0 ("bursty") is the story: a Markov-modulated on/off process whose
// on-phase rate far exceeds one slot's service capacity, so its queue — and
// its p999 — grows during every burst. The elastic controller detects the
// swell and borrows the spare slot for the duration of the burst; the p999
// gap between the two modes at the same offered load is the value of
// elasticity, net of its reallocation disruption.

// Serve topology and traffic shape. Rates were calibrated against the
// simulator's MemBench service time: one launch costs ~40us end to end
// (dominated by the in-flight window round trip), so a single slot serves
// ~25k launches/s unbatched; coalescing up to serveBatchMax requests per
// launch raises the ceiling under backlog.
const (
	serveTenants  = 3
	serveWS       = 1 << 20 // per-device MemBench working set
	serveBursts   = 64      // MB bursts per request
	serveBatchMax = 4
	serveQueueCap = 256
	serveSLO      = 500 * sim.Microsecond
	serveGrowCost = 150 * sim.Microsecond

	servePoissonRate = 15000.0  // steady tenants, req/s at x1.0
	serveBurstRate   = 180000.0 // bursty tenant's on-phase rate at x1.0
	serveMeanOn      = 2 * sim.Millisecond
	serveMeanOff     = 6 * sim.Millisecond
)

// serveElastic is the queue-depth controller config shared by every stream
// in elastic mode.
var serveElastic = load.ElasticConfig{HighWater: 12, LowWater: 2, LowStreak: 3}

// vaccelWorker adapts one guest device to load.Worker: a batch of n
// requests is one MemBench job of serveBursts*n bursts. The completion
// callback is prebuilt in Bind so the steady-state launch path allocates no
// closures; failure is read off the vaccel at completion time.
type vaccelWorker struct {
	h      *hv.Hypervisor
	dev    *guest.Device
	done   func(failed bool)
	onDone func()
}

func (w *vaccelWorker) Bind(done func(failed bool)) {
	w.done = done
	w.onDone = func() { w.done(w.dev.VAccel().Failed() != nil) }
}

func (w *vaccelWorker) Launch(n int) error {
	if err := w.dev.RegWrite(accel.MBArgBursts, serveBursts*uint64(n)); err != nil {
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
func (w *vaccelWorker) Grow(ready func()) {
	if err := w.h.ElasticGrow(w.dev.VAccel(), serveGrowCost, ready); err != nil {
		return
	}
}

func (w *vaccelWorker) Shrink() { w.h.ElasticShrink(w.dev.VAccel()) }

// provisionServeMB sizes a device for serving: working-set buffer, MemBench
// registers (bursts are rewritten per launch), and the preemption state
// buffer — standbys share the spare slot and are preempted by design, and
// a device without a state buffer cannot be resumed.
func provisionServeMB(dev *guest.Device, seed uint64) error {
	buf, err := dev.AllocDMA(serveWS)
	if err != nil {
		return err
	}
	dev.RegWrite(accel.MBArgBase, uint64(buf.Addr))
	dev.RegWrite(accel.MBArgSize, serveWS)
	dev.RegWrite(accel.MBArgBursts, serveBursts)
	dev.RegWrite(accel.MBArgWritePct, 0)
	dev.RegWrite(accel.MBArgSeed, seed)
	if _, err := dev.SetupStateBuffer(); err != nil {
		return err
	}
	return nil
}

// servePlatform is the serve topology's harness state: the home tenants
// and one standby device per tenant.
type servePlatform struct {
	tenants  []*tenant
	standbys []*guest.Device
}

// buildServe provisions the serve topology: n home tenants on slots
// 0..n-1 plus one standby device per tenant on the shared spare slot n,
// every device provisioned and state-buffered. Standbys live in their own
// process (two devices must never share a process's DMA arena) inside the
// tenant's VM, so their traffic bills to the right guest.
func buildServe(h *hv.Hypervisor, n int) (servePlatform, error) {
	tenants, err := newTenants(h, n)
	if err != nil {
		return servePlatform{}, err
	}
	standbys := make([]*guest.Device, n)
	for i, tn := range tenants {
		if err := provisionServeMB(tn.dev, uint64(100+i)); err != nil {
			return servePlatform{}, err
		}
		proc := tn.vm.NewProcess()
		va, err := h.NewVAccel(proc, n)
		if err != nil {
			return servePlatform{}, err
		}
		dev, err := guest.Open(proc, va)
		if err != nil {
			return servePlatform{}, err
		}
		if err := provisionServeMB(dev, uint64(200+i)); err != nil {
			return servePlatform{}, err
		}
		standbys[i] = dev
	}
	return servePlatform{tenants, standbys}, nil
}

// cloneServe re-wraps a serve template's handles around a clone: the home
// tenants sit alone on slots 0..n-1 (cloneTenants); the standbys all share
// the spare slot, in tenant order — hv.Clone rebuilds each slot's vaccels
// in attach order, so creation order recovers them.
func cloneServe(t servePlatform, h *hv.Hypervisor) (servePlatform, error) {
	tenants, err := cloneTenants(t.tenants, h)
	if err != nil {
		return servePlatform{}, err
	}
	n := len(t.standbys)
	vas := h.Phy(n).VAccels()
	if len(vas) != n {
		return servePlatform{}, fmt.Errorf("exp: serve clone spare slot has %d vaccels, want %d", len(vas), n)
	}
	standbys := make([]*guest.Device, n)
	for i, tdev := range t.standbys {
		standbys[i] = tdev.CloneFor(vas[i].Process(), vas[i])
	}
	return servePlatform{tenants, standbys}, nil
}

// ServeStreamPoint is one tenant's outcome at one load point.
type ServeStreamPoint struct {
	Name          string  `json:"name"`
	Offered       uint64  `json:"offered"`
	Admitted      uint64  `json:"admitted"`
	Dropped       uint64  `json:"dropped"`
	Dispatched    uint64  `json:"dispatched"`
	Completed     uint64  `json:"completed"`
	Failed        uint64  `json:"failed"`
	Batches       uint64  `json:"batches"`
	Grows         uint64  `json:"grows"`
	Shrinks       uint64  `json:"shrinks"`
	P50Ns         uint64  `json:"p50_ns"`
	P99Ns         uint64  `json:"p99_ns"`
	P999Ns        uint64  `json:"p999_ns"`
	SLOViolations uint64  `json:"slo_violations"`
	ViolationPct  float64 `json:"violation_pct"`
}

// ServePoint is one (mode, offered-load) sweep point: aggregate admission
// and goodput accounting, the bursty tenant's latency percentiles, and the
// traffic engine's determinism digest.
type ServePoint struct {
	Mode          string             `json:"mode"`
	Mult          float64            `json:"mult"`
	OfferedPerSec float64            `json:"offered_per_sec"`
	GoodputPerSec float64            `json:"goodput_per_sec"`
	Offered       uint64             `json:"offered"`
	Admitted      uint64             `json:"admitted"`
	Dropped       uint64             `json:"dropped"`
	Completed     uint64             `json:"completed"`
	Failed        uint64             `json:"failed"`
	P50Ns         uint64             `json:"p50_ns"`
	P99Ns         uint64             `json:"p99_ns"`
	P999Ns        uint64             `json:"p999_ns"`
	ViolationPct  float64            `json:"violation_pct"`
	Grows         uint64             `json:"grows"`
	Shrinks       uint64             `json:"shrinks"`
	Digest        string             `json:"digest"`
	Streams       []ServeStreamPoint `json:"streams"`
}

// runServePoint executes one sweep point and reduces it to a ServePoint.
func (s *Session) runServePoint(mult float64, elastic bool) (ServePoint, error) {
	horizon := 80 * sim.Millisecond
	if s.o.Scale == ScaleFull {
		horizon = 320 * sim.Millisecond
	}
	drain := 12 * sim.Millisecond
	window := sim.Millisecond

	accels := make([]string, serveTenants+1)
	for i := range accels {
		accels[i] = "MB"
	}
	h, plat, err := acquire(s, hv.Config{Accels: accels}, "serve",
		func(h *hv.Hypervisor) (servePlatform, error) { return buildServe(h, serveTenants) },
		cloneServe)
	if err != nil {
		return ServePoint{}, err
	}

	eng := load.NewEngine(h.K, window, horizon)
	specs := []load.StreamConfig{
		{
			Name: "bursty",
			Arrivals: load.ArrivalSpec{
				Kind:       load.Bursty,
				RatePerSec: serveBurstRate * mult,
				MeanOn:     serveMeanOn,
				MeanOff:    serveMeanOff,
			},
			Seed: 0x5e5e0001,
		},
		{
			Name:     "steady",
			Arrivals: load.ArrivalSpec{Kind: load.Poisson, RatePerSec: servePoissonRate * mult},
			Seed:     0x5e5e0002,
		},
		{
			Name:            "limited",
			Arrivals:        load.ArrivalSpec{Kind: load.Poisson, RatePerSec: servePoissonRate * mult},
			Seed:            0x5e5e0003,
			Policy:          load.TokenBucket,
			TokenRatePerSec: servePoissonRate * mult * 0.9,
			TokenBurst:      32,
		},
	}
	streams := make([]*load.Stream, serveTenants)
	for i, sc := range specs {
		sc.QueueCap = serveQueueCap
		sc.BatchMax = serveBatchMax
		sc.SLO = serveSLO
		if elastic {
			sc.Elastic = serveElastic
		}
		st := eng.AddStream(sc)
		st.AddWorker(&vaccelWorker{h: h, dev: plat.tenants[i].dev})
		if elastic {
			st.AddElasticWorker(&vaccelWorker{h: h, dev: plat.standbys[i]})
		}
		st.SetTrace(h.Trace(), obs.VM(plat.tenants[i].vm.ID))
		streams[i] = st
	}
	if reg := h.Config().Metrics; reg != nil {
		eng.RegisterMetrics(reg)
	}
	eng.Attach()
	h.K.RunUntil(horizon + drain)

	mode := "static"
	if elastic {
		mode = "elastic"
	}
	p := ServePoint{
		Mode:   mode,
		Mult:   mult,
		Digest: fmt.Sprintf("%016x", eng.EngineDigest()),
	}
	secs := float64(horizon) / float64(sim.Second)
	elapsed := float64(horizon+drain) / float64(sim.Second)
	for i, st := range streams {
		lat := st.Latency()
		sp := ServeStreamPoint{
			Name:          st.Name(),
			Offered:       st.Offered(),
			Admitted:      st.Admitted(),
			Dropped:       st.Dropped(),
			Dispatched:    st.Dispatched(),
			Completed:     st.Completed(),
			Failed:        st.Failed(),
			Batches:       st.Batches(),
			Grows:         st.Grows(),
			Shrinks:       st.Shrinks(),
			P50Ns:         uint64(lat.Percentile(50) / sim.Nanosecond),
			P99Ns:         uint64(lat.Percentile(99) / sim.Nanosecond),
			P999Ns:        uint64(lat.Percentile(99.9) / sim.Nanosecond),
			SLOViolations: lat.ViolationsAbove(serveSLO),
		}
		// A request misses the SLO by being slow, being dropped at
		// admission, or failing outright; the denominator is everything the
		// tenant offered. Requests still queued at the end of the drain are
		// excluded — they were neither served nor refused.
		if sp.Offered > 0 {
			sp.ViolationPct = 100 * float64(sp.SLOViolations+sp.Dropped+sp.Failed) / float64(sp.Offered)
		}
		p.Offered += sp.Offered
		p.Admitted += sp.Admitted
		p.Dropped += sp.Dropped
		p.Completed += sp.Completed
		p.Failed += sp.Failed
		p.Grows += sp.Grows
		p.Shrinks += sp.Shrinks
		if i == 0 { // the bursty tenant is the headline latency series
			p.P50Ns, p.P99Ns, p.P999Ns = sp.P50Ns, sp.P99Ns, sp.P999Ns
		}
		p.Streams = append(p.Streams, sp)
	}
	p.OfferedPerSec = float64(p.Offered) / secs
	p.GoodputPerSec = float64(p.Completed) / elapsed
	var viol, denom uint64
	for _, sp := range p.Streams {
		viol += sp.SLOViolations + sp.Dropped + sp.Failed
		denom += sp.Offered
	}
	if denom > 0 {
		p.ViolationPct = 100 * float64(viol) / float64(denom)
	}
	return p, nil
}

// ServeCurve sweeps offered load across static and elastic modes and
// renders the SLO curve table. The full point set (including per-stream
// breakdowns and digests) is kept on the session for Result.Serve.
func (s *Session) ServeCurve() (*Table, error) {
	mults := []float64{0.5, 0.8, 1.1, 1.4}
	if s.o.Scale == ScaleFull {
		mults = []float64{0.3, 0.5, 0.8, 1.1, 1.4, 1.7}
	}
	points := make([]ServePoint, len(mults)*2)
	err := s.points(len(points), func(i int) error {
		mult := mults[i/2]
		elastic := i%2 == 1
		p, err := s.runServePoint(mult, elastic)
		if err != nil {
			return fmt.Errorf("serve x%.1f %v: %w", mult, elastic, err)
		}
		points[i] = p
		return nil
	})
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.serve = points
	s.mu.Unlock()

	t := &Table{
		ID:    "serve",
		Title: fmt.Sprintf("Open-loop serving: tail latency vs offered load (SLO %v)", serveSLO),
		Header: []string{"Load", "Mode", "Offered/s", "Goodput/s", "Dropped", "Failed",
			"t0 p50us", "t0 p99us", "t0 p999us", "Viol%", "Grows", "Shrinks"},
		Notes: []string{
			fmt.Sprintf("%d MemBench tenants on private slots + 1 spare; tenant 0 is Markov-modulated on/off (%v on / %v off).", serveTenants, serveMeanOn, serveMeanOff),
			"static: home slot only; elastic: queue-depth controller grows a standby vaccel onto the spare slot (preempt + reprovision cost per grow).",
			"Viol% counts SLO-late, dropped, and failed requests over offered; latency columns are the bursty tenant's percentiles.",
		},
	}
	for _, p := range points {
		t.AddRow(
			fmt.Sprintf("x%.1f", p.Mult), p.Mode,
			fmt.Sprintf("%.0f", p.OfferedPerSec),
			fmt.Sprintf("%.0f", p.GoodputPerSec),
			fmt.Sprintf("%d", p.Dropped),
			fmt.Sprintf("%d", p.Failed),
			fmt.Sprintf("%.1f", float64(p.P50Ns)/1e3),
			fmt.Sprintf("%.1f", float64(p.P99Ns)/1e3),
			fmt.Sprintf("%.1f", float64(p.P999Ns)/1e3),
			fmtPct(p.ViolationPct),
			fmt.Sprintf("%d", p.Grows),
			fmt.Sprintf("%d", p.Shrinks),
		)
	}
	return t, nil
}

// WriteServeJSON writes a serve run's points (Result.Serve) as a JSON
// artifact: the armed SLO and every sweep point with per-stream breakdowns.
func WriteServeJSON(w io.Writer, points []ServePoint) error {
	if points == nil {
		return fmt.Errorf("exp: no serve run recorded (run the serve experiment first)")
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		SLONs  uint64       `json:"slo_ns"`
		Points []ServePoint `json:"points"`
	}{uint64(serveSLO / sim.Nanosecond), points})
}
