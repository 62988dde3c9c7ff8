package load

import (
	"math"
	"testing"

	"optimus/internal/obs"
	"optimus/internal/sim"
)

// fakeWorker services batches after a fixed per-request delay. The
// completion event closure is prebuilt in Bind so the dispatch path stays
// allocation-free (the same discipline real vaccel-backed workers follow).
type fakeWorker struct {
	k        *sim.Kernel
	svc      sim.Time // service time per request in a batch
	done     func(bool)
	fire     func()
	launches int
	failNext bool
}

func (w *fakeWorker) Bind(done func(failed bool)) {
	w.done = done
	w.fire = func() { w.done(w.failNext) }
}

func (w *fakeWorker) Launch(n int) error {
	w.launches++
	w.k.After(w.svc*sim.Time(n), w.fire)
	return nil
}

// fakeElastic wraps fakeWorker with grow/shrink bookkeeping and a modeled
// reprovisioning delay before ready fires.
type fakeElastic struct {
	fakeWorker
	growCost sim.Time
	grows    int
	shrinks  int
}

func (w *fakeElastic) Grow(ready func()) {
	w.grows++
	w.k.After(w.growCost, ready)
}

func (w *fakeElastic) Shrink() { w.shrinks++ }

func TestPoissonMeanRate(t *testing.T) {
	src := newSource(ArrivalSpec{Kind: Poisson, RatePerSec: 10000}, 7)
	n := 0
	for {
		at, ok := src.next()
		if !ok || at >= sim.Second {
			break
		}
		n++
	}
	if n < 9500 || n > 10500 {
		t.Fatalf("Poisson(10k/s) produced %d arrivals in 1s, want ~10000", n)
	}
}

func TestBurstyMeanRate(t *testing.T) {
	// On-rate 20k/s, 50% duty cycle => mean 10k/s.
	src := newSource(ArrivalSpec{
		Kind: Bursty, RatePerSec: 20000,
		MeanOn: 5 * sim.Millisecond, MeanOff: 5 * sim.Millisecond,
	}, 11)
	n := 0
	var last sim.Time
	for {
		at, ok := src.next()
		if !ok || at >= 10*sim.Second {
			break
		}
		if at < last {
			t.Fatalf("bursty arrivals went backwards: %v after %v", at, last)
		}
		last = at
		n++
	}
	mean := float64(n) / 10
	if mean < 9000 || mean > 11000 {
		t.Fatalf("Bursty mean rate = %.0f/s, want ~10000/s", mean)
	}
}

func TestDiurnalTrace(t *testing.T) {
	d := 2 * sim.Second
	tr := DiurnalTrace(3, d, 5000, 4, 2)
	if len(tr) < 9000 || len(tr) > 11000 {
		t.Fatalf("diurnal trace has %d arrivals over 2s at mean 5000/s, want ~10000", len(tr))
	}
	for i := 1; i < len(tr); i++ {
		if tr[i] < tr[i-1] {
			t.Fatalf("trace not ascending at %d", i)
		}
	}
	if tr[len(tr)-1] >= d {
		t.Fatalf("trace overran duration")
	}
	// Rate modulation: the peak-phase quarter must hold clearly more
	// arrivals than the trough-phase quarter (peak factor 4).
	quarter := d / 8
	count := func(lo, hi sim.Time) int {
		n := 0
		for _, at := range tr {
			if at >= lo && at < hi {
				n++
			}
		}
		return n
	}
	peak := count(0, quarter)          // sin rising from 0: high phase
	low := count(3*d/8, 3*d/8+quarter) // sin at minimum for cycle 1
	if peak < 2*low {
		t.Fatalf("diurnal modulation too flat: peak quarter %d vs trough quarter %d", peak, low)
	}
	// Same seed, same trace.
	tr2 := DiurnalTrace(3, d, 5000, 4, 2)
	if len(tr2) != len(tr) || tr2[0] != tr[0] || tr2[len(tr2)-1] != tr[len(tr)-1] {
		t.Fatalf("DiurnalTrace not deterministic")
	}
}

func TestDropTailBoundsQueue(t *testing.T) {
	k := sim.NewKernel()
	e := NewEngine(k, 10*sim.Millisecond, 100*sim.Millisecond)
	s := e.AddStream(StreamConfig{
		Name:     "t0",
		Arrivals: ArrivalSpec{Kind: Poisson, RatePerSec: 10000},
		Seed:     1, QueueCap: 8,
	})
	// Worker so slow the queue must saturate: 10k/s offered, 100/s served.
	s.AddWorker(&fakeWorker{k: k, svc: 10 * sim.Millisecond})
	e.Attach()
	k.RunUntil(100 * sim.Millisecond)
	if s.Dropped() == 0 {
		t.Fatalf("overloaded drop-tail stream dropped nothing (offered %d)", s.Offered())
	}
	if s.QueueDepth() > 8 {
		t.Fatalf("queue depth %d exceeds cap 8", s.QueueDepth())
	}
	if s.Offered() != s.Admitted()+s.Dropped() {
		t.Fatalf("conservation: offered %d != admitted %d + dropped %d",
			s.Offered(), s.Admitted(), s.Dropped())
	}
}

func TestTokenBucketAdmission(t *testing.T) {
	k := sim.NewKernel()
	e := NewEngine(k, 10*sim.Millisecond, sim.Second)
	s := e.AddStream(StreamConfig{
		Name:     "t0",
		Arrivals: ArrivalSpec{Kind: Poisson, RatePerSec: 10000},
		Seed:     2, QueueCap: 1 << 20,
		Policy:          TokenBucket,
		TokenRatePerSec: 1000, TokenBurst: 50,
	})
	s.AddWorker(&fakeWorker{k: k, svc: sim.Microsecond})
	e.Attach()
	k.RunUntil(sim.Second)
	// Admissions are bounded by refill + initial burst.
	if s.Admitted() > 1000+50 {
		t.Fatalf("token bucket admitted %d, cap is rate+burst = 1050", s.Admitted())
	}
	if s.Admitted() < 900 {
		t.Fatalf("token bucket admitted only %d of ~1050 available", s.Admitted())
	}
}

func TestBatchedDispatchCoalesces(t *testing.T) {
	k := sim.NewKernel()
	e := NewEngine(k, 10*sim.Millisecond, sim.Second)
	s := e.AddStream(StreamConfig{
		Name:     "t0",
		Arrivals: ArrivalSpec{Kind: Poisson, RatePerSec: 20000},
		Seed:     3, QueueCap: 4096, BatchMax: 8,
	})
	w := &fakeWorker{k: k, svc: 50 * sim.Microsecond}
	s.AddWorker(w)
	e.Attach()
	k.RunUntil(sim.Second)
	if s.Batches() == 0 || s.Dispatched() <= s.Batches() {
		t.Fatalf("no coalescing: %d requests in %d batches", s.Dispatched(), s.Batches())
	}
	avg := float64(s.Dispatched()) / float64(s.Batches())
	if avg < 1.5 {
		t.Fatalf("average batch %.2f under overload, expected coalescing toward 8", avg)
	}
}

func TestElasticGrowShrink(t *testing.T) {
	k := sim.NewKernel()
	e := NewEngine(k, sim.Millisecond, 2*sim.Second)
	// One burst early, silence after: the controller must grow into the
	// standby during the burst and shrink it back in the quiet tail.
	s := e.AddStream(StreamConfig{
		Name: "t0",
		Arrivals: ArrivalSpec{
			Kind: Bursty, RatePerSec: 30000,
			MeanOn: 100 * sim.Millisecond, MeanOff: 300 * sim.Millisecond,
		},
		Seed: 4, QueueCap: 4096, BatchMax: 4,
		Elastic: ElasticConfig{HighWater: 16, LowWater: 2, LowStreak: 20},
	})
	home := &fakeWorker{k: k, svc: 100 * sim.Microsecond}
	standby := &fakeElastic{fakeWorker: fakeWorker{k: k, svc: 100 * sim.Microsecond}, growCost: 200 * sim.Microsecond}
	s.AddWorker(home)
	s.AddElasticWorker(standby)
	e.Attach()
	k.RunUntil(2 * sim.Second)
	if s.Grows() == 0 {
		t.Fatalf("bursty overload never grew the standby (qdepth signal broken)")
	}
	if s.Shrinks() == 0 {
		t.Fatalf("quiet periods never shrank the standby")
	}
	if standby.grows != int(s.Grows()) || standby.shrinks != int(s.Shrinks()) {
		t.Fatalf("controller/worker mismatch: %d/%d vs %d/%d",
			s.Grows(), s.Shrinks(), standby.grows, standby.shrinks)
	}
	if standby.launches == 0 {
		t.Fatalf("grown standby never served a batch")
	}
}

// TestEngineDeterminism runs the same seeded configuration twice — once with
// tracing and metrics attached, once bare — and requires identical outcome
// digests: observability must not perturb the served workload.
func TestEngineDeterminism(t *testing.T) {
	run := func(observe bool) (uint64, uint64, uint64) {
		k := sim.NewKernel()
		e := NewEngine(k, sim.Millisecond, sim.Second)
		s := e.AddStream(StreamConfig{
			Name: "t0",
			Arrivals: ArrivalSpec{
				Kind: Bursty, RatePerSec: 20000,
				MeanOn: 10 * sim.Millisecond, MeanOff: 10 * sim.Millisecond,
			},
			Seed: 5, QueueCap: 64, BatchMax: 4, SLO: sim.Millisecond,
			Elastic: ElasticConfig{HighWater: 32, LowWater: 2, LowStreak: 10},
		})
		s.AddWorker(&fakeWorker{k: k, svc: 80 * sim.Microsecond})
		s.AddElasticWorker(&fakeElastic{fakeWorker: fakeWorker{k: k, svc: 80 * sim.Microsecond}, growCost: sim.Millisecond})
		if observe {
			s.SetTrace(obs.NewTracer(1<<12), obs.VM(0))
			reg := obs.NewRegistry()
			e.RegisterMetrics(reg)
		}
		e.Attach()
		k.RunUntil(sim.Second + 100*sim.Millisecond) // drain tail
		return e.EngineDigest(), s.Offered(), s.Completed()
	}
	d1, o1, c1 := run(false)
	d2, o2, c2 := run(true)
	if d1 != d2 || o1 != o2 || c1 != c2 {
		t.Fatalf("observability perturbed the run: digest %x/%x offered %d/%d completed %d/%d",
			d1, d2, o1, o2, c1, c2)
	}
	d3, _, _ := run(false)
	if d3 != d1 {
		t.Fatalf("same seed, different digest: %x vs %x", d1, d3)
	}
}

// TestTraceReplayClamps checks trace entries before the attach time clamp to
// the first window instead of panicking the kernel.
func TestTraceReplayClamps(t *testing.T) {
	k := sim.NewKernel()
	k.At(50*sim.Millisecond, func() {})
	k.Run() // now = 50ms; trace starts at 10ms
	e := NewEngine(k, 10*sim.Millisecond, 200*sim.Millisecond)
	s := e.AddStream(StreamConfig{
		Name:     "t0",
		Arrivals: ArrivalSpec{Kind: Trace, Trace: []sim.Time{10 * sim.Millisecond, 60 * sim.Millisecond, 70 * sim.Millisecond}},
		Seed:     6, QueueCap: 8,
	})
	s.AddWorker(&fakeWorker{k: k, svc: sim.Microsecond})
	e.Attach()
	k.RunUntil(200 * sim.Millisecond)
	if s.Offered() != 3 {
		t.Fatalf("offered %d of 3 trace arrivals", s.Offered())
	}
	if s.Completed() != 3 {
		t.Fatalf("completed %d of 3 trace arrivals", s.Completed())
	}
}

// TestSteadyStateZeroAlloc is the satellite allocation gate: once rings,
// reservoir, and the kernel's heap are warm, the admission/dispatch/complete
// hot path must allocate nothing per window of traffic.
func TestSteadyStateZeroAlloc(t *testing.T) {
	k := sim.NewKernel()
	e := NewEngine(k, sim.Millisecond, 10*sim.Second)
	s := e.AddStream(StreamConfig{
		Name:     "t0",
		Arrivals: ArrivalSpec{Kind: Poisson, RatePerSec: 50000},
		Seed:     8, QueueCap: 256, BatchMax: 4,
		Policy: TokenBucket, TokenRatePerSec: 40000, TokenBurst: 64,
		SLO: 500 * sim.Microsecond, ReservoirCap: 64,
	})
	s.AddWorker(&fakeWorker{k: k, svc: 10 * sim.Microsecond})
	e.Attach()
	k.RunUntil(500 * sim.Millisecond) // warm: reservoir full, rings at size
	if s.Latency().Count() < 1000 {
		t.Fatalf("warmup served only %d requests", s.Latency().Count())
	}
	next := k.Now()
	if avg := testing.AllocsPerRun(50, func() {
		next += sim.Millisecond
		k.RunUntil(next)
	}); avg != 0 {
		t.Errorf("steady-state serving allocated %.2f per 1ms window, want 0", avg)
	}
}

// TestLatencySLOWiring checks end-to-end that stream latencies land in the
// stat and the armed SLO counts exactly.
func TestLatencySLOWiring(t *testing.T) {
	k := sim.NewKernel()
	e := NewEngine(k, 10*sim.Millisecond, sim.Second)
	s := e.AddStream(StreamConfig{
		Name:     "t0",
		Arrivals: ArrivalSpec{Kind: Poisson, RatePerSec: 1000},
		Seed:     9, QueueCap: 1024, SLO: 150 * sim.Microsecond,
	})
	s.AddWorker(&fakeWorker{k: k, svc: 100 * sim.Microsecond})
	e.Attach()
	k.RunUntil(sim.Second + 10*sim.Millisecond)
	lat := s.Latency()
	if lat.Count() == 0 {
		t.Fatalf("no latencies observed")
	}
	if lat.Min() < 100*sim.Microsecond {
		t.Fatalf("latency %v below service time", lat.Min())
	}
	v := lat.ViolationsAbove(150 * sim.Microsecond)
	if v == 0 {
		t.Fatalf("1000/s onto a 100us server must queue sometimes; no violations counted")
	}
	frac := float64(v) / float64(lat.Count())
	if math.IsNaN(frac) || frac >= 1 {
		t.Fatalf("violation fraction %f out of range", frac)
	}
}
