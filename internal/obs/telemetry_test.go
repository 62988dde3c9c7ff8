package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"optimus/internal/sim"
)

// --- Profiler ---

func TestProfilerSliceAccounting(t *testing.T) {
	p := NewProfiler()
	tr := NewTracer(64)
	tr.SetProfiler(p)

	us := sim.Microsecond
	// Slice on sched0 for vm 3: 10 µs busy, then a preemption handshake
	// taking 2 µs, then idle until the horizon at 20 µs.
	tr.EmitSpan(0, KindSliceBegin, Sched(0), 7, 7, 3)
	tr.EmitSpan(10*us, KindPreemptBegin, Sched(0), 7, 7, 0)
	tr.EmitSpan(12*us, KindPreemptSaved, Sched(0), 7, 7, 0)
	tr.EmitSpan(12*us, KindSliceEnd, Sched(0), 7, 7, 3)
	tr.Emit(20*us, KindMuxStall, Platform(), 0, 0) // horizon marker

	if got := p.Events(); got != 5 {
		t.Fatalf("Events = %d, want 5", got)
	}
	if got := p.Horizon(); got != 20*us {
		t.Fatalf("Horizon = %v", got)
	}
	util := p.Utilization()
	byActor := map[Actor]ActorUtil{}
	for _, u := range util {
		byActor[u.Actor] = u
	}
	s := byActor[Sched(0)]
	if s.Busy != 10*us || s.Preempt != 2*us || s.Idle != 8*us {
		t.Fatalf("sched0 busy=%v preempt=%v idle=%v", s.Busy, s.Preempt, s.Idle)
	}
	// The VM interval opened at SliceBegin and closed at SliceEnd (12 µs):
	// the guest owned the accelerator through the handshake.
	v := byActor[VM(3)]
	if v.Busy != 12*us {
		t.Fatalf("vm3 busy = %v, want 12µs", v.Busy)
	}
	if got := p.ClassTotal(ClassSched, profBusy); got != 10*us {
		t.Fatalf("ClassTotal(sched, busy) = %v", got)
	}
	if got := p.ClassTotal(ClassSched, profPreempt); got != 2*us {
		t.Fatalf("ClassTotal(sched, preempt) = %v", got)
	}
	if got := p.ClassTotal(ClassVM, profBusy); got != 12*us {
		t.Fatalf("ClassTotal(vm, busy) = %v", got)
	}
}

func TestProfilerAccelStatusStates(t *testing.T) {
	p := NewProfiler()
	tr := NewTracer(64)
	tr.SetProfiler(p)
	us := sim.Microsecond
	tr.EmitSpan(0, KindAccelStatus, PA(1), 1, statusRunning, 0)
	tr.EmitSpan(5*us, KindAccelStatus, PA(1), 1, statusSaving, 0)
	tr.EmitSpan(6*us, KindAccelStatus, PA(1), 1, statusSaved, 0)
	tr.EmitSpan(8*us, KindAccelStatus, PA(1), 2, statusLoading, 0)
	tr.EmitSpan(9*us, KindAccelStatus, PA(1), 2, statusRunning, 0)
	tr.EmitSpan(10*us, KindAccelStatus, PA(1), 2, statusDone, 0)
	u := p.Utilization()[0]
	if u.Actor != PA(1) {
		t.Fatalf("actor = %v", u.Actor)
	}
	if u.Busy != 6*us { // 0-5 running + 9-10 running
		t.Fatalf("busy = %v, want 6µs", u.Busy)
	}
	if u.Stall != 2*us { // 5-6 saving + 8-9 loading
		t.Fatalf("stall = %v, want 2µs", u.Stall)
	}
	if u.Idle != 2*us { // 6-8 saved
		t.Fatalf("idle = %v, want 2µs", u.Idle)
	}
}

func TestProfilerReportDeterministic(t *testing.T) {
	render := func() string {
		p := NewProfiler()
		tr := NewTracer(64)
		tr.SetProfiler(p)
		tr.Emit(0, KindSliceBegin, Sched(1), 1, 9)
		tr.Emit(0, KindAccelStatus, PA(0), statusRunning, 0)
		tr.Emit(sim.Microsecond, KindSliceEnd, Sched(1), 1, 9)
		tr.Emit(2*sim.Microsecond, KindAccelStatus, PA(0), statusDone, 0)
		var buf bytes.Buffer
		if err := p.WriteReport(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := render(), render()
	if a != b {
		t.Fatalf("non-deterministic report:\n%s\n---\n%s", a, b)
	}
	if !strings.Contains(a, "pa0") || !strings.Contains(a, "busy") {
		t.Fatalf("unexpected report:\n%s", a)
	}
}

// --- Sampler ---

func testRegistry() (*Registry, *sim.Counter, *sim.LatencyStat) {
	r := NewRegistry()
	c := r.Counter("test.count")
	h := sim.NewLatencyStat(64, 1)
	r.RegisterHistogram("test.lat", h)
	g := 0.0
	r.RegisterGauge("test.gauge", func() float64 { return g })
	return r, c, h
}

func TestSamplerWindowsAndDeltas(t *testing.T) {
	r, c, h := testRegistry()
	k := sim.NewKernel()
	s := NewSampler(r, nil, SampleConfig{Window: 10 * sim.Microsecond, MaxWindows: 8})
	s.Attach(k)

	// Three windows of activity: 2, 3, 0 counter increments.
	k.At(1*sim.Microsecond, func() { c.Add(2); h.Observe(100) })
	k.At(11*sim.Microsecond, func() { c.Add(3) })
	k.RunUntil(30 * sim.Microsecond)

	if got := s.Windows(); got != 3 {
		t.Fatalf("Windows = %d, want 3", got)
	}
	var buf bytes.Buffer
	coll := NewCollector()
	coll.AddPlatform(PlatformObs{Label: "unit", Metrics: r, Sampler: s})
	if err := coll.WriteTimeseries(&buf); err != nil {
		t.Fatal(err)
	}
	var art struct {
		WindowPS  int64 `json:"window_ps"`
		Platforms []struct {
			Label   string  `json:"label"`
			Windows []int64 `json:"windows"`
			Series  []struct {
				Name   string    `json:"name"`
				Kind   string    `json:"kind"`
				Deltas []uint64  `json:"deltas"`
				Counts []uint64  `json:"counts"`
				P50NS  []float64 `json:"p50_ns"`
			} `json:"series"`
		} `json:"platforms"`
	}
	if err := json.Unmarshal(buf.Bytes(), &art); err != nil {
		t.Fatal(err)
	}
	p := art.Platforms[0]
	if p.Label != "unit" || len(p.Windows) != 3 {
		t.Fatalf("label=%q windows=%v", p.Label, p.Windows)
	}
	for i := 1; i < len(p.Windows); i++ {
		if p.Windows[i] <= p.Windows[i-1] {
			t.Fatalf("window ends not monotone: %v", p.Windows)
		}
	}
	for _, ser := range p.Series {
		switch ser.Name {
		case "test.count":
			if ser.Deltas[0] != 2 || ser.Deltas[1] != 3 || ser.Deltas[2] != 0 {
				t.Fatalf("test.count deltas = %v", ser.Deltas)
			}
		case "test.lat":
			if ser.Counts[0] != 1 || ser.Counts[1] != 0 {
				t.Fatalf("test.lat counts = %v", ser.Counts)
			}
			if ser.P50NS[0] != sim.Time(100).Nanoseconds() {
				t.Fatalf("test.lat p50 = %v", ser.P50NS)
			}
		}
	}
}

func TestSamplerRingWraparound(t *testing.T) {
	r, c, _ := testRegistry()
	k := sim.NewKernel()
	s := NewSampler(r, nil, SampleConfig{Window: sim.Microsecond, MaxWindows: 4})
	s.Attach(k)
	for i := 1; i <= 10; i++ {
		i := i
		k.At(sim.Time(i)*sim.Microsecond-1, func() { c.Add(uint64(i)) })
	}
	k.RunUntil(10 * sim.Microsecond)
	if s.Windows() != 4 || s.Fired() != 10 {
		t.Fatalf("Windows=%d Fired=%d, want 4/10", s.Windows(), s.Fired())
	}
	p := s.export("w")
	// The ring keeps the newest 4 windows: increments 7, 8, 9, 10.
	for _, ser := range p.Series {
		if ser.Name == "test.count" {
			want := []uint64{7, 8, 9, 10}
			for i, d := range ser.Deltas {
				if d != want[i] {
					t.Fatalf("deltas after wrap = %v, want %v", ser.Deltas, want)
				}
			}
		}
	}
	for i := 1; i < len(p.Windows); i++ {
		if p.Windows[i] <= p.Windows[i-1] {
			t.Fatalf("window ends not monotone after wrap: %v", p.Windows)
		}
	}
}

func TestSamplerCounterResetClampsToZero(t *testing.T) {
	r := NewRegistry()
	var v uint64
	r.RegisterCounter("test.dropping", func() uint64 { return v })
	k := sim.NewKernel()
	s := NewSampler(r, nil, SampleConfig{Window: sim.Microsecond, MaxWindows: 8})
	s.Attach(k)
	k.At(500, func() { v = 5 })
	k.At(sim.Microsecond+1, func() { v = 2 }) // the source drops mid-run
	k.At(2*sim.Microsecond+1, func() { v = 3 })
	k.RunUntil(3 * sim.Microsecond)
	p := s.export("w")
	found := false
	for _, ser := range p.Series {
		if ser.Name != "test.dropping" {
			continue
		}
		found = true
		if ser.Deltas[0] != 5 || ser.Deltas[1] != 0 || ser.Deltas[2] != 1 {
			t.Fatalf("deltas across the drop = %v, want [5 0 1]", ser.Deltas)
		}
	}
	if !found {
		t.Fatal("no test.dropping series")
	}
}

func TestSamplerProfilerUtilizationSeries(t *testing.T) {
	r := NewRegistry()
	p := NewProfiler()
	tr := NewTracer(64)
	tr.SetProfiler(p)
	k := sim.NewKernel()
	s := NewSampler(r, p, SampleConfig{Window: 10 * sim.Microsecond, MaxWindows: 8})
	s.Attach(k)
	k.At(0, func() { tr.Emit(k.Now(), KindSliceBegin, Sched(0), 1, 2) })
	k.At(5*sim.Microsecond, func() { tr.Emit(k.Now(), KindSliceEnd, Sched(0), 1, 2) })
	k.RunUntil(20 * sim.Microsecond)
	found := false
	for _, ser := range s.export("w").Series {
		if ser.Name == "util.sched.busy_ps" {
			found = true
			if ser.Deltas[0] != uint64(5*sim.Microsecond) {
				t.Fatalf("util.sched.busy_ps window 0 = %d, want %d", ser.Deltas[0], 5*sim.Microsecond)
			}
			if ser.Deltas[1] != 0 {
				t.Fatalf("util.sched.busy_ps window 1 = %d, want 0", ser.Deltas[1])
			}
		}
	}
	if !found {
		t.Fatal("no util.sched.busy_ps series")
	}
}

// --- Zero-allocation contract (hotalloc's dynamic counterpart) ---

func TestTelemetryZeroAlloc(t *testing.T) {
	p := NewProfiler()
	tr := NewTracer(1024)
	tr.SetProfiler(p)
	r, c, h := testRegistry()
	s := NewSampler(r, p, SampleConfig{Window: sim.Microsecond, MaxWindows: 16})
	s.bind()
	// Warm up: register every actor, fill the histogram reservoir, wrap the
	// sampler ring once so every path below is steady-state.
	for i := 0; i < 64; i++ {
		tr.EmitSpan(sim.Time(i), KindAccelStatus, PA(0), 1, statusRunning, 0)
		tr.EmitSpan(sim.Time(i), KindSliceBegin, Sched(0), 2, 2, 1)
		h.Observe(sim.Time(i))
	}
	for i := 0; i < 32; i++ {
		s.sample(sim.Time(i+1) * sim.Microsecond)
	}

	at := sim.Time(1000)
	if avg := testing.AllocsPerRun(200, func() {
		tr.EmitSpan(at, KindAccelStatus, PA(0), 1, statusRunning, 0)
		tr.EmitSpan(at, KindSliceEnd, Sched(0), 2, 2, 1)
		tr.EmitSpan(at, KindSliceBegin, Sched(0), 2, 2, 1)
		at += 100
	}); avg != 0 {
		t.Fatalf("traced+profiled emit allocates %.1f/op", avg)
	}
	bound := sim.Time(64) * sim.Microsecond
	if avg := testing.AllocsPerRun(200, func() {
		c.Add(3)
		h.Observe(bound)
		s.sample(bound)
		bound += sim.Microsecond
	}); avg != 0 {
		t.Fatalf("steady-state sample allocates %.1f/op", avg)
	}
}

// --- Critical-path analyzer ---

func TestCritPathStages(t *testing.T) {
	us := sim.Microsecond
	span := MkSpan(0, 0)
	recs := []Rec{
		{At: 0, Kind: KindMMIOTrap, Actor: VM(0), Span: 5, A: 0x40, B: 1},
		{At: 0, Kind: KindDMAIssue, Actor: PA(0), Span: span, B: 4<<1 | 0},
		{At: 2 * us, Kind: KindIOTLBMiss, Actor: Shell(), Span: span, A: 0x1000, B: uint64(us)},
		{At: 2 * us, Kind: KindIOTLBHit, Actor: Shell(), Span: span, A: 0x1040, B: 0},
		{At: 10 * us, Kind: KindDMAComplete, Actor: PA(0), Span: span, A: uint64(10 * us), B: 256},
	}
	rep := AnalyzeCritPath(recs)
	if len(rep.Reqs) != 1 || rep.Incomplete != 0 {
		t.Fatalf("reqs=%d incomplete=%d", len(rep.Reqs), rep.Incomplete)
	}
	req := rep.Reqs[0]
	if req.Write || req.Lines != 4 || req.Latency != 10*us {
		t.Fatalf("req = %+v", req)
	}
	if req.Stages[StageQueue] != 2*us {
		t.Fatalf("queue = %v, want 2µs", req.Stages[StageQueue])
	}
	if req.Stages[StageXlat] != us {
		t.Fatalf("xlat = %v, want 1µs", req.Stages[StageXlat])
	}
	if req.Stages[StageLink] != 7*us {
		t.Fatalf("link = %v, want 7µs", req.Stages[StageLink])
	}
	if req.Dominant() != StageLink {
		t.Fatalf("dominant = %s", stageNames[req.Dominant()])
	}
	if len(rep.Classes) != 1 || rep.Classes[0].Name != "rd" || rep.Classes[0].Count != 1 {
		t.Fatalf("classes = %+v", rep.Classes)
	}
	if len(rep.Traps) != 1 || rep.Traps[0].Count != 1 || rep.Traps[0].Spans != 1 {
		t.Fatalf("traps = %+v", rep.Traps)
	}
}

func TestCritPathIncompleteChains(t *testing.T) {
	span1, span2 := MkSpan(0, 1), MkSpan(0, 2)
	recs := []Rec{
		// Complete without issue: wrapped out of the ring.
		{At: 10, Kind: KindDMAComplete, Actor: PA(0), Span: span1, A: 100},
		// Issue without complete: still in flight at the horizon.
		{At: 20, Kind: KindDMAIssue, Actor: PA(0), Span: span2, B: 1 << 1},
		// Translation for an unknown span.
		{At: 30, Kind: KindIOTLBHit, Actor: Shell(), Span: MkSpan(1, 9), B: 0},
	}
	rep := AnalyzeCritPath(recs)
	if len(rep.Reqs) != 0 {
		t.Fatalf("reqs = %d, want 0", len(rep.Reqs))
	}
	if rep.Incomplete != 3 {
		t.Fatalf("incomplete = %d, want 3", rep.Incomplete)
	}
}

func TestCritPathWriteTextAndTail(t *testing.T) {
	us := sim.Microsecond
	var recs []Rec
	for i := 0; i < 10; i++ {
		span := MkSpan(0, uint64(i))
		at := sim.Time(i) * 100 * us
		wb := uint64(2 << 1)
		if i%2 == 1 {
			wb |= 1
		}
		lat := sim.Time(i+1) * us
		recs = append(recs,
			Rec{At: at, Kind: KindDMAIssue, Actor: PA(0), Span: span, B: wb},
			Rec{At: at + lat/2, Kind: KindIOTLBHit, Actor: Shell(), Span: span, B: uint64(us / 10)},
			Rec{At: at + lat, Kind: KindDMAComplete, Actor: PA(0), Span: span, A: uint64(lat)},
		)
	}
	rep := AnalyzeCritPath(recs)
	if len(rep.Reqs) != 10 {
		t.Fatalf("reqs = %d", len(rep.Reqs))
	}
	tail := rep.TailContributors(3)
	if len(tail) != 3 || tail[0].Latency != 10*us || tail[1].Latency != 9*us {
		t.Fatalf("tail = %+v", tail)
	}
	var buf bytes.Buffer
	if err := rep.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"class rd", "class wr", "dominant", "top tail-latency contributors"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

// TestStatusMirrorsDocumented pins the numeric values the profiler mirrors
// from the accel package (which obs cannot import); internal/hv's telemetry
// test asserts the other side against the real constants.
func TestStatusMirrorsDocumented(t *testing.T) {
	if statusIdle != 0 || statusRunning != 1 || statusSaving != 2 ||
		statusSaved != 3 || statusLoading != 4 || statusDone != 5 || statusError != 6 {
		t.Fatal("status mirror constants drifted")
	}
}
