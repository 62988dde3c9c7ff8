package hv_test

import (
	"bytes"
	"strings"
	"testing"

	"optimus/internal/accel"
	"optimus/internal/hv"
	"optimus/internal/obs"
	"optimus/internal/sim"
)

// TestProfilerStatusMirror pins the accelerator framework's status encoding
// to the mirror obs keeps (obs cannot import accel, so profile.go hardcodes
// the values). If a status constant is ever inserted or reordered, this
// fails alongside obs's TestStatusMirrorsDocumented.
func TestProfilerStatusMirror(t *testing.T) {
	want := []uint64{
		accel.StatusIdle:    0,
		accel.StatusRunning: 1,
		accel.StatusSaving:  2,
		accel.StatusSaved:   3,
		accel.StatusLoading: 4,
		accel.StatusDone:    5,
		accel.StatusError:   6,
	}
	for v, w := range want {
		if uint64(v) != w {
			t.Fatalf("accel status constant %d moved to %d; update the obs mirror in profile.go", w, v)
		}
	}
	if accel.StatusError != 6 {
		t.Fatalf("StatusError = %d, want 6", accel.StatusError)
	}
}

// metricValue pulls one named metric out of a registry snapshot.
func metricValue(t *testing.T, reg *obs.Registry, name string) float64 {
	t.Helper()
	for _, s := range reg.Snapshot() {
		if s.Name == name {
			return s.Value
		}
	}
	t.Fatalf("metric %q not in snapshot", name)
	return 0
}

// TestCloneTelemetryPrivate is the hv-side gate for clone-scoped telemetry:
// with the full engine armed on the template (tracer + registry + sampler +
// profiler), a clone must get a private tracer ring, sampler, profiler, and
// metrics registry — its spans must never land in the template's ring, and
// its CoW-break counter must be invisible to (and resettable independently
// of) the template.
func TestCloneTelemetryPrivate(t *testing.T) {
	cfg := cloneCfg()
	cfg.Trace = obs.NewTracer(512)
	cfg.Metrics = obs.NewRegistry()
	cfg.Sample = &obs.SampleConfig{Window: sim.Microsecond}
	cfg.Profile = true
	hT, err := hv.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tnT, dstT, plain := provisionCloneJob(t, hT)
	templateEmitted := hT.Trace().Emitted()

	hC, err := hT.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if hC.Trace() == nil || hC.Trace() == hT.Trace() {
		t.Fatal("clone must own a private tracer ring")
	}
	if hC.Trace().Cap() != hT.Trace().Cap() {
		t.Fatalf("clone ring holds %d records, template %d", hC.Trace().Cap(), hT.Trace().Cap())
	}
	if hC.Sampler() == nil || hC.Sampler() == hT.Sampler() {
		t.Fatal("clone must own a private sampler")
	}
	if hC.Profiler() == nil || hC.Profiler() == hT.Profiler() {
		t.Fatal("clone must own a private profiler")
	}
	regC := hC.Config().Metrics
	regT := hT.Config().Metrics
	if regC == nil || regC == regT {
		t.Fatal("clone must own a private metrics registry")
	}

	vas := hC.Phy(0).VAccels()
	dC := tnT.dev.CloneFor(vas[0].Process(), vas[0])
	cipher, _ := runCloneJob(t, hC, dC, dstT, len(plain))
	if len(cipher) != len(plain) || bytes.Equal(cipher, plain) {
		t.Fatal("clone job produced no ciphertext")
	}

	// Satellite: clone spans never appear in the template's ring. The clone
	// ran a whole job; the template's ring must not have grown a record.
	if got := hT.Trace().Emitted(); got != templateEmitted {
		t.Fatalf("template ring grew from %d to %d records while only the clone ran", templateEmitted, got)
	}
	if hC.Trace().Emitted() == 0 {
		t.Fatal("clone run emitted no trace records")
	}

	// The clone's sampler hooked the clone's kernel and fired.
	if hC.Sampler().Fired() == 0 {
		t.Fatal("clone sampler never fired despite the job running")
	}
	if hT.Sampler().Fired() != 0 {
		t.Fatal("template sampler fired without the template's clock advancing")
	}
	if hC.Profiler().Events() == 0 {
		t.Fatal("clone profiler observed no records")
	}

	// mem.cow_breaks is registered per-platform. The clone broke
	// CoW shares; the template's registry must not see them.
	breaks := hC.Mem.CoWBreaks()
	if breaks == 0 {
		t.Fatal("clone job broke no CoW shares")
	}
	if got := metricValue(t, regC, "mem.cow_breaks"); got != float64(breaks) {
		t.Fatalf("clone mem.cow_breaks metric = %v, want %d", got, breaks)
	}
	if got := metricValue(t, regT, "mem.cow_breaks"); got != 0 {
		t.Fatalf("template mem.cow_breaks metric = %v, want 0", got)
	}
}

// TestProfilerTemporalSharing drives two MB tenants through temporal
// multiplexing on one physical slot and checks the utilization profiler
// attributes time to every lane: the PA runs and stalls (state save/load),
// the scheduler lane shows preemption handshakes, and both VM lanes accrue
// busy time.
func TestProfilerTemporalSharing(t *testing.T) {
	h, err := hv.New(hv.Config{
		Accels:    []string{"MB"},
		TimeSlice: 500 * sim.Microsecond,
		Trace:     obs.NewTracer(0),
		Profile:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	a := newTenant(t, h, 0)
	b := newTenant(t, h, 0)
	for i, tn := range []*tenant{a, b} {
		buf, _ := tn.dev.AllocDMA(4 << 20)
		tn.dev.SetupStateBuffer()
		tn.dev.RegWrite(accel.MBArgBase, uint64(buf.Addr))
		tn.dev.RegWrite(accel.MBArgSize, buf.Size)
		tn.dev.RegWrite(accel.MBArgBursts, 0)
		tn.dev.RegWrite(accel.MBArgSeed, uint64(i))
		tn.dev.Start()
	}
	h.K.RunFor(3 * sim.Millisecond)

	prof := h.Profiler()
	if prof == nil {
		t.Fatal("Config.Profile did not attach a profiler")
	}
	if prof.Events() == 0 || prof.Horizon() <= 0 {
		t.Fatalf("profiler saw %d events over %v", prof.Events(), prof.Horizon())
	}
	var byClass [8]obs.ActorUtil
	vms := 0
	for _, u := range prof.Utilization() {
		c := u.Actor.Class()
		byClass[c].Busy += u.Busy
		byClass[c].Stall += u.Stall
		byClass[c].Preempt += u.Preempt
		if c == obs.ClassVM && u.Busy > 0 {
			vms++
		}
	}
	if byClass[obs.ClassPA].Busy == 0 {
		t.Fatal("PA lane accrued no busy time")
	}
	if byClass[obs.ClassPA].Stall == 0 {
		t.Fatal("PA lane accrued no stall time despite state save/load on every switch")
	}
	if byClass[obs.ClassSched].Preempt == 0 {
		t.Fatal("scheduler lane shows no preemption handshakes")
	}
	if byClass[obs.ClassSched].Busy == 0 {
		t.Fatal("scheduler lane accrued no slice time")
	}
	if vms != 2 {
		t.Fatalf("%d VM lanes accrued busy time, want 2", vms)
	}

	var buf bytes.Buffer
	if err := prof.WriteReport(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, lane := range []string{"pa0", "sched0", "vm"} {
		if !strings.Contains(out, lane) {
			t.Fatalf("report missing %q lane:\n%s", lane, out)
		}
	}
}
