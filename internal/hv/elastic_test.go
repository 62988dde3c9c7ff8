package hv_test

import (
	"testing"

	"optimus/internal/accel"
	"optimus/internal/guest"
	"optimus/internal/hv"
	"optimus/internal/sim"
)

// mbDevice provisions a finite MemBench job of `bursts` bursts on d.
func mbDevice(t *testing.T, d *guest.Device, bursts uint64) {
	t.Helper()
	buf, err := d.AllocDMA(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	d.RegWrite(accel.MBArgBase, uint64(buf.Addr))
	d.RegWrite(accel.MBArgSize, 1<<20)
	d.RegWrite(accel.MBArgBursts, bursts)
	d.RegWrite(accel.MBArgWritePct, 0)
	d.RegWrite(accel.MBArgSeed, 1)
	if _, err := d.SetupStateBuffer(); err != nil {
		t.Fatal(err)
	}
}

// TestElasticGrowShrink checks the hypervisor's elastic slice entry points:
// growing a standby vaccel onto an occupied donor slot preempts the
// occupant (the modeled reallocation disruption), the ready callback fires
// after the reprovisioning delay, the grown vaccel then serves work on the
// shared slot, and shrinking hands the slot back.
func TestElasticGrowShrink(t *testing.T) {
	h, err := hv.New(hv.Config{Accels: []string{"MB", "MB"}})
	if err != nil {
		t.Fatal(err)
	}
	home := newTenant(t, h, 0)  // tenant A's home share, slot 0
	donor := newTenant(t, h, 1) // tenant B, occupying slot 1
	// Tenant A's standby share on slot 1: its own process (devices must not
	// share a process's DMA arena), same VM.
	standbyProc := home.vm.NewProcess()
	standbyVA, err := h.NewVAccel(standbyProc, 1)
	if err != nil {
		t.Fatal(err)
	}
	standbyDev, err := guest.Open(standbyProc, standbyVA)
	if err != nil {
		t.Fatal(err)
	}
	_ = home

	// Tenant B runs an unbounded job so slot 1 is busy at grow time.
	mbDevice(t, donor.dev, 0)
	if err := donor.dev.Start(); err != nil {
		t.Fatal(err)
	}
	h.K.RunFor(5 * sim.Millisecond)
	preBefore := h.Scheduler(1).Preemptions()

	// Grow: the occupant must be preempted and ready must fire after cost.
	var readyAt sim.Time
	cost := 500 * sim.Microsecond
	growStart := h.K.Now()
	if err := h.ElasticGrow(standbyVA, cost, func() { readyAt = h.K.Now() }); err != nil {
		t.Fatal(err)
	}
	h.K.RunFor(5 * sim.Millisecond)
	if readyAt != growStart+cost {
		t.Fatalf("ready fired at %v, want %v", readyAt, growStart+cost)
	}
	if got := h.Scheduler(1).Preemptions(); got <= preBefore {
		t.Fatalf("grow did not preempt the donor slot occupant (preemptions %d -> %d)", preBefore, got)
	}
	if h.Stats().ElasticGrows != 1 {
		t.Fatalf("ElasticGrows = %d, want 1", h.Stats().ElasticGrows)
	}

	// The grown standby serves a finite job while sharing the slot.
	mbDevice(t, standbyDev, 64)
	done := false
	standbyDev.OnDone(func() { done = true })
	if err := standbyDev.Start(); err != nil {
		t.Fatal(err)
	}
	h.K.RunWhile(func() bool { return !done })
	if !done {
		t.Fatal("standby job never completed on the shared slot")
	}

	// Shrink with the standby idle: counted, slot keeps serving tenant B.
	h.ElasticShrink(standbyVA)
	h.K.RunFor(5 * sim.Millisecond)
	if h.Stats().ElasticShrinks != 1 {
		t.Fatalf("ElasticShrinks = %d, want 1", h.Stats().ElasticShrinks)
	}
	if donor.dev.VAccel().Failed() != nil {
		t.Fatalf("donor tenant failed: %v", donor.dev.VAccel().Failed())
	}

	// Grow in pass-through mode is refused.
	pt, err := hv.New(hv.Config{Accels: []string{"MB"}, Mode: hv.ModePassThrough})
	if err != nil {
		t.Fatal(err)
	}
	ptTen := newTenant(t, pt, 0)
	if err := pt.ElasticGrow(ptTen.dev.VAccel(), 0, func() {}); err == nil {
		t.Fatal("ElasticGrow must refuse pass-through mode")
	}
}

// TestElasticShrinkPreemptsRunning checks shrinking a currently-running
// standby triggers a preemption handshake so the slot returns to co-tenants.
func TestElasticShrinkPreemptsRunning(t *testing.T) {
	h, err := hv.New(hv.Config{Accels: []string{"MB"}})
	if err != nil {
		t.Fatal(err)
	}
	tn := newTenant(t, h, 0)
	mbDevice(t, tn.dev, 0) // unbounded: stays running
	if err := tn.dev.Start(); err != nil {
		t.Fatal(err)
	}
	h.K.RunFor(2 * sim.Millisecond)
	pre := h.Scheduler(0).Preemptions()
	h.ElasticShrink(tn.dev.VAccel())
	h.K.RunFor(2 * sim.Millisecond)
	if got := h.Scheduler(0).Preemptions(); got != pre+1 {
		t.Fatalf("shrink of running vaccel: preemptions %d -> %d, want +1", pre, got)
	}
}
