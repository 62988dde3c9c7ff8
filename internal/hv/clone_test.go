package hv_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"optimus/internal/accel"
	"optimus/internal/chaos"
	"optimus/internal/guest"
	"optimus/internal/hv"
	"optimus/internal/obs"
)

func cloneCfg() hv.Config {
	return hv.Config{
		Accels: []string{"AES", "AES"},
		Seed:   42,
		// Every chaos class armed: provisioning consumes pin draws and the
		// run consumes DMA draws, so state transfer must resume the decision
		// stream at exactly the template's position.
		Chaos: &chaos.Config{Seed: 99, XlatPPM: 100000, CorruptPPM: 50000, DropPPM: 50000, DupPPM: 50000, PinPPM: 300000},
	}
}

// provisionCloneJob builds two tenants and fully provisions an AES job on
// tenant 0: DMA buffers allocated (pinning pages, drawing chaos pin
// decisions), key and plaintext written into guest memory, registers
// cached. Everything here happens before Clone, so the clone must carry
// it all.
func provisionCloneJob(t *testing.T, h *hv.Hypervisor) (*tenant, guest.Buffer, []byte) {
	t.Helper()
	tn := newTenant(t, h, 0)
	newTenant(t, h, 1) // second VM/process/vaccel exercises graph replay
	d := tn.dev
	key := []byte("cloned-aes-key-!")
	keyBuf, err := d.AllocDMA(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Write(keyBuf, 0, key); err != nil {
		t.Fatal(err)
	}
	plain := make([]byte, 32<<10)
	for i := range plain {
		plain[i] = byte(i*31 + 7)
	}
	src, err := d.AllocDMA(uint64(len(plain)))
	if err != nil {
		t.Fatal(err)
	}
	dst, err := d.AllocDMA(uint64(len(plain)))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Write(src, 0, plain); err != nil {
		t.Fatal(err)
	}
	d.RegWrite(accel.XFArgSrc, uint64(src.Addr))
	d.RegWrite(accel.XFArgDst, uint64(dst.Addr))
	d.RegWrite(accel.XFArgLen, uint64(len(plain)))
	d.RegWrite(accel.XFArgParam, uint64(keyBuf.Addr))
	return tn, dst, plain
}

// runCloneJob starts the provisioned job, drains the simulation, and
// returns the ciphertext plus a fingerprint of every counter the platform
// exposes.
func runCloneJob(t *testing.T, h *hv.Hypervisor, d *guest.Device, dst guest.Buffer, n int) ([]byte, string) {
	t.Helper()
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, n)
	if err := d.Read(dst, 0, out); err != nil {
		t.Fatal(err)
	}
	fp := fmt.Sprintf("hv=%+v shell=%+v chaos=%+v now=%v exec=%d",
		h.Stats(), h.Shell.Stats(), h.Chaos().Stats(), h.K.Now(), h.K.Executed())
	return out, fp
}

// TestCloneDeterminism is the correctness gate for warm-platform cloning:
// a platform provisioned from scratch and a clone of an identically
// provisioned template must be indistinguishable — same ciphertext, same
// trap/hypercall/pin counters, same shell traffic, same chaos schedule,
// same simulated timeline — with fault injection armed and tracing
// enabled.
func TestCloneDeterminism(t *testing.T) {
	traced := func() hv.Config {
		cfg := cloneCfg()
		cfg.Trace = obs.NewTracer(512)
		cfg.Metrics = obs.NewRegistry()
		return cfg
	}

	// Control: fresh platform, provision, run.
	hA, err := hv.New(traced())
	if err != nil {
		t.Fatal(err)
	}
	tnA, dstA, plain := provisionCloneJob(t, hA)
	outA, fpA := runCloneJob(t, hA, tnA.dev, dstA, len(plain))

	// Template: identical call sequence up to (but not including) Start.
	hT, err := hv.New(traced())
	if err != nil {
		t.Fatal(err)
	}
	tnT, dstT, _ := provisionCloneJob(t, hT)

	runClone := func() ([]byte, string, *hv.Hypervisor) {
		hC, err := hT.Clone()
		if err != nil {
			t.Fatal(err)
		}
		vas := hC.Phy(0).VAccels()
		if len(vas) != 1 {
			t.Fatalf("clone slot 0 has %d vaccels", len(vas))
		}
		dC := tnT.dev.CloneFor(vas[0].Process(), vas[0])
		out, fp := runCloneJob(t, hC, dC, dstT, len(plain))
		return out, fp, hC
	}
	outC, fpC, hC := runClone()

	if !bytes.Equal(outA, outC) {
		t.Fatal("clone ciphertext differs from fresh platform")
	}
	if fpA != fpC {
		t.Fatalf("counter fingerprints differ:\nfresh: %s\nclone: %s", fpA, fpC)
	}
	if hC.Chaos().Stats().TotalInjected() == 0 {
		t.Fatal("chaos injected nothing — the state-transfer path went untested")
	}

	// Observability handles must be private per clone.
	if hC.Trace() == nil || hC.Trace() == hT.Trace() {
		t.Fatal("clone must get its own tracer")
	}
	if hC.Config().Metrics == nil || hC.Config().Metrics == hT.Config().Metrics {
		t.Fatal("clone must get its own metrics registry")
	}

	// The template is read-only under Clone: running the first clone must
	// not have perturbed it, so a second clone replays identically.
	if hT.K.Now() != 0 || hT.K.Executed() != 0 {
		t.Fatal("cloning or running a clone advanced the template's kernel")
	}
	outC2, fpC2, _ := runClone()
	if !bytes.Equal(outC, outC2) || fpC != fpC2 {
		t.Fatal("second clone of the same template diverged")
	}

	// A platform with history is not clonable.
	if _, err := hA.Clone(); err == nil {
		t.Fatal("Clone of a non-quiescent platform must fail")
	}
}

// TestConcurrentClonesOwnTracers clones a template built with an explicit
// Config.Trace twice and runs both clones at once (meaningful under -race):
// each clone must own a distinct tracer of the template's capacity, record
// only its own run, and leave the template's ring untouched.
func TestConcurrentClonesOwnTracers(t *testing.T) {
	cfg := cloneCfg()
	cfg.Trace = obs.NewTracer(512)
	hT, err := hv.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tnT, dstT, plain := provisionCloneJob(t, hT)
	templateEmitted := hT.Trace().Emitted()

	var clones [2]*hv.Hypervisor
	var devs [2]*guest.Device
	for i := range clones {
		hC, err := hT.Clone()
		if err != nil {
			t.Fatal(err)
		}
		vas := hC.Phy(0).VAccels()
		clones[i], devs[i] = hC, tnT.dev.CloneFor(vas[0].Process(), vas[0])
	}
	var wg sync.WaitGroup
	errs := make([]error, len(clones))
	for i := range clones {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = devs[i].Run()
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("clone %d: %v", i, err)
		}
	}

	a, b := clones[0].Trace(), clones[1].Trace()
	if a == nil || b == nil || a == b || a == hT.Trace() || b == hT.Trace() {
		t.Fatal("each clone must own a private tracer")
	}
	if a.Cap() != hT.Trace().Cap() || b.Cap() != hT.Trace().Cap() {
		t.Fatalf("clone tracer capacities %d/%d, want the template's %d", a.Cap(), b.Cap(), hT.Trace().Cap())
	}
	if a.Emitted() == 0 || a.Emitted() != b.Emitted() {
		t.Fatalf("identical clone runs emitted %d and %d records", a.Emitted(), b.Emitted())
	}
	if hT.Trace().Emitted() != templateEmitted {
		t.Fatal("clone runs emitted into the template's ring")
	}
	out := make([]byte, len(plain))
	if err := devs[0].Read(dstT, 0, out); err != nil || bytes.Equal(out, plain) {
		t.Fatalf("clone job produced no ciphertext (err %v)", err)
	}
}
