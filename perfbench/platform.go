package main

import (
	"fmt"
	"runtime"

	"optimus/internal/guest"
	"optimus/internal/hv"
	"optimus/internal/sim"
)

// Scenario helpers: each wraps one call into a layer's public API in the
// span named after that layer, so a traced run can attribute set-up time.

type reg struct {
	i int
	v uint64
}

func newPlatform(r *runner, cfg hv.Config) (*hv.Hypervisor, error) {
	end := r.span("hv.New")
	defer end()
	return hv.New(cfg)
}

// openTenant creates a VM, a process and a virtual accelerator on slot,
// and opens the guest device on it.
func openTenant(r *runner, h *hv.Hypervisor, slot int, name string) (*guest.Device, error) {
	end := r.span("hv.provision")
	defer end()
	vm, err := h.NewVM(name, 10<<30)
	if err != nil {
		return nil, err
	}
	return openDevice(h, vm.NewProcess(), slot)
}

func openDevice(h *hv.Hypervisor, proc *hv.Process, slot int) (*guest.Device, error) {
	va, err := h.NewVAccel(proc, slot)
	if err != nil {
		return nil, err
	}
	return guest.Open(proc, va)
}

func alloc(r *runner, dev *guest.Device, n uint64) (guest.Buffer, error) {
	end := r.span("hv.provision")
	defer end()
	return dev.AllocDMA(n)
}

func write(r *runner, dev *guest.Device, buf guest.Buffer, off uint64, data []byte) error {
	end := r.span("guest.Write")
	defer end()
	return dev.Write(buf, off, data)
}

func regs(r *runner, dev *guest.Device, rs ...reg) error {
	end := r.span("hv.provision")
	defer end()
	for _, x := range rs {
		if err := dev.RegWrite(x.i, x.v); err != nil {
			return err
		}
	}
	return nil
}

// cloneTenants clones a provisioned template and re-binds its devices,
// given in creation order, to the clone's virtual accelerators (hv.Clone
// rebuilds each slot's accelerators in attach order).
func cloneTenants(r *runner, tmpl *hv.Hypervisor, devs []*guest.Device) (*hv.Hypervisor, []*guest.Device, error) {
	end := r.span("hv.Clone")
	h, err := tmpl.Clone()
	end()
	if err != nil {
		return nil, nil, err
	}
	next := make([]int, len(h.Phys))
	out := make([]*guest.Device, len(devs))
	for i, d := range devs {
		slot := d.VAccel().Phys().Slot
		vas := h.Phy(slot).VAccels()
		if next[slot] >= len(vas) {
			return nil, nil, fmt.Errorf("clone has %d vaccels on slot %d", len(vas), slot)
		}
		va := vas[next[slot]]
		next[slot]++
		out[i] = d.CloneFor(va.Process(), va)
	}
	return h, out, nil
}

// runToCompletion starts every device's job and runs the kernel until all
// of them have finished.
func runToCompletion(h *hv.Hypervisor, devs []*guest.Device) error {
	done := 0
	for _, d := range devs {
		if err := d.Start(); err != nil {
			return err
		}
		// After Start: OnDone on an idle device fires at once.
		d.OnDone(func() { done++ })
	}
	h.K.RunWhile(func() bool { return done < len(devs) })
	if done < len(devs) {
		return fmt.Errorf("simulation drained with %d of %d jobs done", done, len(devs))
	}
	return nil
}

// outcome is one point's result: its check verdict, its digest, and the
// exact counts and simulated duration it produced.
type outcome struct {
	name    string
	err     error
	digest  digest
	counts  platformCounts
	simTime sim.Time
	clock   sim.Time     // clock period of the accelerator in slot 0
	serve   *serveResult // serve points only
}

func (r *runner) newPoint(name string) outcome {
	r.point++
	return outcome{name: name, digest: newDigest()}
}

// acquired samples a point's freshly cloned platform.
func (o *outcome) acquired(h *hv.Hypervisor) {
	o.counts.resident, o.counts.shared = h.Mem.ResidentBytes(), h.Mem.SharedBytes()
}

// finish reads the point's exact counts, folds them into its digest and
// checks the isolation counters.
func (o *outcome) finish(h *hv.Hypervisor) {
	c := countsOf(h)
	c.resident, c.shared = o.counts.resident, o.counts.shared
	o.counts = c
	o.simTime = h.K.Now()
	o.clock = h.Phy(0).Accel.Clock().Period()
	c.fold(o.digest)
	o.digest.add(uint64(o.simTime))
	if o.err == nil {
		o.err = c.isolation()
	}
}

// end closes a point at its boundary, keeping the platform alive for the
// heap reading.
func (r *runner) end(h *hv.Hypervisor) {
	r.boundary()
	runtime.KeepAlive(h)
}

// simGBps is the points' aggregate tenant DMA bytes per simulated second.
func simGBps(outs []outcome) metric {
	var bytes uint64
	var t sim.Time
	for _, o := range outs {
		bytes += o.counts.bytes
		t += o.simTime
	}
	return metric{"sim_gbps", float64(bytes) / t.Seconds() / 1e9, "GB/s"}
}
