// Package guest implements the guest-side software stack (§4.3): the
// driver that initializes a virtual accelerator (mapping MMIO, registering
// DMA memory with the hypervisor) and the userspace library that lets an
// application connect to an accelerator, program it through its MMIO
// region, and manage DMA memory with a simple allocator.
package guest

import (
	"encoding/binary"
	"fmt"

	"optimus/internal/accel"
	"optimus/internal/hv"
	"optimus/internal/mem"
	"optimus/internal/sim"
)

// Buffer is an allocation in the process's FPGA-shared DMA region. Addr is
// a guest virtual address, equally valid on the CPU (through the MMU) and
// in the accelerator (through slicing + the IOMMU) — the unified address
// space the shared-memory model provides.
type Buffer struct {
	Addr mem.GVA
	Size uint64
}

// Device is an open connection to one virtual accelerator.
type Device struct {
	proc  *hv.Process
	va    *hv.VAccel
	arena *Arena
}

// Open connects the process to a virtual accelerator: the driver part of
// the stack. It reserves the DMA region (mmap MAP_NORESERVE in the real
// system) and registers its base with the hypervisor via BAR2.
func Open(proc *hv.Process, va *hv.VAccel) (*Device, error) {
	if err := va.BAR2Write(hv.BAR2RegDMABase, uint64(proc.DMABase)); err != nil {
		return nil, err
	}
	d := &Device{
		proc:  proc,
		va:    va,
		arena: NewArena(proc.DMABase, va.SliceSize()),
	}
	return d, nil
}

// CloneFor re-wraps a cloned platform's tenant in a Device carrying this
// device's allocator state. Open replays the BAR2 DMA-base registration on
// a fresh platform; on a clone that registration already happened on the
// template (and was carried over by hv.Clone), so replaying it would skew
// trap counts relative to a from-scratch build. proc and va must be the
// clone-side counterparts of this device's process and virtual accelerator.
func (d *Device) CloneFor(proc *hv.Process, va *hv.VAccel) *Device {
	return &Device{proc: proc, va: va, arena: d.arena.clone()}
}

// VAccel exposes the underlying virtual accelerator (diagnostics).
func (d *Device) VAccel() *hv.VAccel { return d.va }

// AllocDMA allocates n bytes of FPGA-accessible memory: the guest OS backs
// the pages, and the driver registers each with the hypervisor's
// shadow-paging hypercall so the accelerator can DMA them.
func (d *Device) AllocDMA(n uint64) (Buffer, error) {
	if n == 0 {
		return Buffer{}, fmt.Errorf("guest: zero-length allocation")
	}
	addr, err := d.arena.Alloc(n)
	if err != nil {
		return Buffer{}, err
	}
	if err := d.registerRange(addr, n); err != nil {
		d.arena.Free(addr)
		return Buffer{}, err
	}
	return Buffer{Addr: addr, Size: n}, nil
}

// registerRange faults in and hypercall-registers every page of a range.
func (d *Device) registerRange(addr mem.GVA, n uint64) error {
	ps := d.proc.VM().PageSize()
	if err := d.proc.EnsureMapped(addr, n); err != nil {
		return err
	}
	for base := mem.PageBase(addr, ps); base < addr+mem.GVA(n); base += mem.GVA(ps) {
		gpa, err := d.proc.Translate(base)
		if err != nil {
			return err
		}
		if err := d.va.BAR2Write(hv.BAR2RegMapGVA, uint64(base)); err != nil {
			return err
		}
		if err := d.va.BAR2Write(hv.BAR2RegMapGPA, uint64(mem.PageBase(gpa, ps))); err != nil {
			return err
		}
	}
	return nil
}

// FreeDMA releases a buffer back to the allocator. Pages remain registered
// (and pinned) — the paper's design pins FPGA-accessible pages once the
// guest allocates them.
func (d *Device) FreeDMA(b Buffer) { d.arena.Free(b.Addr) }

// Write copies data into a DMA buffer through the CPU side of the shared
// address space.
func (d *Device) Write(b Buffer, off uint64, data []byte) error {
	if off+uint64(len(data)) > b.Size {
		return fmt.Errorf("guest: write beyond buffer")
	}
	return d.proc.Write(b.Addr+mem.GVA(off), data)
}

// Read copies out of a DMA buffer.
func (d *Device) Read(b Buffer, off uint64, out []byte) error {
	if off+uint64(len(out)) > b.Size {
		return fmt.Errorf("guest: read beyond buffer")
	}
	return d.proc.Read(b.Addr+mem.GVA(off), out)
}

// BuildList lays a LinkedList of n nodes (clamped to [2, buf's 64-byte
// slots]) at seeded random slots of buf: each node holds the next node's
// address and a random payload. It returns the head address to program
// into accel.LLArgHead and the payload checksum the walk must produce.
// Every entry point that builds a LinkedList workload uses it, so the same
// (buffer, n, seed) yields the same list everywhere.
func (d *Device) BuildList(buf Buffer, n int, seed uint64) (head, sum uint64, err error) {
	slots := int(buf.Size / 64)
	n = min(max(n, 2), slots)
	rng := sim.NewRand(seed ^ 0x11)
	order := rng.Sample(slots, n)
	node := make([]byte, 64)
	for i, slot := range order {
		var next uint64
		if i+1 < n {
			next = uint64(buf.Addr) + uint64(order[i+1])*64
		}
		payload := rng.Uint64()
		sum += payload
		binary.LittleEndian.PutUint64(node, next)
		binary.LittleEndian.PutUint64(node[8:], payload)
		if err := d.Write(buf, uint64(slot)*64, node); err != nil {
			return 0, 0, err
		}
	}
	return uint64(buf.Addr) + uint64(order[0])*64, sum, nil
}

// RegWrite programs application register i (a trapped BAR0 access).
func (d *Device) RegWrite(i int, v uint64) error {
	return d.va.BAR0Write(accel.RegArgBase+uint64(8*i), v)
}

// RegRead reads application register i.
func (d *Device) RegRead(i int) (uint64, error) {
	return d.va.BAR0Read(accel.RegArgBase + uint64(8*i))
}

// SetupStateBuffer allocates the preemption state buffer the accelerator
// asked for (RegStateSize) and points RegStateAddr at it (§4.2: the
// accelerator informs OPTIMUS how much memory its execution state needs;
// the guest provides the buffer).
func (d *Device) SetupStateBuffer() (Buffer, error) {
	size, err := d.va.BAR0Read(accel.RegStateSize)
	if err != nil {
		return Buffer{}, err
	}
	buf, err := d.AllocDMA(size)
	if err != nil {
		return Buffer{}, err
	}
	if err := d.va.BAR0Write(accel.RegStateAddr, uint64(buf.Addr)); err != nil {
		return Buffer{}, err
	}
	return buf, nil
}

// Reset abandons any in-flight job and clears the accelerator's registers
// (the library's reset entry point, §4.3).
func (d *Device) Reset() { d.va.GuestReset() }

// Close disconnects from the virtual accelerator, releasing its IOVA slice
// and unpinning its registered pages. The Device must not be used after.
func (d *Device) Close() {
	d.va.GuestReset()
	d.va.Close()
}

// Start launches the programmed job.
func (d *Device) Start() error {
	return d.va.BAR0Write(accel.RegCtrl, accel.CmdStart)
}

// Status reads the (virtualized) status register.
func (d *Device) Status() (uint64, error) {
	return d.va.BAR0Read(accel.RegStatus)
}

// WorkDone reads the job progress counter.
func (d *Device) WorkDone() (uint64, error) {
	return d.va.BAR0Read(accel.RegWorkDone)
}

// OnDone registers a completion callback for the running job.
func (d *Device) OnDone(fn func()) { d.va.OnDone(fn) }

// Run starts the job and drives the simulation until it completes,
// returning the job's terminal error if it failed. Single-tenant
// convenience; concurrent experiments drive the kernel themselves.
func (d *Device) Run() error {
	if err := d.Start(); err != nil {
		return err
	}
	return d.Wait()
}

// Wait drives the simulation until the in-flight job completes.
func (d *Device) Wait() error {
	k := d.va.Phys().Accel.Kernel()
	done := false
	d.va.OnDone(func() { done = true })
	k.RunWhile(func() bool { return !done })
	if !done {
		st, _ := d.Status()
		return fmt.Errorf("guest: simulation drained with job in state %s", accel.StatusName(st))
	}
	return d.va.Failed()
}
