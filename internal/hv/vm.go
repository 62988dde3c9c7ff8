package hv

import (
	"fmt"

	"optimus/internal/mem"
	"optimus/internal/pagetable"
)

// VM is one guest virtual machine: a guest-physical address space backed by
// host frames through an extended page table.
//
//optimus:state
type VM struct {
	hv   *Hypervisor //optimus:clone-skip owner backpointer, set by the clone's NewVM replay
	ID   int         //optimus:clone-skip reassigned by NewVM replay; the nextVMID copy preserves numbering
	Name string

	memBytes uint64
	ept      *pagetable.Table[mem.GPA, mem.HPA]
	gpaNext  mem.GPA

	procs []*Process
}

// NewVM creates a guest with the given memory size (the paper allocates
// 10 GB per guest).
func (h *Hypervisor) NewVM(name string, memBytes uint64) (*VM, error) {
	if memBytes == 0 || memBytes > h.cfg.MemBytes {
		return nil, fmt.Errorf("hv: vm memory %d out of range", memBytes)
	}
	vm := &VM{
		hv:       h,
		ID:       h.nextVMID,
		Name:     name,
		memBytes: memBytes,
		ept:      pagetable.New[mem.GPA, mem.HPA](h.cfg.PageSize, pagetable.Levels(h.cfg.PageSize)),
	}
	h.nextVMID++
	h.vms = append(h.vms, vm)
	return vm, nil
}

// PageSize returns the guest page size.
func (vm *VM) PageSize() uint64 { return vm.hv.cfg.PageSize }

// allocGPA hands out a fresh guest-physical page backed by a host frame.
func (vm *VM) allocGPA() (mem.GPA, error) {
	ps := vm.hv.cfg.PageSize
	if uint64(vm.gpaNext)+ps > vm.memBytes {
		return 0, fmt.Errorf("hv: vm %q out of guest memory (%d bytes)", vm.Name, vm.memBytes)
	}
	gpa := vm.gpaNext
	vm.gpaNext += mem.GPA(ps)
	hpa, err := vm.hv.frames.Alloc(ps)
	if err != nil {
		return 0, err
	}
	if err := vm.ept.Map(gpa, hpa, pagetable.PermRW); err != nil {
		return 0, err
	}
	return gpa, nil
}

// TranslateGPA resolves a guest-physical address to host-physical.
func (vm *VM) TranslateGPA(gpa mem.GPA) (mem.HPA, error) {
	return vm.ept.Translate(gpa, pagetable.PermRead)
}

// Process is a guest process owning a guest-virtual address space. The DMA
// region the process shares with its accelerator lives at DMABase.
//
//optimus:state
type Process struct {
	vm *VM //optimus:clone-skip owner backpointer, set by the clone's NewProcess replay
	pt *pagetable.Table[mem.GVA, mem.GPA]

	// DMABase is where the guest library mmap()s its MAP_NORESERVE slice
	// reservation (§5, "Page Table Slicing").
	DMABase mem.GVA
}

// DefaultDMABase is the guest-virtual base of the reserved DMA region.
const DefaultDMABase = 0x40_0000_0000

// NewProcess creates a guest process.
func (vm *VM) NewProcess() *Process {
	p := &Process{
		vm:      vm,
		pt:      pagetable.New[mem.GVA, mem.GPA](vm.hv.cfg.PageSize, pagetable.Levels(vm.hv.cfg.PageSize)),
		DMABase: DefaultDMABase,
	}
	vm.procs = append(vm.procs, p)
	return p
}

// VM returns the owning virtual machine.
func (p *Process) VM() *VM { return p.vm }

// EnsureMapped demand-allocates guest pages covering [gva, gva+size) —
// the guest OS page-faulting in anonymous memory.
func (p *Process) EnsureMapped(gva mem.GVA, size uint64) error {
	ps := p.vm.PageSize()
	for base := mem.PageBase(gva, ps); base < gva+mem.GVA(size); base += mem.GVA(ps) {
		if _, ok := p.pt.Lookup(base); ok {
			continue
		}
		gpa, err := p.vm.allocGPA()
		if err != nil {
			return err
		}
		if err := p.pt.Map(base, gpa, pagetable.PermRW); err != nil {
			return err
		}
	}
	return nil
}

// Translate resolves GVA → GPA (the guest MMU's job).
func (p *Process) Translate(gva mem.GVA) (mem.GPA, error) {
	return p.pt.Translate(gva, pagetable.PermRead)
}

// TranslateToHPA resolves GVA → GPA → HPA.
func (p *Process) TranslateToHPA(gva mem.GVA) (mem.HPA, error) {
	gpa, err := p.pt.Translate(gva, pagetable.PermRead)
	if err != nil {
		return 0, err
	}
	return p.vm.ept.Translate(gpa, pagetable.PermRead)
}

// Write copies data into the process's address space (mapping pages on
// demand), crossing page boundaries as needed.
func (p *Process) Write(gva mem.GVA, data []byte) error {
	if err := p.EnsureMapped(gva, uint64(len(data))); err != nil {
		return err
	}
	ps := p.vm.PageSize()
	for len(data) > 0 {
		hpa, err := p.TranslateToHPA(gva)
		if err != nil {
			return err
		}
		n := ps - mem.PageOff(gva, ps)
		if n > uint64(len(data)) {
			n = uint64(len(data))
		}
		p.vm.hv.Mem.Write(hpa, data[:n])
		data = data[n:]
		gva += mem.GVA(n)
	}
	return nil
}

// Read copies from the process's address space into b.
func (p *Process) Read(gva mem.GVA, b []byte) error {
	ps := p.vm.PageSize()
	for len(b) > 0 {
		hpa, err := p.TranslateToHPA(gva)
		if err != nil {
			return err
		}
		n := ps - mem.PageOff(gva, ps)
		if n > uint64(len(b)) {
			n = uint64(len(b))
		}
		p.vm.hv.Mem.Read(hpa, b[:n])
		b = b[n:]
		gva += mem.GVA(n)
	}
	return nil
}

// WriteU64 writes one little-endian word at gva.
func (p *Process) WriteU64(gva mem.GVA, v uint64) error {
	var b [8]byte
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
	return p.Write(gva, b[:])
}

// ReadU64 reads one little-endian word at gva.
func (p *Process) ReadU64(gva mem.GVA) (uint64, error) {
	var b [8]byte
	if err := p.Read(gva, b[:]); err != nil {
		return 0, err
	}
	var v uint64
	for i := range b {
		v |= uint64(b[i]) << (8 * i)
	}
	return v, nil
}
