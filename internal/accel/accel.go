// Package accel provides the accelerator framework and the fourteen
// benchmark accelerators used in the paper's evaluation (Table 1). Each
// accelerator is a functional hardware model: it computes the real function
// (AES actually encrypts, SSSP actually finds shortest paths) while issuing
// CCI-P DMAs with the design's access pattern and charging compute cycles at
// the design's synthesized clock frequency.
//
// Every accelerator exposes the OPTIMUS preemption interface (§4.2): a set
// of privileged control registers for starting, preempting, and resuming
// jobs, and for saving/restoring internal execution state to a
// guest-provided buffer in system memory. (On the real platform only
// MemBench and LinkedList conform to the interface; modelling it everywhere
// lets the simulation explore the paper's estimated worst cases, e.g. MD5 in
// §6.6.)
package accel

import (
	"fmt"

	"optimus/internal/ccip"
	"optimus/internal/obs"
	"optimus/internal/sim"
)

// Control and status register layout. Control registers (below RegArgBase)
// are privileged: guests never access them directly — the hypervisor traps
// and emulates (§4.2). Registers from RegArgBase up are application
// registers.
const (
	RegCtrl         = 0x00 // WO: command
	RegStatus       = 0x08 // RO: Status*
	RegStateSize    = 0x10 // RO: bytes of preemption state
	RegStateAddr    = 0x18 // RW: GVA of the preemption state buffer
	RegBytesRead    = 0x20 // RO: perf counter
	RegBytesWritten = 0x28 // RO: perf counter
	RegWorkDone     = 0x30 // RO: logic-specific progress counter
	RegArgBase      = 0x40 // RW: application registers (8 bytes each)
	NumArgRegs      = 16
)

// Commands accepted by RegCtrl.
const (
	CmdStart   = 1
	CmdPreempt = 2
	CmdResume  = 3
)

// Status values reported by RegStatus.
const (
	StatusIdle uint64 = iota
	StatusRunning
	StatusSaving
	StatusSaved
	StatusLoading
	StatusDone
	StatusError
)

// StatusName renders a status value.
func StatusName(s uint64) string {
	names := []string{"idle", "running", "saving", "saved", "loading", "done", "error"}
	if int(s) < len(names) {
		return names[s]
	}
	return fmt.Sprintf("status(%d)", s)
}

// Logic is the accelerator-specific behaviour plugged into the framework.
type Logic interface {
	// Name is the Table 1 abbreviation (e.g. "AES").
	Name() string
	// FreqMHz is the synthesized clock frequency.
	FreqMHz() int
	// StateBytes is the preemption state footprint the accelerator reports
	// at initialization (§4.2).
	StateBytes() int
	// Start begins a fresh job from the application registers.
	Start(a *Accel)
	// Pump issues DMA/compute work while a.CanIssue() holds. The framework
	// calls it after Start, after every completion, and after Resume.
	Pump(a *Accel)
	// SaveState serializes execution state (≤ StateBytes()).
	SaveState() []byte
	// RestoreState reinstates a SaveState checkpoint.
	RestoreState(data []byte) error
	// ResetLogic clears all internal state (hardware reset).
	ResetLogic()
}

// Accel couples a Logic with the framework machinery: MMIO register file,
// DMA issue helpers, outstanding-request tracking, and the preemption state
// machine.
type Accel struct {
	logic Logic
	k     *sim.Kernel
	port  ccip.Port
	clock sim.Clock

	status    uint64
	stateAddr uint64
	args      [NumArgRegs]uint64

	window      int
	outstanding int
	epoch       uint64 // bumps on reset; stale completions are ignored
	preempting  bool
	computeFree sim.Time // datapath busy-until watermark

	bytesRead    uint64
	bytesWritten uint64
	workDone     uint64

	jobsDone   uint64
	latency    *sim.LatencyStat
	lastErr    error
	statusHook func(uint64)
	forcedVC   ccip.Channel
	tr         *obs.Tracer // nil = tracing disabled
	slot       int         // physical slot for trace actor identity

	// savedInPlace holds preemption state when no DMA buffer was provided.
	savedInPlace []byte

	// opFree pools the per-DMA completion records (see dmaOp), making the
	// framework's issue/complete cycle allocation-free in steady state.
	opFree []*dmaOp
}

// dmaOp is the pooled per-request record of the framework's DMA/compute
// completion path. It carries by value what the old wrapper closures in
// Read/Write/Compute captured per request, implements ccip.Completer for the
// DMA kinds, and recycles itself before invoking the logic callback so a
// synchronous re-issue reuses it immediately.
type dmaOp struct {
	a    *Accel
	fire func() // compute-completion event, built once per record

	epoch uint64
	n     uint64 // bytes the request moves
	read  bool   // n counts toward bytesRead
	// Exactly one completion is set: rdone for Read and ReadInto, wdone for
	// Write and the timing-only ReadDiscard, cfn for Compute.
	rdone func(data []byte, err error)
	wdone func(err error)
	cfn   func()
}

//optimus:hotpath
func (a *Accel) getOp() *dmaOp {
	if n := len(a.opFree); n > 0 {
		op := a.opFree[n-1]
		a.opFree[n-1] = nil
		a.opFree = a.opFree[:n-1]
		return op
	}
	op := &dmaOp{a: a}
	op.fire = op.computeDone
	return op
}

//optimus:hotpath
func (a *Accel) putOp(op *dmaOp) {
	op.rdone = nil
	op.wdone = nil
	op.cfn = nil
	a.opFree = append(a.opFree, op)
}

// Complete implements ccip.Completer for Read, ReadDiscard and Write:
// epoch fencing, latency/byte accounting, the logic callback, then the
// preemption/pump hook. Bytes are counted from the request, so a
// timing-only read (no payload) accounts exactly like a data-carrying one.
//
//optimus:hotpath
func (op *dmaOp) Complete(r ccip.Response) {
	a := op.a
	epoch, n, read := op.epoch, op.n, op.read
	rdone, wdone := op.rdone, op.wdone
	a.putOp(op)
	if epoch != a.epoch {
		return // reset happened while in flight
	}
	a.outstanding--
	a.latency.Observe(r.Latency)
	if r.Err == nil {
		if read {
			a.bytesRead += n
		} else {
			a.bytesWritten += n
		}
	}
	if rdone != nil {
		rdone(r.Data, r.Err)
	} else {
		wdone(r.Err)
	}
	a.afterCompletion()
}

// computeDone is the datapath-completion event scheduled by Compute.
//
//optimus:hotpath
func (op *dmaOp) computeDone() {
	a := op.a
	epoch, cfn := op.epoch, op.cfn
	a.putOp(op)
	if epoch != a.epoch {
		return
	}
	a.outstanding--
	cfn()
	a.afterCompletion()
}

// paddedLogic inflates a logic's preemption state footprint — used to
// study worst-case context-switch overhead (§6.6: assume every resource a
// design occupies must be saved).
type paddedLogic struct {
	Logic
	pad int
}

func (p paddedLogic) StateBytes() int { return p.Logic.StateBytes() + p.pad }

func (p paddedLogic) SaveState() []byte {
	return append(p.Logic.SaveState(), make([]byte, p.pad)...)
}

// PadState inflates a's preemption state by pad bytes. Call before any job
// starts.
func PadState(a *Accel, pad int) {
	a.logic = paddedLogic{Logic: a.logic, pad: pad}
}

// New wraps logic in a framework instance.
func New(logic Logic) *Accel {
	return &Accel{
		logic:   logic,
		clock:   sim.NewClock(logic.FreqMHz()),
		window:  16,
		latency: sim.NewLatencyStat(1024, 0xacce1),
	}
}

// Attach connects the accelerator to the simulation kernel and its DMA port
// (an auditor under OPTIMUS, the shell directly under pass-through).
func (a *Accel) Attach(k *sim.Kernel, port ccip.Port) {
	a.k = k
	a.port = port
}

// Name returns the logic name.
func (a *Accel) Name() string { return a.logic.Name() }

// Logic returns the wrapped logic (for test inspection).
func (a *Accel) Logic() Logic { return a.logic }

// Kernel returns the attached simulation kernel.
func (a *Accel) Kernel() *sim.Kernel { return a.k }

// Clock returns the accelerator's clock domain.
func (a *Accel) Clock() sim.Clock { return a.clock }

// Status returns the current status register value.
func (a *Accel) Status() uint64 { return a.status }

// LastErr returns the error that moved the accelerator to StatusError.
func (a *Accel) LastErr() error { return a.lastErr }

// JobsDone counts completed jobs.
func (a *Accel) JobsDone() uint64 { return a.jobsDone }

// WorkDone returns the logic-specific progress counter.
func (a *Accel) WorkDone() uint64 { return a.workDone }

// AddWork advances the progress counter (called by logic).
func (a *Accel) AddWork(n uint64) { a.workDone += n }

// SetWorkDone overwrites the progress counter (used by state restore).
func (a *Accel) SetWorkDone(n uint64) { a.workDone = n }

// BytesRead returns the accelerator's own read-byte counter.
func (a *Accel) BytesRead() uint64 { return a.bytesRead }

// BytesWritten returns the accelerator's own written-byte counter.
func (a *Accel) BytesWritten() uint64 { return a.bytesWritten }

// DMALatency exposes the accelerator-observed DMA latency distribution.
func (a *Accel) DMALatency() *sim.LatencyStat { return a.latency }

// SetWindow adjusts the outstanding-request window (logic calls in Start;
// e.g. LinkedList uses 1 to be latency-bound).
func (a *Accel) SetWindow(n int) {
	if n < 1 {
		n = 1
	}
	a.window = n
}

// Arg returns application register i.
func (a *Accel) Arg(i int) uint64 { return a.args[i] }

// SetArg sets application register i (logic may publish results this way).
func (a *Accel) SetArg(i int, v uint64) { a.args[i] = v }

// OnStatusChange installs a hook invoked with each new status value (the
// hypervisor uses it to wake schedulers instead of polling).
func (a *Accel) OnStatusChange(fn func(uint64)) { a.statusHook = fn }

// SetTracer attaches tr to the framework's status-transition path, reporting
// events as physical slot `slot` (nil disables tracing).
func (a *Accel) SetTracer(tr *obs.Tracer, slot int) {
	a.tr = tr
	a.slot = slot
}

func (a *Accel) setStatus(s uint64) {
	a.status = s
	if a.tr != nil && a.k != nil {
		// Span = job index, so status transitions group per job.
		a.tr.EmitSpan(a.k.Now(), obs.KindAccelStatus, obs.PA(a.slot), uint32(a.jobsDone), s, 0)
	}
	if a.statusHook != nil {
		a.statusHook(s)
	}
}

// CanIssue reports whether logic may issue more work right now.
func (a *Accel) CanIssue() bool {
	return a.status == StatusRunning && !a.preempting && a.outstanding < a.window
}

// Idle reports whether no DMA or compute work is in flight.
func (a *Accel) Idle() bool { return a.outstanding == 0 }

// Preempting reports whether a preemption drain is in progress. Conforming
// logic never needs it (CanIssue already gates new work); it exists so
// adversarial models can detect the drain and deliberately keep the
// datapath busy (see Adversary).
func (a *Accel) Preempting() bool { return a.preempting }

// Fail moves the accelerator to the error state (bad job parameters, DMA
// fault). Real hardware would raise an interrupt; software observes STATUS.
func (a *Accel) Fail(err error) {
	a.lastErr = err
	a.setStatus(StatusError)
}

// JobDone marks the current job complete.
func (a *Accel) JobDone() {
	a.jobsDone++
	a.setStatus(StatusDone)
}

// complete is the bookkeeping shared by every DMA/compute completion.
func (a *Accel) complete(epoch uint64) bool {
	if epoch != a.epoch {
		return false // reset happened while in flight
	}
	a.outstanding--
	return true
}

// afterCompletion drives the drain-then-save preemption handshake and
// repumps the logic.
func (a *Accel) afterCompletion() {
	if a.preempting {
		if a.outstanding == 0 && a.status == StatusSaving {
			a.saveState()
		}
		return
	}
	if a.status == StatusRunning {
		a.logic.Pump(a)
	}
}

// Read issues a DMA read of lines cache lines at GVA addr.
//
//optimus:hotpath
func (a *Accel) Read(addr uint64, lines int, done func(data []byte, err error)) {
	a.readInto(addr, lines, nil, done)
}

// ReadInto is Read with a caller-owned destination buffer (≥ lines*64 bytes):
// the response data aliases dst instead of a fresh allocation. The caller
// must not reuse dst until done fires.
//
//optimus:hotpath
func (a *Accel) ReadInto(addr uint64, lines int, dst []byte, done func(data []byte, err error)) {
	a.readInto(addr, lines, dst, done)
}

//optimus:hotpath
func (a *Accel) readInto(addr uint64, lines int, dst []byte, done func(data []byte, err error)) {
	op := a.readOp(lines)
	op.rdone = done
	a.port.Issue(ccip.Request{
		Kind: ccip.RdLine, Addr: addr, Lines: lines, Dst: dst,
		VC: a.vc(), Issued: a.k.Now(), Comp: op,
	})
}

// ReadDiscard issues a timing-only DMA read of lines cache lines at GVA
// addr, for logic that throws the data away. The request is audited,
// translated, timed and bounds-checked like Read, and counts the same
// bytes, but no payload is copied or allocated; done sees only the error.
//
//optimus:hotpath
func (a *Accel) ReadDiscard(addr uint64, lines int, done func(err error)) {
	op := a.readOp(lines)
	op.wdone = done
	a.port.Issue(ccip.Request{
		Kind: ccip.RdLine, Addr: addr, Lines: lines, Discard: true,
		VC: a.vc(), Issued: a.k.Now(), Comp: op,
	})
}

// readOp opens the completion record of a read of lines cache lines.
//
//optimus:hotpath
func (a *Accel) readOp(lines int) *dmaOp {
	a.outstanding++
	op := a.getOp()
	op.epoch = a.epoch
	op.n = uint64(lines) * ccip.LineSize
	op.read = true
	return op
}

// Write issues a DMA write at GVA addr; len(data) must be a multiple of 64.
//
//optimus:hotpath
func (a *Accel) Write(addr uint64, data []byte, done func(err error)) {
	a.outstanding++
	op := a.getOp()
	op.epoch = a.epoch
	op.n = uint64(len(data))
	op.read = false
	op.wdone = done
	a.port.Issue(ccip.Request{
		Kind: ccip.WrLine, Addr: addr, Lines: len(data) / ccip.LineSize, Data: data,
		VC: a.vc(), Issued: a.k.Now(), Comp: op,
	})
}

// Compute occupies the datapath for the given cycles, then runs fn.
// Successive Compute calls serialize — an accelerator has one datapath, so
// its compute throughput is 1/cycles regardless of how many chunks are
// buffered. Pending computation counts as outstanding work for preemption
// draining.
//
//optimus:hotpath
func (a *Accel) Compute(cycles int64, fn func()) {
	a.outstanding++
	op := a.getOp()
	op.epoch = a.epoch
	op.cfn = fn
	start := a.k.Now()
	if a.computeFree > start {
		start = a.computeFree
	}
	end := start + a.clock.Cycles(cycles)
	a.computeFree = end
	a.k.At(end, op.fire)
}

// channel preference: accelerators use automatic selection unless a test or
// experiment overrides it via SetChannel.
func (a *Accel) vc() ccip.Channel { return a.forcedVC }

// SetChannel pins all of the accelerator's DMAs to one channel (used by the
// LinkedList experiments' UPI-only / PCIe-only configurations).
func (a *Accel) SetChannel(vc ccip.Channel) { a.forcedVC = vc }
