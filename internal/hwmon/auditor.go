package hwmon

import (
	"errors"
	"fmt"

	"optimus/internal/ccip"
	"optimus/internal/mem"
	"optimus/internal/obs"
	"optimus/internal/sim"
)

// ErrRangeViolation is reported when an accelerator's DMA falls outside its
// programmed slicing window. The hardware silently discards the packet; the
// simulation additionally completes the request with this error so callers
// can observe the containment.
var ErrRangeViolation = errors.New("hwmon: DMA outside accelerator window discarded by auditor")

// Auditor guards one physical accelerator (§4.1): it checks MMIO ranges,
// tags outgoing DMA packets with the accelerator ID, verifies the tag on
// responses (discarding foreign packets), and implements page table
// slicing's linear GVA→IOVA rewrite in a single cycle.
type Auditor struct {
	m  *Monitor
	id int

	handler MMIOHandler
	reset   func()

	// Slicing window, programmed through the VCU offset table.
	gvaBase    mem.GVA
	iovaBase   mem.IOVA
	windowSize uint64

	// generation fences responses issued before a reset.
	generation uint64

	// Injection pacing: InjectionCycles tree cycles per request line.
	nextInjectFree sim.Time

	txn          uint64
	bytesRead    uint64
	bytesWritten uint64
	respDropped  uint64
}

func newAuditor(m *Monitor, id int) *Auditor {
	return &Auditor{m: m, id: id}
}

// inflight is the pooled per-request record of the audited DMA path: the
// rewrite metadata, response routing state, and completion target that the
// old closure chain captured per request, carried by value on a recycled
// record. Records live on the monitor's freelist and cycle through
// issue → paced injection → shell completion → downstream delivery; the
// three fire closures are built once per record (capturing only the record
// pointer) and reused forever, so the steady-state path allocates nothing.
type inflight struct {
	m           *Monitor
	fireInject  func() // paced injection into the multiplexer tree
	fireDeliver func() // downstream (response-side) delivery
	fireFault   func() // range-violation error delivery

	a           *Auditor
	gen         uint64 // auditor generation at issue (reset fence)
	gva         uint64 // original guest-virtual address, restored on delivery
	issued      sim.Time
	dataBytes   uint64
	respLines   int // response size on the downstream wire
	creditLines int // root-tree credits held (0 when pass-through)
	done        func(ccip.Response)
	comp        ccip.Completer

	req  ccip.Request  // staged between issue and paced injection
	resp ccip.Response // staged between shell completion and delivery
}

// inject is the paced-injection event: hand the rewritten request to the
// accelerator's tree leaf.
//
//optimus:hotpath
func (fl *inflight) inject() {
	req := fl.req
	fl.req = ccip.Request{} // the tree's queue copy owns the references now
	fl.m.entries[fl.a.id](req)
}

// Complete implements ccip.Completer: the shell's completion event lands
// here. Credits held at the tree root are released first (waking the root
// arbiter exactly where the old closure chain did), then the response is
// staged for the downstream tree crossing.
//
//optimus:hotpath
func (fl *inflight) Complete(resp ccip.Response) {
	m := fl.m
	if fl.creditLines > 0 {
		lines := fl.creditLines
		fl.creditLines = 0
		m.credits.release(lines)
	}
	fl.resp = resp
	m.k.At(m.downstreamAt(fl.respLines), fl.fireDeliver)
}

// deliver is the downstream delivery event: lazy routing (tag check),
// reset fencing, byte accounting, and the GVA/latency rewrite, then the
// record recycles before the completion target runs so a synchronous
// re-issue reuses it immediately.
//
//optimus:hotpath
func (fl *inflight) deliver() {
	m := fl.m
	a := fl.a
	resp := fl.resp
	// Lazy routing: the auditor only forwards packets whose tag names its
	// accelerator and whose generation predates no reset.
	if resp.Tag.AccelID != a.id || fl.gen != a.generation {
		a.respDropped++
		m.stats.DMADropped++
		m.putInflight(fl)
		return
	}
	// Bytes moved: the request's size, counted from the request rather than
	// the payload so timing-only reads (no Data) account like data-carrying
	// ones. A failed read moved nothing; a write's size is reported either way.
	bytes := fl.dataBytes
	if resp.Kind == ccip.RdLine && resp.Err != nil {
		bytes = 0
	}
	if resp.Err == nil {
		switch resp.Kind {
		case ccip.RdLine:
			a.bytesRead += bytes
		case ccip.WrLine:
			a.bytesWritten += bytes
		}
	}
	resp.Addr = fl.gva
	resp.Latency = m.k.Now() - fl.issued
	if m.tr != nil {
		m.tr.EmitSpan(m.k.Now(), obs.KindDMAComplete, obs.PA(a.id),
			obs.MkSpan(a.id, resp.Tag.Txn), uint64(resp.Latency), bytes)
	}
	done, comp := fl.done, fl.comp
	m.putInflight(fl)
	if comp != nil {
		comp.Complete(resp)
	} else {
		done(resp)
	}
}

// fault delivers a range-violation response staged by rangeFault.
func (fl *inflight) fault() {
	resp := fl.resp
	done, comp := fl.done, fl.comp
	fl.m.putInflight(fl)
	if comp != nil {
		comp.Complete(resp)
	} else {
		done(resp)
	}
}

// ID returns the physical accelerator slot this auditor guards.
func (a *Auditor) ID() int { return a.id }

// Window returns the currently programmed slicing window.
func (a *Auditor) Window() (gvaBase mem.GVA, iovaBase mem.IOVA, size uint64) {
	return a.gvaBase, a.iovaBase, a.windowSize
}

// Generation returns the reset generation (bumps on each reset).
func (a *Auditor) Generation() uint64 { return a.generation }

// BytesRead returns the data bytes returned to this accelerator.
func (a *Auditor) BytesRead() uint64 { return a.bytesRead }

// BytesWritten returns the data bytes this accelerator has written.
func (a *Auditor) BytesWritten() uint64 { return a.bytesWritten }

// ResponsesDropped counts responses discarded by the tag check/reset fence.
func (a *Auditor) ResponsesDropped() uint64 { return a.respDropped }

// Translate applies the slicing rewrite to a GVA, reporting whether it is
// inside the window. Exposed for property tests and diagnostics.
//
// This is one of the two sanctioned GVA→IOVA crossing points (the offset
// table of §4.1); the explicit conversion below is what the hardware's
// single-cycle adder performs.
//
//optimus:addrspace-rewrite
//optimus:hotpath
func (a *Auditor) Translate(gva mem.GVA, bytes uint64) (iova mem.IOVA, ok bool) {
	if gva < a.gvaBase || gva+mem.GVA(bytes) > a.gvaBase+mem.GVA(a.windowSize) || gva+mem.GVA(bytes) < gva {
		return 0, false
	}
	return a.iovaBase + mem.IOVA(gva-a.gvaBase), true
}

// Issue implements ccip.Port for the accelerator: requests carry guest
// virtual addresses and are rewritten, tagged, paced, and injected into the
// multiplexer tree. All per-request state lives on a pooled inflight record.
//
//optimus:hotpath
func (a *Auditor) Issue(req ccip.Request) {
	if err := req.Validate(); err != nil {
		panic(err)
	}
	m := a.m
	m.stats.DMARequests++
	if m.tr != nil {
		wb := uint64(req.Lines) << 1
		if req.Kind == ccip.WrLine {
			wb |= 1
		}
		// The span names the transaction number the request is about to be
		// tagged with; a range fault below leaves the counter unconsumed, so
		// the id recurs on the next request — the critical-path analyzer
		// treats such a reissue as superseding the faulted chain.
		m.tr.EmitSpan(m.k.Now(), obs.KindDMAIssue, obs.PA(a.id),
			obs.MkSpan(a.id, a.txn), req.Addr, wb)
	}

	iova, ok := a.Translate(mem.GVA(req.Addr), req.Bytes())
	if !ok {
		a.rangeFault(req)
		return
	}

	fl := m.getInflight()
	fl.a = a
	fl.gen = a.generation
	fl.gva = req.Addr
	fl.issued = req.Issued
	fl.dataBytes = req.Bytes()
	fl.respLines = req.Lines
	if req.Kind == ccip.WrLine {
		fl.respLines = 1 // write acknowledgements carry no data
	}
	fl.done, fl.comp = req.Done, req.Comp

	fl.req = req
	fl.req.Addr = uint64(iova)
	fl.req.Tag = ccip.Tag{AccelID: a.id, Txn: a.txn}
	a.txn++
	fl.req.Done = nil
	fl.req.Comp = fl

	// Injection pacing at the tree boundary.
	start := m.k.Now()
	if a.nextInjectFree > start {
		start = a.nextInjectFree
	}
	service := m.clock.Cycles(int64(req.Lines * m.cfg.InjectionCycles))
	a.nextInjectFree = start + service
	m.k.At(start+service, fl.fireInject)
}

// rangeFault completes a window-violating request with ErrRangeViolation.
// The hardware silently discards the packet, so this is an error path, not
// a hot path — the formatted error may allocate.
func (a *Auditor) rangeFault(req ccip.Request) {
	m := a.m
	m.stats.RangeViolations++
	m.tr.Emit(m.k.Now(), obs.KindDMAFault, obs.PA(a.id), req.Addr, uint64(req.Lines))
	fl := m.getInflight()
	fl.a = a
	fl.done, fl.comp = req.Done, req.Comp
	fl.resp = ccip.Response{Kind: req.Kind, Addr: req.Addr, Tag: req.Tag,
		Err: fmt.Errorf("%w: gva=%#x window=[%#x,+%#x)", ErrRangeViolation, req.Addr, a.gvaBase, a.windowSize)}
	m.k.After(0, fl.fireFault)
}

// InjectForeignResponse delivers a spoofed response to this auditor's
// downstream path — a test hook proving that packets whose tag names a
// different accelerator are discarded rather than forwarded.
func (a *Auditor) InjectForeignResponse(resp ccip.Response, onForward func(ccip.Response)) {
	gen := a.generation
	a.m.deliverDownstream(1, func() {
		if resp.Tag.AccelID != a.id || gen != a.generation {
			a.respDropped++
			a.m.stats.DMADropped++
			return
		}
		onForward(resp)
	})
}
