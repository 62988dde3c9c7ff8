package accel

import (
	"fmt"

	"optimus/internal/ccip"
)

// LinkedList application registers.
const (
	LLArgHead     = 0 // GVA of the first node
	LLArgMaxNodes = 1 // stop after this many nodes (0 = walk to the end)
	LLArgChecksum = 2 // result: sum of node payloads (written by the accel)
)

// LLNextOffset and LLPayloadOffset define the 64-byte node layout: the
// next-pointer GVA in the first 8 bytes (0 terminates), a payload word next.
const (
	LLNextOffset    = 0
	LLPayloadOffset = 8
)

// LinkedList sequentially fetches cache-line-sized nodes of a linked list
// distributed randomly in DRAM (§6.1). With a single outstanding request it
// is a pure latency benchmark — every hop pays the full round trip — making
// it the worst case for latency-bound, pointer-chasing workloads.
// Synthesized at 400 MHz; conforms to the preemption interface.
type LinkedList struct {
	cur      uint64
	visited  uint64
	limit    uint64
	checksum uint64

	// The allocation-free read path, built by bind once per job and
	// dropped by RestoreState and ResetLogic: the accelerator, the node
	// buffer every read lands in (the window is 1, so one node is in
	// flight at a time), and the completion that visits it. A fresh buffer
	// per job keeps a read still in flight across a reset from landing in
	// the new job's node.
	a      *Accel
	node   []byte
	onNode func(data []byte, err error)
}

// NewLinkedList returns the LL logic.
func NewLinkedList() *LinkedList { return &LinkedList{} }

// Name implements Logic.
func (l *LinkedList) Name() string { return "LL" }

// FreqMHz implements Logic.
func (l *LinkedList) FreqMHz() int { return 400 }

// StateBytes implements Logic: the minimal state the paper highlights —
// essentially the address of the next node (§4.2), plus progress counters.
func (l *LinkedList) StateBytes() int { return 32 }

// Start implements Logic.
func (l *LinkedList) Start(a *Accel) {
	l.cur = a.Arg(LLArgHead)
	l.limit = a.Arg(LLArgMaxNodes)
	l.visited = 0
	l.checksum = 0
	a.SetWindow(1) // single outstanding request: latency-bound by design
	l.bind(a)
}

// bind builds the job's read path on a (see the fields).
func (l *LinkedList) bind(a *Accel) {
	l.a = a
	l.node = make([]byte, ccip.LineSize)
	l.onNode = l.visit
}

// Pump implements Logic.
//
//optimus:hotpath
func (l *LinkedList) Pump(a *Accel) {
	if l.onNode == nil {
		l.bind(a) // first pump after RestoreState
	}
	if !a.CanIssue() {
		return
	}
	if l.cur == 0 || (l.limit > 0 && l.visited >= l.limit) {
		a.SetArg(LLArgChecksum, l.checksum)
		a.JobDone()
		return
	}
	a.ReadInto(l.cur&^(ccip.LineSize-1), 1, l.node, l.onNode)
}

// visit completes one node read: follow the next pointer and add the
// payload.
//
//optimus:hotpath
func (l *LinkedList) visit(data []byte, err error) {
	if err != nil {
		l.fail(err)
		return
	}
	l.cur = getU64(data[LLNextOffset:])
	l.checksum += getU64(data[LLPayloadOffset:])
	l.visited++
	l.a.AddWork(1)
}

// fail reports a faulted node read; l.cur still names the node.
func (l *LinkedList) fail(err error) {
	l.a.Fail(fmt.Errorf("linkedlist node at %#x: %w", l.cur&^(ccip.LineSize-1), err))
}

// SaveState implements Logic.
func (l *LinkedList) SaveState() []byte {
	buf := make([]byte, l.StateBytes())
	putU64(buf[0:], l.cur)
	putU64(buf[8:], l.visited)
	putU64(buf[16:], l.limit)
	putU64(buf[24:], l.checksum)
	return buf
}

// RestoreState implements Logic.
func (l *LinkedList) RestoreState(data []byte) error {
	if len(data) < l.StateBytes() {
		return fmt.Errorf("linkedlist: short state (%d bytes)", len(data))
	}
	l.cur = getU64(data[0:])
	l.visited = getU64(data[8:])
	l.limit = getU64(data[16:])
	l.checksum = getU64(data[24:])
	l.a, l.node, l.onNode = nil, nil, nil
	return nil
}

// ResetLogic implements Logic.
func (l *LinkedList) ResetLogic() { *l = LinkedList{} }
