package accel

import (
	"fmt"

	"optimus/internal/ccip"
	"optimus/internal/sim"
)

// MemBench application registers.
const (
	MBArgBase     = 0 // working set base GVA
	MBArgSize     = 1 // working set size in bytes
	MBArgBursts   = 2 // bursts to issue (0 = run until preempted)
	MBArgWritePct = 3 // percentage of bursts that are writes
	MBArgBurst    = 4 // burst length in lines (default 8)
	MBArgSeed     = 5 // RNG seed
)

// MemBench concurrently issues random DMA reads and writes to saturate the
// platform's bandwidth (§6.1). Random addresses defeat memory locality and
// produce worst-case IOTLB behaviour. Synthesized at 400 MHz; conforms to
// the preemption interface.
type MemBench struct {
	rng       *sim.Rand
	remaining uint64
	infinite  bool

	base, size uint64
	burst      int
	writePct   uint64

	// The allocation-free completion path, built by bind once per job and
	// dropped by RestoreState and ResetLogic: the accelerator, the
	// completion of the timing-only reads, and the pool of idle write
	// payloads.
	a      *Accel
	onRead func(error)
	wfree  []*mbWrite
}

// mbWrite is one pooled write burst: a payload and the completion that
// returns it to the pool. The shell writes the payload to memory before the
// completion is delivered, so the buffer is free again once done runs.
type mbWrite struct {
	buf  []byte
	done func(error)
}

// NewMemBench returns the MB logic.
func NewMemBench() *MemBench { return &MemBench{} }

// Name implements Logic.
func (m *MemBench) Name() string { return "MB" }

// FreqMHz implements Logic: MB closes timing at the full 400 MHz.
func (m *MemBench) FreqMHz() int { return 400 }

// StateBytes implements Logic: RNG state + progress + config.
func (m *MemBench) StateBytes() int { return 8*4 + 8 + 8 + 8 + 8 + 8 + 8 }

// Start implements Logic.
func (m *MemBench) Start(a *Accel) {
	m.base = a.Arg(MBArgBase)
	m.size = a.Arg(MBArgSize)
	m.burst = int(a.Arg(MBArgBurst))
	if m.burst <= 0 {
		m.burst = 4 // CCI-P's maximum multi-line request (cl_len = 4)
	}
	m.writePct = a.Arg(MBArgWritePct)
	m.remaining = a.Arg(MBArgBursts)
	m.infinite = m.remaining == 0
	m.rng = sim.NewRand(a.Arg(MBArgSeed) ^ 0x3b)
	if m.size < uint64(m.burst)*ccip.LineSize {
		a.Fail(fmt.Errorf("membench: working set %d smaller than one burst", m.size))
		return
	}
	a.SetWindow(64) // enough in-flight lines to cover the bandwidth-delay product
	m.bind(a)
}

// bind builds the job's completion path on a (see the fields). A fresh pool
// per job means a write still in flight across a reset never shares a
// buffer with the new job's writes.
func (m *MemBench) bind(a *Accel) {
	m.a = a
	m.onRead = m.readDone
	m.wfree = nil
}

// getWrite pops an idle write burst, growing the pool up to the issue
// window. A recycled payload still holds its previous header; the rest of
// it is zero, because nothing but the header is ever written into it.
//
//optimus:hotpath
func (m *MemBench) getWrite() *mbWrite {
	if n := len(m.wfree); n > 0 {
		w := m.wfree[n-1]
		m.wfree = m.wfree[:n-1]
		return w
	}
	return m.newWrite()
}

func (m *MemBench) newWrite() *mbWrite {
	w := &mbWrite{buf: make([]byte, m.burst*ccip.LineSize)}
	w.done = func(err error) {
		m.wfree = append(m.wfree, w)
		m.writeDone(err)
	}
	return w
}

// readDone completes one timing-only read burst.
//
//optimus:hotpath
func (m *MemBench) readDone(err error) {
	if err != nil {
		m.a.Fail(fmt.Errorf("membench read: %w", err))
		return
	}
	m.a.AddWork(uint64(m.burst) * ccip.LineSize)
}

// writeDone completes one write burst.
//
//optimus:hotpath
func (m *MemBench) writeDone(err error) {
	if err != nil {
		m.a.Fail(fmt.Errorf("membench write: %w", err))
		return
	}
	m.a.AddWork(uint64(m.burst) * ccip.LineSize)
}

// Pump implements Logic. Reads are timing-only (the data is discarded);
// writes carry an 8-byte pattern header from the RNG and zeros, taken from
// the write pool.
//
//optimus:hotpath
func (m *MemBench) Pump(a *Accel) {
	if m.onRead == nil {
		m.bind(a) // first pump after RestoreState
	}
	for a.CanIssue() {
		if !m.infinite && m.remaining == 0 {
			if a.Status() == StatusRunning {
				a.JobDone()
			}
			return
		}
		if !m.infinite {
			m.remaining--
		}
		bytes := uint64(m.burst) * ccip.LineSize
		slots := (m.size - bytes) / ccip.LineSize
		addr := m.base + m.rng.Uint64n(slots+1)*ccip.LineSize
		if m.rng.Uint64n(100) < m.writePct {
			w := m.getWrite()
			m.rng.Fill(w.buf[:8]) // pattern header; rest zero (hardware writes junk)
			a.Write(addr, w.buf, w.done)
		} else {
			a.ReadDiscard(addr, m.burst, m.onRead)
		}
	}
}

// SaveState implements Logic.
func (m *MemBench) SaveState() []byte {
	buf := make([]byte, m.StateBytes())
	off := 0
	put := func(v uint64) { putU64(buf[off:], v); off += 8 }
	for _, w := range m.rng.State() {
		put(w)
	}
	put(m.remaining)
	put(boolU64(m.infinite))
	put(m.base)
	put(m.size)
	put(uint64(m.burst))
	put(m.writePct)
	return buf
}

// RestoreState implements Logic.
func (m *MemBench) RestoreState(data []byte) error {
	if len(data) < m.StateBytes() {
		return fmt.Errorf("membench: short state (%d bytes)", len(data))
	}
	off := 0
	get := func() uint64 { v := getU64(data[off:]); off += 8; return v }
	var ws [4]uint64
	for i := range ws {
		ws[i] = get()
	}
	m.rng = sim.RandFromState(ws)
	m.remaining = get()
	m.infinite = get() != 0
	m.base = get()
	m.size = get()
	m.burst = int(get())
	m.writePct = get()
	m.a, m.onRead, m.wfree = nil, nil, nil
	if m.burst <= 0 {
		return fmt.Errorf("membench: corrupt state (burst %d)", m.burst)
	}
	return nil
}

// ResetLogic implements Logic.
func (m *MemBench) ResetLogic() { *m = MemBench{} }

func boolU64(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
