package accel

import (
	"fmt"

	"optimus/internal/ccip"
	"optimus/internal/sim"
)

// Adversary application registers.
const (
	AdvArgBase = 0 // legitimate working-set base GVA
	AdvArgSize = 1 // legitimate working-set size in bytes
	AdvArgOps  = 2 // bursts to issue (0 = run until preempted)
	AdvArgMode = 3 // bitmask of Adv* behaviours (0 = behave like a benign tenant)
	AdvArgSeed = 4 // RNG seed
)

// Adversary behaviour bits (AdvArgMode).
const (
	// AdvRogueDMA interleaves DMAs aimed outside the legitimate window:
	// below the DMA region, past the 64 GB slice into the guard gap, at
	// unmapped in-window addresses, and at wild 64-bit addresses. The
	// auditors/IOMMU must contain every one of them.
	AdvRogueDMA = 1 << iota
	// AdvNeverAck refuses the preemption handshake: once a drain begins the
	// logic parks an endless compute chain on the datapath so outstanding
	// work never reaches zero and the save never starts. Only the
	// hypervisor's forced-reset timeout gets the slot back.
	AdvNeverAck
	// AdvStaleReplay resumes from the job-start checkpoint instead of the
	// state the hypervisor saved, modelling a guest that replays a stale
	// save-state buffer. The job regresses but must never affect co-tenants.
	AdvStaleReplay
)

// advBurst is the adversary's fixed burst length in lines.
const advBurst = 4

// Adversary is the adversarial-tenant logic used by the chaos subsystem: a
// hardware model that is deliberately hostile in the ways §4–§5 claim the
// platform contains. With mode 0 it is a well-behaved random-access
// streamer; each mode bit enables one attack. It fully conforms to the
// save/restore framing so the hypervisor cannot distinguish it up front.
//
// Adversary is not in the benchmark registry (it is not one of Table 1's
// accelerators); install it with hv.ReplaceAccel(slot, accel.New(accel.NewAdversary())).
type Adversary struct {
	rng       *sim.Rand
	remaining uint64
	origOps   uint64 // AdvArgOps at job start, for the stale-replay attack
	infinite  bool
	hanging   bool // never-ack chain already parked

	base, size, mode uint64
}

// NewAdversary returns the ADV logic.
func NewAdversary() *Adversary { return &Adversary{} }

// Name implements Logic.
func (v *Adversary) Name() string { return "ADV" }

// FreqMHz implements Logic.
func (v *Adversary) FreqMHz() int { return 400 }

// StateBytes implements Logic: RNG state + progress + config.
func (v *Adversary) StateBytes() int { return 8*4 + 8*5 }

// Start implements Logic.
func (v *Adversary) Start(a *Accel) {
	v.base = a.Arg(AdvArgBase)
	v.size = a.Arg(AdvArgSize)
	v.mode = a.Arg(AdvArgMode)
	v.remaining = a.Arg(AdvArgOps)
	v.origOps = v.remaining
	v.infinite = v.remaining == 0
	v.hanging = false
	v.rng = sim.NewRand(a.Arg(AdvArgSeed) ^ 0xadd)
	if v.size < advBurst*ccip.LineSize {
		a.Fail(fmt.Errorf("adversary: working set %d smaller than one burst", v.size))
		return
	}
	a.SetWindow(16)
}

// rogueAddr picks a hostile DMA target. The 64 GB / 128 MB constants mirror
// the paper's fixed slice and guard-gap geometry (§4.1); the adversary
// hardcodes them the way a real attacker would.
func (v *Adversary) rogueAddr() uint64 {
	const (
		slice = uint64(64) << 30
		guard = uint64(128) << 20
	)
	switch v.rng.Uint64n(4) {
	case 0: // below the legitimate window
		return (v.base - (1+v.rng.Uint64n(1<<10))*4096) &^ (ccip.LineSize - 1)
	case 1: // past the slice boundary, probing the guard gap
		return (v.base + slice + v.rng.Uint64n(guard)) &^ (ccip.LineSize - 1)
	case 2: // in-window but never mapped: far enough past the working set to
		// clear neighbouring allocations (huge pages round them up)
		return (v.base + v.size + (64 << 20) + v.rng.Uint64n(1<<20)) &^ (ccip.LineSize - 1)
	default: // wild 64-bit address
		return v.rng.Uint64() &^ (ccip.LineSize - 1)
	}
}

// Pump implements Logic.
func (v *Adversary) Pump(a *Accel) {
	for a.CanIssue() {
		if !v.infinite && v.remaining == 0 {
			if a.Status() == StatusRunning {
				a.JobDone()
			}
			return
		}
		if !v.infinite {
			v.remaining--
		}
		const bytes = advBurst * ccip.LineSize
		slots := (v.size - bytes) / ccip.LineSize
		addr := v.base + v.rng.Uint64n(slots+1)*ccip.LineSize
		if v.mode&AdvRogueDMA != 0 && v.rng.Uint64n(4) == 0 {
			addr = v.rogueAddr()
		}
		if v.rng.Uint64n(100) < 50 {
			data := make([]byte, bytes)
			v.rng.Fill(data[:8])
			a.Write(addr, data, func(err error) { v.onDone(a, bytes, err) })
		} else {
			a.ReadDiscard(addr, advBurst, func(err error) { v.onDone(a, bytes, err) })
		}
	}
}

// onDone deliberately swallows DMA errors — the adversary expects its rogue
// requests to be discarded and keeps going — and mounts the never-ack
// attack the moment it observes a preemption drain.
func (v *Adversary) onDone(a *Accel, bytes uint64, err error) {
	if err == nil {
		a.AddWork(bytes)
	}
	if v.mode&AdvNeverAck != 0 && a.Preempting() && !v.hanging {
		v.hanging = true
		v.hang(a)
	}
}

// hang parks an endless compute chain on the datapath: each completion
// schedules the next chunk, so outstanding never drains to zero and the
// save-state step of the handshake never begins. A hypervisor reset bumps
// the epoch and orphans the chain.
func (v *Adversary) hang(a *Accel) {
	a.Compute(4096, func() {
		if a.Preempting() {
			v.hang(a)
		}
	})
}

// SaveState implements Logic.
func (v *Adversary) SaveState() []byte {
	buf := make([]byte, v.StateBytes())
	off := 0
	put := func(w uint64) { putU64(buf[off:], w); off += 8 }
	for _, w := range v.rng.State() {
		put(w)
	}
	put(v.remaining)
	put(v.origOps)
	put(v.base)
	put(v.size)
	put(v.mode)
	return buf
}

// RestoreState implements Logic. Under AdvStaleReplay the checkpoint's
// progress is discarded and the job rewinds to its start — the attack a
// guest mounts by handing back an old state buffer. The framing stays
// valid, so the framework accepts it; the damage is confined to the
// adversary's own job.
func (v *Adversary) RestoreState(data []byte) error {
	if len(data) < v.StateBytes() {
		return fmt.Errorf("adversary: short state (%d bytes)", len(data))
	}
	off := 0
	get := func() uint64 { w := getU64(data[off:]); off += 8; return w }
	var ws [4]uint64
	for i := range ws {
		ws[i] = get()
	}
	v.rng = sim.RandFromState(ws)
	v.remaining = get()
	v.origOps = get()
	v.base = get()
	v.size = get()
	v.mode = get()
	v.infinite = v.origOps == 0
	v.hanging = false
	if v.mode&AdvStaleReplay != 0 {
		v.remaining = v.origOps
		v.rng = sim.NewRand(0xadd) // job-start stream, not the saved one
	}
	if v.size < advBurst*ccip.LineSize {
		return fmt.Errorf("adversary: corrupt state (size %d)", v.size)
	}
	return nil
}

// ResetLogic implements Logic.
func (v *Adversary) ResetLogic() { *v = Adversary{} }
