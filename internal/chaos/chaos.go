// Package chaos implements deterministic, seed-driven fault injection for
// the OPTIMUS platform model. A Plan is a stream of fault decisions drawn
// from a private sim.Rand: the shell consults it once per DMA request
// (transient translation faults, payload corruption, packet drops,
// duplicated completions) and the hypervisor consults it per page-pin
// hypercall (transient pin failures). Because every decision comes from the
// plan's own generator — never from wall clocks or global randomness — a
// fixed (Config, workload) pair replays the exact same fault schedule on
// every run and at any sweep parallelism, which is what makes invariant
// checking under injection tractable (see docs/ROBUSTNESS.md).
//
// A nil *Plan means chaos is disabled and costs the instrumented hot paths
// exactly one branch, mirroring the nil-*obs.Tracer contract.
package chaos

import (
	"fmt"
	"strconv"
	"strings"

	"optimus/internal/sim"
)

// Class identifies a fault class. The zero value means "no fault".
type Class uint8

// Fault classes. The DMA classes (Xlat..Dup) are drawn per shell request;
// Pin is drawn per mapPage hypercall.
const (
	ClassNone    Class = iota
	ClassXlat          // transient IOTLB/translation fault, retried with backoff
	ClassCorrupt       // payload corruption detected at delivery, retransmitted
	ClassDrop          // packet lost on the link, retransmitted after a timeout
	ClassDup           // completion delivered twice; the dup must be suppressed
	ClassPin           // transient page-pin failure during the map hypercall
	NumClasses
)

func (c Class) String() string {
	switch c {
	case ClassNone:
		return "none"
	case ClassXlat:
		return "xlat"
	case ClassCorrupt:
		return "corrupt"
	case ClassDrop:
		return "drop"
	case ClassDup:
		return "dup"
	case ClassPin:
		return "pin"
	default:
		return fmt.Sprintf("Class(%d)", uint8(c))
	}
}

// Config describes a fault-injection plan. Rates are in parts per million of
// the guarded operation (DMA request or pin attempt); the zero Config
// injects nothing but still pays for the arming (useful as a sweep
// baseline).
type Config struct {
	// Seed drives the plan's private generator. The hypervisor substitutes
	// its platform seed when left zero, so sweeps stay deterministic.
	Seed uint64

	XlatPPM    uint32 // transient translation-fault probability per request
	CorruptPPM uint32 // payload-corruption probability per request
	DropPPM    uint32 // packet-drop probability per request
	DupPPM     uint32 // duplicated-completion probability per request
	PinPPM     uint32 // pin-failure probability per mapPage hypercall

	// RepeatPPM is the probability that a retry of an injected transient
	// fault fails again (default 200000 = 20%); it is what makes the
	// bounded-retry hardening observable.
	RepeatPPM uint32
	// MaxRetries bounds the hypervisor/shell retry budget per injected
	// transient fault (default 3). After the budget is exhausted the fault
	// is surfaced as an error to the issuer.
	MaxRetries int
	// RetryBackoff is the base delay before the first translation retry; it
	// doubles on every subsequent attempt (default 200 ns).
	RetryBackoff sim.Time
	// DropTimeout is the link loss-detection delay charged before a dropped
	// packet is retransmitted (default 2 µs).
	DropTimeout sim.Time
}

func (c Config) withDefaults() Config {
	if c.RepeatPPM == 0 {
		c.RepeatPPM = 200_000
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 3
	}
	if c.RetryBackoff == 0 {
		c.RetryBackoff = 200 * sim.Nanosecond
	}
	if c.DropTimeout == 0 {
		c.DropTimeout = 2 * sim.Microsecond
	}
	return c
}

// Stats counts injections and the hardening actions they triggered.
type Stats struct {
	// Injected counts injections by class (ClassNone slot unused).
	Injected [NumClasses]uint64
	// XlatRetries counts translation retries scheduled by the shell.
	XlatRetries uint64
	// Retransmits counts wire-level redeliveries (corrupt + drop recovery).
	Retransmits uint64
	// DupsSuppressed counts duplicated completions caught by the shell's
	// generation guard. Under the no-double-completion invariant it must
	// equal Injected[ClassDup].
	DupsSuppressed uint64
	// PinRetries counts page-pin retries performed by the hypervisor.
	PinRetries uint64
	// Exhausted counts transient faults that out-lasted the retry budget
	// and were surfaced to the issuer as errors.
	Exhausted uint64
	// Recovered counts injected faults fully absorbed by the hardening.
	Recovered uint64
}

// TotalInjected sums the per-class injection counts.
func (s Stats) TotalInjected() uint64 {
	var n uint64
	for _, c := range s.Injected {
		n += c
	}
	return n
}

// Plan is an armed fault-injection schedule. All methods are cheap and
// allocation-free; the draw methods are additionally safe on a nil receiver
// so call sites can keep the disabled path to a single branch.
//
//optimus:state
type Plan struct {
	cfg      Config //optimus:clone-skip immutable after NewPlan; CopyStateFrom requires same-Config plans
	rng      *sim.Rand
	stats    Stats
	recovery *sim.LatencyStat

	// Cumulative per-request thresholds for the single DMA draw: a uniform
	// value in [0, 1e6) below thXlat is a translation fault, below thCorrupt
	// a corruption, and so on. thDup == 0 means no DMA class is armed and
	// DrawDMA returns without consuming randomness.
	//
	//optimus:clone-skip derived from cfg by NewPlan, identical by the same-Config contract
	thXlat, thCorrupt, thDrop, thDup uint64

	// disarmed short-circuits every draw (see Disarm).
	disarmed bool
}

const ppmScale = 1_000_000

// NewPlan arms a plan. The same Config always yields the same decision
// stream.
func NewPlan(cfg Config) *Plan {
	cfg = cfg.withDefaults()
	p := &Plan{
		cfg:      cfg,
		rng:      sim.NewRand(cfg.Seed ^ 0xc4a0_5eed),
		recovery: sim.NewLatencyStat(4096, cfg.Seed^0x7ec0),
	}
	p.thXlat = uint64(cfg.XlatPPM)
	p.thCorrupt = p.thXlat + uint64(cfg.CorruptPPM)
	p.thDrop = p.thCorrupt + uint64(cfg.DropPPM)
	p.thDup = p.thDrop + uint64(cfg.DupPPM)
	if p.thDup > ppmScale {
		p.thXlat, p.thCorrupt, p.thDrop, p.thDup = 0, 0, 0, 0
	}
	return p
}

// Config returns the armed configuration (post-defaulting).
func (p *Plan) Config() Config {
	if p == nil {
		return Config{}
	}
	return p.cfg
}

// DrawDMA decides the fault class, if any, for one shell request. One
// uniform draw covers all four DMA classes so the request cost is constant
// regardless of how many classes are armed.
func (p *Plan) DrawDMA() Class {
	if p == nil || p.disarmed || p.thDup == 0 {
		return ClassNone
	}
	v := p.rng.Uint64n(ppmScale)
	switch {
	case v < p.thXlat:
		return ClassXlat
	case v < p.thCorrupt:
		return ClassCorrupt
	case v < p.thDrop:
		return ClassDrop
	case v < p.thDup:
		return ClassDup
	default:
		return ClassNone
	}
}

// DrawPin decides whether one mapPage pin attempt fails transiently.
func (p *Plan) DrawPin() bool {
	if p == nil || p.disarmed || p.cfg.PinPPM == 0 {
		return false
	}
	return p.rng.Uint64n(ppmScale) < uint64(p.cfg.PinPPM)
}

// Repeat decides whether a retry of an injected transient fault fails
// again.
func (p *Plan) Repeat() bool {
	if p.disarmed {
		return false
	}
	return p.rng.Uint64n(ppmScale) < uint64(p.cfg.RepeatPPM)
}

// Disarm stops the plan from injecting new faults: every subsequent draw
// reports "no fault" without consuming randomness, and retries of already
// injected faults succeed immediately. The exact accounting invariant
// (Recovered + Exhausted == TotalInjected) only holds once no injected
// fault is still mid-recovery, so harnesses disarm at the end of the
// measurement window and run the simulation briefly to drain in-flight
// faults before asserting it. Disarming happens at a fixed simulated time,
// so it does not perturb determinism.
func (p *Plan) Disarm() {
	if p == nil {
		return
	}
	p.disarmed = true
}

// MaxRetries returns the per-fault retry budget.
func (p *Plan) MaxRetries() int { return p.cfg.MaxRetries }

// Backoff returns the delay before retry number attempt (0-based),
// doubling per attempt.
func (p *Plan) Backoff(attempt int) sim.Time {
	return p.cfg.RetryBackoff << uint(attempt)
}

// DropTimeout returns the loss-detection delay for injected drops.
func (p *Plan) DropTimeout() sim.Time { return p.cfg.DropTimeout }

// NoteInjected records one injection of class c.
func (p *Plan) NoteInjected(c Class) { p.stats.Injected[c]++ }

// NoteXlatRetry records one scheduled translation retry.
func (p *Plan) NoteXlatRetry() { p.stats.XlatRetries++ }

// NoteRetransmit records one wire-level redelivery.
func (p *Plan) NoteRetransmit() { p.stats.Retransmits++ }

// NoteDupSuppressed records one duplicated completion caught by the
// generation guard.
func (p *Plan) NoteDupSuppressed() { p.stats.DupsSuppressed++ }

// NotePinRetry records one page-pin retry.
func (p *Plan) NotePinRetry() { p.stats.PinRetries++ }

// NoteExhausted records a transient fault surfaced after the retry budget
// ran out.
func (p *Plan) NoteExhausted() { p.stats.Exhausted++ }

// NoteRecovered records a fault fully absorbed by the hardening; d is the
// extra latency the recovery cost the request (observed into the recovery
// histogram when positive — synchronous recoveries cost no model time).
func (p *Plan) NoteRecovered(d sim.Time) {
	p.stats.Recovered++
	if d > 0 {
		p.recovery.Observe(d)
	}
}

// Stats returns a copy of the counters.
func (p *Plan) Stats() Stats {
	if p == nil {
		return Stats{}
	}
	return p.stats
}

// Recovery returns the recovery-latency reservoir (extra request latency
// attributable to absorbed faults).
func (p *Plan) Recovery() *sim.LatencyStat { return p.recovery }

// CopyStateFrom transfers src's dynamic state — generator position,
// counters, disarm flag, and recovery histogram — into p, which must have
// been built from the same Config (so thresholds and budgets already
// match). The recovery stat is copied in place because metric registries
// hold its pointer. Used by hypervisor cloning to resume the fault
// schedule exactly where the template's provisioning left it.
func (p *Plan) CopyStateFrom(src *Plan) {
	if p == nil || src == nil {
		return
	}
	p.rng = sim.RandFromState(src.rng.State())
	p.stats = src.stats
	p.disarmed = src.disarmed
	p.recovery.CopyFrom(src.recovery)
}

// FaultPayload packs a chaos trace payload for obs.KindChaosFault's A word:
// the fault class in the low byte, bit 8 set on recovery events.
func FaultPayload(c Class, recovered bool) uint64 {
	v := uint64(c)
	if recovered {
		v |= 1 << 8
	}
	return v
}

// DecodePayload is FaultPayload's inverse, for tests and trace tooling.
func DecodePayload(a uint64) (c Class, recovered bool) {
	return Class(a & 0xff), a&(1<<8) != 0
}

// ParseSpec parses the CLI chaos spec shared by optimus-sim and
// optimus-bench: comma-separated key=value pairs.
//
//	seed=N      plan seed (default: derived from the platform seed)
//	rate=PPM    shorthand: sets all five class rates at once
//	xlat=PPM    transient translation faults
//	corrupt=PPM payload corruption
//	drop=PPM    packet drops
//	dup=PPM     duplicated completions
//	pin=PPM     page-pin failures
//	retries=N   retry budget per transient fault
//
// Example: -chaos seed=7,rate=10000 injects every class at 1% with seed 7.
func ParseSpec(spec string) (Config, error) {
	var cfg Config
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return Config{}, fmt.Errorf("chaos: %q is not key=value", part)
		}
		if key == "seed" {
			n, err := strconv.ParseUint(val, 0, 64)
			if err != nil {
				return Config{}, fmt.Errorf("chaos: seed %q: %v", val, err)
			}
			cfg.Seed = n
			continue
		}
		if key == "retries" {
			n, err := strconv.Atoi(val)
			if err != nil || n < 1 {
				return Config{}, fmt.Errorf("chaos: retries %q: want a positive integer", val)
			}
			cfg.MaxRetries = n
			continue
		}
		ppm, err := strconv.ParseUint(val, 10, 32)
		if err != nil || ppm > ppmScale {
			return Config{}, fmt.Errorf("chaos: %s=%q: want a rate in [0, %d] ppm", key, val, ppmScale)
		}
		r := uint32(ppm)
		switch key {
		case "rate":
			cfg.XlatPPM, cfg.CorruptPPM, cfg.DropPPM, cfg.DupPPM, cfg.PinPPM = r, r, r, r, r
		case "xlat":
			cfg.XlatPPM = r
		case "corrupt":
			cfg.CorruptPPM = r
		case "drop":
			cfg.DropPPM = r
		case "dup":
			cfg.DupPPM = r
		case "pin":
			cfg.PinPPM = r
		default:
			return Config{}, fmt.Errorf("chaos: unknown key %q", key)
		}
	}
	return cfg, nil
}
