// Package obs is the platform's unified observability layer: a zero-overhead
// simulation tracer and a cross-package metrics registry.
//
// The tracer records typed, fixed-size events (DMA issue/complete, MMIO
// traffic, IOTLB hits/misses/faults, preemption handshakes, scheduler time
// slices, multiplexer-tree arbitration stalls) into a preallocated ring
// buffer keyed by simulated time and actor. It is designed around two
// invariants:
//
//   - Zero cost when disabled. Every component holds a *Tracer that is nil
//     when tracing is off; Emit's nil receiver check is the entire disabled
//     path, so instrumented hot paths pay one predictable branch.
//   - Zero allocations when enabled. Records are 40-byte structs written
//     into reused ring slots; the //optimus:hotpath annotation on the emit
//     path puts it under the hotalloc analyzer, and testing.AllocsPerRun
//     enforces the same property dynamically.
//
// Tracing never perturbs the simulation: Emit only copies scalars into the
// ring — it touches no kernel state and draws no randomness — so experiment
// tables are byte-identical with tracing on or off (see the extended
// TestParallelDeterminism in internal/exp).
//
// Traces export as Chrome trace-event JSON (perfetto.go) and open directly
// in ui.perfetto.dev with one lane per physical accelerator, VM, and
// scheduler. Metrics unify the per-package Stats structs behind named
// Counter/Gauge/Histogram handles with a single Snapshot (metrics.go).
package obs

import (
	"sync"

	"optimus/internal/sim"
)

// Class partitions actors into timeline lanes.
type Class uint8

// Actor classes, in lane display order.
const (
	ClassPlatform Class = iota // platform-wide events (VCU, shell boundary)
	ClassPA                    // physical accelerator slot
	ClassSched                 // per-slot temporal-multiplexing scheduler
	ClassVM                    // guest virtual machine
	ClassShell                 // shell / IOMMU
	numClasses
)

func (c Class) String() string {
	switch c {
	case ClassPlatform:
		return "platform"
	case ClassPA:
		return "pa"
	case ClassSched:
		return "sched"
	case ClassVM:
		return "vm"
	case ClassShell:
		return "shell"
	default:
		return "class?"
	}
}

// Actor identifies the component an event belongs to: a class in the top
// byte and an instance id in the low 24 bits. It is a packed scalar so that
// a trace record stays fixed-size and emit stays allocation-free.
type Actor uint32

// MkActor packs a class and instance id.
func MkActor(c Class, id int) Actor { return Actor(uint32(c)<<24 | uint32(id)&0xFFFFFF) }

// PA returns the actor for physical accelerator slot i.
func PA(i int) Actor { return MkActor(ClassPA, i) }

// Sched returns the actor for slot i's scheduler lane.
func Sched(i int) Actor { return MkActor(ClassSched, i) }

// VM returns the actor for guest virtual machine id.
func VM(id int) Actor { return MkActor(ClassVM, id) }

// Shell returns the shell/IOMMU actor.
func Shell() Actor { return MkActor(ClassShell, 0) }

// Platform returns the platform-wide actor.
func Platform() Actor { return MkActor(ClassPlatform, 0) }

// Class returns the actor's lane class.
func (a Actor) Class() Class { return Class(a >> 24) }

// ID returns the actor's instance id within its class.
func (a Actor) ID() int { return int(a & 0xFFFFFF) }

// Kind is the trace record type. The A and B payload words are
// kind-specific; see the comment on each constant.
type Kind uint8

// Record kinds.
const (
	// KindDMAIssue marks a DMA request entering its auditor.
	// A = request address (wire), B = lines<<1 | isWrite.
	KindDMAIssue Kind = iota
	// KindDMAComplete marks a DMA response delivered back to its
	// accelerator. A = round-trip latency in ps, B = data bytes.
	KindDMAComplete
	// KindDMAFault marks a DMA discarded by the auditor's range check.
	// A = offending address (wire), B = lines.
	KindDMAFault
	// KindMMIORead / KindMMIOWrite are monitor-routed MMIO accesses.
	// A = register offset, B = value.
	KindMMIORead
	KindMMIOWrite
	// KindMMIOTrap is a trapped-and-emulated guest MMIO access (BAR0/BAR2).
	// A = register offset, B = value (0 for reads).
	KindMMIOTrap
	// KindIOTLBHit / KindIOTLBSpecHit / KindIOTLBMiss / KindIOTLBFault
	// classify one line translation. A = IOVA (wire), B = walk delay in ps.
	KindIOTLBHit
	KindIOTLBSpecHit
	KindIOTLBMiss
	KindIOTLBFault
	// KindAccelStatus is an accelerator framework status transition.
	// A = new status (accel.Status*), B = 0.
	KindAccelStatus
	// KindSliceBegin / KindSliceEnd bracket one scheduler time slice.
	// A = vaccel slice id, B = VM id.
	KindSliceBegin
	KindSliceEnd
	// KindPreemptBegin / KindPreemptSaved bracket the preemption handshake.
	// A = vaccel slice id.
	KindPreemptBegin
	KindPreemptSaved
	// KindPreemptRestore marks a saved context resuming. A = slice id.
	KindPreemptRestore
	// KindForcedReset marks a preemption-timeout forced reset. A = slice id.
	KindForcedReset
	// KindAccelReset is a VCU reset pulse on a physical accelerator.
	KindAccelReset
	// KindMuxStall marks the tree root stalling on shell credits.
	// A = lines requested, B = credit lines in flight.
	KindMuxStall
	// KindChaosFault marks an injected fault or its recovery (internal/chaos).
	// A = packed payload (fault class in the low byte, bit 8 set on the
	// recovery event — see chaos.FaultPayload), B = affected address (wire).
	KindChaosFault
	// KindServeAdmit / KindServeDrop / KindServeDispatch / KindServeDone are
	// open-loop traffic-engine records on tenant VM lanes (internal/load).
	// Admit/Drop: A = queue depth after the decision, B = offered-so-far.
	// Dispatch: A = batch size, B = queue depth after the pop. Done: A =
	// batch size, B = 1 if the batch failed. Span carries the stream id on
	// all four so a tenant's serving records group like its control-plane
	// records.
	KindServeAdmit
	KindServeDrop
	KindServeDispatch
	KindServeDone
	numKinds
)

var kindNames = [numKinds]string{
	KindDMAIssue:       "dma-issue",
	KindDMAComplete:    "dma",
	KindDMAFault:       "dma-fault",
	KindMMIORead:       "mmio-read",
	KindMMIOWrite:      "mmio-write",
	KindMMIOTrap:       "mmio-trap",
	KindIOTLBHit:       "iotlb-hit",
	KindIOTLBSpecHit:   "iotlb-spec-hit",
	KindIOTLBMiss:      "iotlb-miss",
	KindIOTLBFault:     "iotlb-fault",
	KindAccelStatus:    "accel-status",
	KindSliceBegin:     "slice",
	KindSliceEnd:       "slice-end",
	KindPreemptBegin:   "preempt",
	KindPreemptSaved:   "preempt-saved",
	KindPreemptRestore: "preempt-restore",
	KindForcedReset:    "forced-reset",
	KindAccelReset:     "accel-reset",
	KindMuxStall:       "mux-stall",
	KindChaosFault:     "chaos.fault",
	KindServeAdmit:     "serve.admit",
	KindServeDrop:      "serve.drop",
	KindServeDispatch:  "serve.dispatch",
	KindServeDone:      "serve.done",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "kind?"
}

// Rec is one fixed-size trace record. Records are stored by value in the
// ring; nothing in a record is a pointer, so emitting cannot allocate and
// the ring holds no references alive.
//
// Span is the causal span-linking id (0 = unlinked): records carrying the
// same non-zero span belong to one request chain — a DMA's issue, its
// per-line IOTLB classifications, and its completion all carry the
// transaction's span (see MkSpan) — which is what the critical-path
// analyzer joins on. Scheduler and MMIO-trap records reuse the field for
// the vaccel slice id, and accelerator status transitions for the job
// index, so control-plane records group per tenant/job the same way.
type Rec struct {
	At    sim.Time
	A, B  uint64
	Actor Actor
	Span  uint32
	Kind  Kind
}

// MkSpan packs a DMA transaction identity into a span id: the auditor slot
// in the top 4 bits and the per-auditor transaction counter plus one below,
// so concurrently audited accelerators never collide and slot 0's first
// transaction does not map to the reserved "no span" zero. Txn wraps at
// 2^28-1 ≈ 268M requests per auditor — beyond any trace ring's window — and
// a wrapped id can at worst fuse two chains far apart in time.
func MkSpan(accelID int, txn uint64) uint32 {
	return uint32(accelID)<<28 | (uint32(txn)+1)&0x0FFFFFFF
}

// DefaultCapacity is the ring size used when NewTracer is given a
// non-positive capacity: 1 Mi records ≈ 40 MB.
const DefaultCapacity = 1 << 20

// Tracer is a single-simulation trace ring. Like the sim.Kernel it serves,
// a Tracer is single-goroutine by design: each platform owns a private
// tracer, and concurrent sweep points therefore never share one.
//
// A nil *Tracer is the disabled tracer: Emit on nil is a no-op, so
// components unconditionally call through their tracer field.
type Tracer struct {
	recs []Rec
	head int    // next slot to write
	n    uint64 // total records emitted (including overwritten)

	// prof, when non-nil, receives every record at emit time — the
	// utilization profiler's no-second-pass feed. One predictable branch
	// when unset, mirroring the nil-tracer discipline.
	prof *Profiler
}

// NewTracer returns a tracer with a preallocated ring of the given capacity
// (DefaultCapacity if cap <= 0). Once the ring fills, new records overwrite
// the oldest — a trace keeps the most recent window of the run.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Tracer{recs: make([]Rec, capacity)}
}

// Emit appends one record. The nil-receiver check is the entire
// tracing-disabled path; the enabled path writes one ring slot and
// allocates nothing. Emit never touches simulation state, so tracing cannot
// perturb determinism.
//
//optimus:hotpath
func (t *Tracer) Emit(at sim.Time, k Kind, actor Actor, a, b uint64) {
	if t == nil {
		return
	}
	t.emit(at, k, actor, 0, a, b)
}

// EmitSpan is Emit with a causal span-linking id (see Rec.Span). Same
// disabled/enabled cost contract as Emit.
//
//optimus:hotpath
func (t *Tracer) EmitSpan(at sim.Time, k Kind, actor Actor, span uint32, a, b uint64) {
	if t == nil {
		return
	}
	t.emit(at, k, actor, span, a, b)
}

// emit is the enabled-path body, split out so Emit's disabled path stays
// within the inlining budget of every caller.
//
//optimus:hotpath
func (t *Tracer) emit(at sim.Time, k Kind, actor Actor, span uint32, a, b uint64) {
	t.recs[t.head] = Rec{At: at, Kind: k, Actor: actor, Span: span, A: a, B: b}
	t.head++
	if t.head == len(t.recs) {
		t.head = 0
	}
	t.n++
	if t.prof != nil {
		t.prof.note(at, k, actor, span, a, b)
	}
}

// SetProfiler attaches p to the emit path so it observes every record as it
// is written — the utilization profiler's single-pass feed (nil detaches).
func (t *Tracer) SetProfiler(p *Profiler) { t.prof = p }

// Profiler returns the attached utilization profiler, or nil.
func (t *Tracer) Profiler() *Profiler {
	if t == nil {
		return nil
	}
	return t.prof
}

// Enabled reports whether the tracer records events.
func (t *Tracer) Enabled() bool { return t != nil }

// Cap returns the ring capacity in records.
func (t *Tracer) Cap() int {
	if t == nil {
		return 0
	}
	return len(t.recs)
}

// Emitted returns the total number of records emitted, including any that
// have since been overwritten.
func (t *Tracer) Emitted() uint64 {
	if t == nil {
		return 0
	}
	return t.n
}

// Dropped returns how many records were overwritten by ring wraparound.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	if t.n <= uint64(len(t.recs)) {
		return 0
	}
	return t.n - uint64(len(t.recs))
}

// Len returns the number of records currently held.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	if t.n < uint64(len(t.recs)) {
		return int(t.n)
	}
	return len(t.recs)
}

// Records returns the held records oldest-first (unwrapping the ring) as a
// fresh slice.
func (t *Tracer) Records() []Rec {
	if t == nil {
		return nil
	}
	out := make([]Rec, 0, t.Len())
	if t.n >= uint64(len(t.recs)) {
		out = append(out, t.recs[t.head:]...)
	}
	out = append(out, t.recs[:t.head]...)
	return out
}

// Reset clears the ring without releasing its storage (e.g. between
// experiment phases).
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.head = 0
	t.n = 0
}

// PlatformObs is one platform's observability handles inside a Collector.
type PlatformObs struct {
	Label   string
	Trace   *Tracer // nil when the collector was attached metrics-only
	Metrics *Registry
	Sampler *Sampler  // nil unless time-series sampling is armed (hv.Config.Sample)
	Profile *Profiler // nil unless utilization profiling is armed (hv.Config.Profile)
}

// Collector gathers the per-platform tracers and registries of a multi-
// platform run (an experiment sweep, where every point assembles a private
// platform). Adding is mutex-guarded — it happens once per platform, never
// on a simulation hot path — while each tracer itself stays single-owner.
type Collector struct {
	mu        sync.Mutex
	platforms []PlatformObs
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Add registers one platform's handles and returns its sequence number.
func (c *Collector) Add(label string, t *Tracer, r *Registry) int {
	return c.AddPlatform(PlatformObs{Label: label, Trace: t, Metrics: r})
}

// AddPlatform registers one platform's full handle set (tracer, registry,
// sampler, profiler) and returns its sequence number.
func (c *Collector) AddPlatform(p PlatformObs) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.platforms = append(c.platforms, p)
	return len(c.platforms) - 1
}

// Platforms returns a snapshot of the registered platforms.
func (c *Collector) Platforms() []PlatformObs {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]PlatformObs, len(c.platforms))
	copy(out, c.platforms)
	return out
}
