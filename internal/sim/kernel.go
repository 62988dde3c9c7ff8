// Package sim provides the discrete-event simulation kernel that underpins
// the simulated shared-memory FPGA platform.
//
// Time is measured in integer picoseconds so that clock periods of all
// frequencies used by the platform (100–400 MHz fabric clocks, DRAM and
// interconnect timings) are exactly representable. Events are executed in
// (time, insertion-order) order, which makes every simulation fully
// deterministic: two runs with the same seed produce identical traces.
package sim

import (
	"fmt"
	"sync/atomic"
)

// Time is a simulated timestamp or duration in picoseconds.
type Time int64

// Common durations.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000 * Picosecond
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// String renders a Time with an adaptive unit, e.g. "412ns" or "10ms".
func (t Time) String() string {
	switch {
	case t == 0:
		return "0s"
	case t%Second == 0:
		return fmt.Sprintf("%ds", t/Second)
	case t%Millisecond == 0:
		return fmt.Sprintf("%dms", t/Millisecond)
	case t%Microsecond == 0:
		return fmt.Sprintf("%dus", t/Microsecond)
	case t%Nanosecond == 0:
		return fmt.Sprintf("%dns", t/Nanosecond)
	default:
		return fmt.Sprintf("%dps", int64(t))
	}
}

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Nanoseconds converts t to floating-point nanoseconds.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

type event struct {
	at  Time
	seq uint64
	fn  func()
}

// executedTotal accumulates events executed across every kernel in the
// process (all goroutines). Kernels flush to it in batches at the end of
// each Run/RunUntil/RunWhile/Step so the per-event hot path stays free of
// atomics; see EventsExecuted.
//
//optimus:global-ok write-only throughput counter for benchmark drivers; no simulation reads it, so it cannot couple platforms
var executedTotal atomic.Uint64

// EventsExecuted returns the process-wide count of simulation events
// executed by all kernels so far. It is safe to call from any goroutine and
// is intended for throughput reporting (events/sec) by benchmark harnesses.
func EventsExecuted() uint64 { return executedTotal.Load() }

// Kernel is a discrete-event simulation executor. The zero value is ready to
// use. Kernel is not safe for concurrent use; the entire simulation runs on
// one goroutine by design (determinism). Distinct kernels are fully
// independent and may run on distinct goroutines concurrently.
//
// The event queue is an inlined 4-ary min-heap of event structs ordered by
// (time, insertion order) — no interface boxing, no per-event allocation in
// steady state — plus a FIFO fast lane for events scheduled at exactly the
// current timestamp (the ubiquitous After(0, ...) "immediately after"
// pattern), which skips the heap entirely.
//
// Dispatch is batched per timestamp: when the lane runs dry the kernel
// dispatches the next heap run's head directly and spills the rest of the
// same-timestamp run into the lane in one pass (advance), so dense
// same-timestamp workloads pay the heap-versus-lane arbitration and clock
// update once per batch instead of once per event, while singleton
// timestamps keep the direct heap-pop dispatch path.
type Kernel struct {
	now      Time
	heap     []event // 4-ary min-heap by (at, seq)
	fifo     []event // events at exactly `now`, in insertion order
	fifoHead int
	seq      uint64
	nexec    uint64
	flushed  uint64 // portion of nexec already added to executedTotal

	// Epoch hook (SetEpochHook): hookFn fires whenever the clock first
	// reaches or passes hookAt. The hook is not an event — it lives outside
	// the queue, consumes no sequence numbers, and leaves Executed()
	// untouched — so installing one cannot perturb event ordering or any
	// downstream determinism guarantee. Uninstalled, it costs one nil check
	// per clock advance (not per event).
	hookAt Time
	hookFn func(Time) Time

	// Arrival injector (SetInjector): injFn fires at injAt whenever the
	// clock would otherwise advance past it. Unlike the epoch hook, the
	// injector MAY schedule events (at or after its boundary) — it exists so
	// open-loop traffic sources can keep feeding a simulation without
	// pre-materializing their whole timeline. Uninstalled, it costs one nil
	// check per clock advance.
	injAt Time
	injFn func(Time) Time
}

func eventLess(a, b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// heapPush inserts e, sifting up through the 4-ary heap.
//
//optimus:hotpath
func (k *Kernel) heapPush(e event) {
	k.heap = append(k.heap, e)
	i := len(k.heap) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !eventLess(e, k.heap[p]) {
			break
		}
		k.heap[i] = k.heap[p]
		i = p
	}
	k.heap[i] = e
}

// heapPop removes and returns the minimum event.
//
//optimus:hotpath
func (k *Kernel) heapPop() event {
	h := k.heap
	top := h[0]
	n := len(h) - 1
	e := h[n]
	h[n].fn = nil // release the closure for GC
	k.heap = h[:n]
	if n > 0 {
		// Sift e down from the root.
		h = k.heap
		i := 0
		for {
			c := i<<2 + 1
			if c >= n {
				break
			}
			m := c
			end := c + 4
			if end > n {
				end = n
			}
			for j := c + 1; j < end; j++ {
				if eventLess(h[j], h[m]) {
					m = j
				}
			}
			if !eventLess(h[m], e) {
				break
			}
			h[i] = h[m]
			i = m
		}
		h[i] = e
	}
	return top
}

// NewKernel returns a kernel positioned at time zero.
func NewKernel() *Kernel { return &Kernel{} }

// Now returns the current simulated time.
func (k *Kernel) Now() Time { return k.now }

// Executed returns the number of events executed so far (for diagnostics).
func (k *Kernel) Executed() uint64 { return k.nexec }

// Pending returns the number of scheduled-but-unexecuted events.
func (k *Kernel) Pending() int { return len(k.heap) + len(k.fifo) - k.fifoHead }

// flush publishes this kernel's executed-event delta to the process-wide
// counter. Called at the end of every public run entry point, never per
// event.
func (k *Kernel) flush() {
	if d := k.nexec - k.flushed; d > 0 {
		executedTotal.Add(d)
		k.flushed = k.nexec
	}
}

// SetEpochHook installs fn as the kernel's epoch hook, first firing when the
// clock reaches or passes absolute time first. The hook is invoked with the
// epoch boundary (which may trail the clock when time jumps past it) before
// any event at the new timestamp dispatches, and returns the next boundary;
// returning a time not after the current boundary uninstalls the hook, as
// does passing a nil fn.
//
// The hook is the telemetry sampler's attachment point (obs.Sampler): it runs
// between events, schedules nothing, draws no randomness, and is excluded
// from Executed(), so a hooked kernel replays event-for-event identically to
// an unhooked one. Hook callbacks must not schedule events or otherwise
// touch simulation state. One hook per kernel; installing replaces.
func (k *Kernel) SetEpochHook(first Time, fn func(boundary Time) Time) {
	if fn == nil {
		k.hookFn = nil
		return
	}
	k.hookAt = first
	k.hookFn = fn
	if k.now >= first {
		k.fireEpochs(k.now)
	}
}

// fireEpochs invokes the hook for every boundary the clock has reached,
// advancing hookAt each time. Split out of the dispatch paths so their
// inlined fast path stays one compare when a hook is installed.
func (k *Kernel) fireEpochs(now Time) {
	for k.hookFn != nil && k.hookAt <= now {
		at := k.hookAt
		next := k.hookFn(at)
		if next <= at {
			k.hookFn = nil
			return
		}
		k.hookAt = next
	}
}

// SetInjector installs fn as the kernel's arrival injector, first firing
// when the clock reaches absolute time first. The injector is the open-loop
// counterpart of the epoch hook: it fires at each boundary it returns, and —
// unlike the epoch hook — its callback MAY schedule events, provided they
// are at or after the boundary it was invoked with. The kernel advances the
// clock exactly to each boundary before firing, so the callback observes
// Now() == boundary and can use At/After naturally.
//
// Ordering guarantees, chosen so an installed-but-idle injector replays
// event-for-event identically to an uninstalled one:
//
//   - A queued event at exactly the injector's boundary dispatches BEFORE
//     the injector fires (it was scheduled earlier in wall order).
//   - At a shared boundary the injector fires before the epoch hook, so
//     arrivals injected at a sampling boundary are visible to the sampler.
//   - Run() drains the queue without the injector keeping it alive: with an
//     empty queue the injector only fires under RunUntil/RunFor, which bound
//     it by their deadline. This keeps Run() termination independent of any
//     installed traffic source.
//
// fn returns the next boundary; returning a time not after the current
// boundary uninstalls the injector, as does passing a nil fn. One injector
// per kernel; installing replaces.
func (k *Kernel) SetInjector(first Time, fn func(boundary Time) Time) {
	if fn == nil {
		k.injFn = nil
		return
	}
	k.injAt = first
	k.injFn = fn
	if k.now >= first {
		k.fireInjections(k.now)
	}
}

// fireInjections invokes the injector for every boundary the clock has
// reached, advancing injAt each time. Callers ensure the clock has been
// advanced to (at least) the boundary first.
func (k *Kernel) fireInjections(now Time) {
	for k.injFn != nil && k.injAt <= now {
		at := k.injAt
		next := k.injFn(at)
		if next <= at {
			k.injFn = nil
			return
		}
		k.injAt = next
	}
}

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// it always indicates a component bug, and silently reordering time would
// corrupt every latency measurement downstream.
//
// Events at exactly the current time take the FIFO fast lane: they cannot
// be preceded by any event not already in the queue, so heap ordering is
// unnecessary for them. Heap events at time t were necessarily scheduled
// while now < t — before any fast-lane event at t existed — so draining the
// heap's t-events before the lane preserves global (time, insertion) order.
//
//optimus:hotpath
func (k *Kernel) At(t Time, fn func()) {
	if t <= k.now {
		if t < k.now {
			panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, k.now))
		}
		k.fifo = append(k.fifo, event{at: t, fn: fn})
		return
	}
	k.seq++
	k.heapPush(event{at: t, seq: k.seq, fn: fn})
}

// After schedules fn to run d after the current time. A non-positive delay
// schedules for "immediately after the current event" (same timestamp,
// later sequence number).
//
//optimus:hotpath
func (k *Kernel) After(d Time, fn func()) {
	if d <= 0 {
		k.fifo = append(k.fifo, event{at: k.now, fn: fn})
		return
	}
	k.At(k.now+d, fn)
}

// advance advances the clock to the next pending heap timestamp, returns
// the first event of that timestamp's run for direct dispatch, and moves
// the remainder of the run into the FIFO lane in one pass. Called only
// with the lane empty, which (together with At routing current-time events
// to the lane) maintains the dispatch invariant that every heap event is
// strictly in the future: the lane drain loops never need to re-check the
// heap per event.
//
// Returning the head event instead of routing it through the lane keeps
// singleton timestamps — the common case in timer-staggered workloads — on
// the same direct heap-pop-and-call path as the unbatched kernel; only
// genuine co-timed runs pay the lane traffic. Ordering is preserved: the
// run's heap events were all scheduled before now reached their timestamp,
// so they predate (in seq) every lane event the head's handler can create,
// and spilling them before the handler runs keeps the lane in global
// (time, insertion-order) order.
//
//optimus:hotpath
func (k *Kernel) advance() (event, bool) {
	// Injector boundaries strictly before the next heap timestamp fire
	// first: the clock advances exactly to the boundary so the callback can
	// schedule from Now(). Ties go to the heap (the queued event predates
	// the boundary in wall order); the injector then fires on the next
	// lane-empty advance at the same timestamp. Breaking on an empty heap
	// keeps Run() from spinning on an unbounded traffic source — empty-queue
	// boundaries are RunUntil's job, which bounds them by its deadline.
	for k.injFn != nil {
		ia := k.injAt
		if len(k.heap) == 0 || k.heap[0].at <= ia {
			break
		}
		k.now = ia
		k.fireInjections(ia)
		if k.hookFn != nil && ia >= k.hookAt {
			k.fireEpochs(ia)
		}
		if k.fifoHead < len(k.fifo) {
			return k.popLane(), true
		}
	}
	if len(k.heap) == 0 {
		return event{}, false
	}
	e := k.heapPop()
	k.now = e.at
	for len(k.heap) > 0 && k.heap[0].at == e.at {
		k.fifo = append(k.fifo, k.heapPop())
	}
	if k.hookFn != nil && e.at >= k.hookAt {
		k.fireEpochs(e.at)
	}
	return e, true
}

// popLane removes and returns the lane's front event. Callers check
// k.fifoHead < len(k.fifo) first.
//
//optimus:hotpath
func (k *Kernel) popLane() event {
	e := k.fifo[k.fifoHead]
	k.fifo[k.fifoHead].fn = nil // release the closure for GC
	k.fifoHead++
	if k.fifoHead == len(k.fifo) {
		k.fifo = k.fifo[:0]
		k.fifoHead = 0
	}
	return e
}

// step executes the single next event without flushing the global counter.
// Lane events (the rest of the current batch plus anything handlers added
// at the current time) drain first; when the lane runs dry the next heap
// run's head dispatches directly and its co-timed tail refills the lane.
//
//optimus:hotpath
func (k *Kernel) step() bool {
	if k.fifoHead < len(k.fifo) {
		e := k.popLane()
		k.nexec++
		e.fn()
		return true
	}
	e, ok := k.advance()
	if !ok {
		return false
	}
	k.nexec++
	e.fn()
	return true
}

// Step executes the single next event, returning false if none remain.
func (k *Kernel) Step() bool {
	ok := k.step()
	k.flush()
	return ok
}

// Run executes events until the queue is empty, dispatching each
// same-timestamp batch with a tight lane drain (no per-event heap checks
// or clock updates).
func (k *Kernel) Run() {
	for {
		for k.fifoHead < len(k.fifo) {
			e := k.popLane()
			k.nexec++
			e.fn()
		}
		e, ok := k.advance()
		if !ok {
			break
		}
		k.nexec++
		e.fn()
	}
	k.flush()
}

// RunWhile executes events while cond() returns true and events remain.
// cond is evaluated before each event. This is the batch form of
//
//	for cond() && k.Step() {}
//
// with executed-event accounting amortized over the whole run instead of
// per step.
func (k *Kernel) RunWhile(cond func() bool) {
	for cond() && k.step() {
	}
	k.flush()
}

// nextAt returns the timestamp of the next pending event, if any. While the
// same-timestamp lane is non-empty the next event is at the current time by
// construction (heap events are never earlier than now).
//
//optimus:hotpath
func (k *Kernel) nextAt() (Time, bool) {
	if k.fifoHead < len(k.fifo) {
		return k.now, true
	}
	if len(k.heap) > 0 {
		return k.heap[0].at, true
	}
	return 0, false
}

// RunUntil executes events with timestamps <= deadline, then advances the
// clock to deadline. Events scheduled at exactly the deadline do run.
// The deadline is checked once per same-timestamp batch rather than per
// event: every lane event is at the current (already admitted) time.
func (k *Kernel) RunUntil(deadline Time) {
	if k.now <= deadline {
		for {
			for k.fifoHead < len(k.fifo) {
				e := k.popLane()
				k.nexec++
				e.fn()
			}
			if len(k.heap) == 0 || k.heap[0].at > deadline {
				// No event within the deadline, but an installed injector
				// may still owe boundaries at or before it: advance the
				// clock to each and fire, then resume draining whatever the
				// callback scheduled. injAt advances strictly per firing,
				// so this terminates at the deadline.
				if k.injFn != nil && k.injAt <= deadline {
					if k.now < k.injAt {
						k.now = k.injAt
					}
					k.fireInjections(k.now)
					if k.hookFn != nil && k.now >= k.hookAt {
						k.fireEpochs(k.now)
					}
					continue
				}
				break
			}
			e, _ := k.advance()
			k.nexec++
			e.fn()
		}
		if k.now < deadline {
			k.now = deadline
			if k.hookFn != nil && deadline >= k.hookAt {
				k.fireEpochs(deadline)
			}
		}
	}
	k.flush()
}

// RunFor executes events for d simulated time from now.
func (k *Kernel) RunFor(d Time) { k.RunUntil(k.now + d) }

// Clock converts between cycle counts of a fixed-frequency clock domain and
// simulated time. FPGA components (the shell, the multiplexer tree, each
// accelerator) each own a Clock at their synthesized frequency.
type Clock struct {
	period Time
	mhz    int
}

// NewClock returns a clock with the given frequency in MHz. Frequencies must
// divide 1e6 MHz... in practice any positive integer MHz is accepted and the
// period is rounded to the nearest picosecond (exact for all paper
// frequencies: 100, 200, 400 MHz).
func NewClock(freqMHz int) Clock {
	if freqMHz <= 0 {
		panic("sim: clock frequency must be positive")
	}
	return Clock{period: Time(1_000_000/freqMHz) * Picosecond, mhz: freqMHz}
}

// FreqMHz returns the clock frequency in MHz.
func (c Clock) FreqMHz() int { return c.mhz }

// Period returns the duration of one cycle.
func (c Clock) Period() Time { return c.period }

// Cycles returns the duration of n cycles.
func (c Clock) Cycles(n int64) Time { return Time(n) * c.period }

// CyclesIn reports how many full cycles fit in d.
func (c Clock) CyclesIn(d Time) int64 { return int64(d / c.period) }
