package sim

import (
	"fmt"
	"testing"
)

// TestInjectorFiresBetweenEvents checks the injector fires at each boundary
// strictly before the next heap event, with the clock advanced exactly to
// the boundary.
func TestInjectorFiresBetweenEvents(t *testing.T) {
	k := NewKernel()
	var log []string
	k.At(5, func() { log = append(log, fmt.Sprintf("ev@%d", k.Now())) })
	k.At(25, func() { log = append(log, fmt.Sprintf("ev@%d", k.Now())) })
	k.SetInjector(10, func(b Time) Time {
		log = append(log, fmt.Sprintf("inj@%d(now=%d)", b, k.Now()))
		return b + 10
	})
	k.Run()
	want := []string{"ev@5", "inj@10(now=10)", "inj@20(now=20)", "ev@25"}
	if fmt.Sprint(log) != fmt.Sprint(want) {
		t.Fatalf("order = %v, want %v", log, want)
	}
}

// TestInjectorSchedulesEvents checks that events scheduled by the injector —
// both at the boundary itself and later — dispatch at their timestamps.
func TestInjectorSchedulesEvents(t *testing.T) {
	k := NewKernel()
	var fired []Time
	k.At(100, func() {}) // keep the queue non-empty so Run reaches boundaries
	k.SetInjector(10, func(b Time) Time {
		k.At(b, func() { fired = append(fired, k.Now()) })   // at boundary
		k.At(b+5, func() { fired = append(fired, k.Now()) }) // later
		if b >= 30 {
			return 0 // uninstall
		}
		return b + 20
	})
	k.Run()
	want := []Time{10, 15, 30, 35}
	if fmt.Sprint(fired) != fmt.Sprint(want) {
		t.Fatalf("fired = %v, want %v", fired, want)
	}
}

// TestInjectorTieGoesToHeapEvent checks a queued event at exactly the
// injector boundary dispatches before the injector fires.
func TestInjectorTieGoesToHeapEvent(t *testing.T) {
	k := NewKernel()
	var log []string
	k.At(10, func() { log = append(log, "ev") })
	k.At(20, func() {})
	k.SetInjector(10, func(b Time) Time {
		log = append(log, "inj")
		return 0
	})
	k.Run()
	if fmt.Sprint(log) != "[ev inj]" {
		t.Fatalf("order = %v, want [ev inj]", log)
	}
	if k.Now() != 20 {
		t.Fatalf("now = %v, want 20", k.Now())
	}
}

// TestInjectorRunDoesNotSpin checks Run() terminates when only the injector
// remains: an open-loop source must not keep an otherwise-drained simulation
// alive.
func TestInjectorRunDoesNotSpin(t *testing.T) {
	k := NewKernel()
	k.At(5, func() {})
	n := 0
	k.SetInjector(10, func(b Time) Time {
		n++
		return b + 10
	})
	k.Run()
	if n != 0 {
		t.Fatalf("injector fired %d times under Run with empty queue, want 0", n)
	}
	if k.Now() != 5 {
		t.Fatalf("now = %v, want 5", k.Now())
	}
}

// TestInjectorRunUntil checks RunUntil fires every boundary at or before the
// deadline even with an empty event queue, drains what the callback
// schedules, and leaves later boundaries pending.
func TestInjectorRunUntil(t *testing.T) {
	k := NewKernel()
	var fired []Time
	k.SetInjector(10, func(b Time) Time {
		k.After(3, func() { fired = append(fired, k.Now()) })
		return b + 10
	})
	k.RunUntil(35)
	want := []Time{13, 23, 33}
	if fmt.Sprint(fired) != fmt.Sprint(want) {
		t.Fatalf("fired = %v, want %v", fired, want)
	}
	if k.Now() != 35 {
		t.Fatalf("now = %v, want 35", k.Now())
	}
	// The boundary at 40 must still be owed.
	k.RunUntil(45)
	if len(fired) != 4 || fired[3] != 43 {
		t.Fatalf("after second RunUntil fired = %v, want one more at 43", fired)
	}
}

// TestInjectorImmediateFirst checks SetInjector with a boundary at or before
// the current time fires immediately.
func TestInjectorImmediateFirst(t *testing.T) {
	k := NewKernel()
	k.At(50, func() {})
	k.RunUntil(20)
	n := 0
	k.SetInjector(20, func(b Time) Time {
		n++
		if b != 20 {
			t.Fatalf("boundary = %v, want 20", b)
		}
		return b + 100
	})
	if n != 1 {
		t.Fatalf("immediate firing count = %d, want 1", n)
	}
}

// TestInjectorBeforeEpochHook checks the documented ordering at a shared
// boundary: injector first, then the epoch hook, so injected arrivals are
// visible to the sampler's snapshot.
func TestInjectorBeforeEpochHook(t *testing.T) {
	k := NewKernel()
	var log []string
	k.At(100, func() {})
	k.SetEpochHook(50, func(b Time) Time {
		log = append(log, fmt.Sprintf("hook@%d", b))
		return 0 // one boundary is enough for the ordering check
	})
	k.SetInjector(50, func(b Time) Time {
		log = append(log, fmt.Sprintf("inj@%d", b))
		return 0
	})
	k.Run()
	want := "[inj@50 hook@50]"
	if fmt.Sprint(log) != want {
		t.Fatalf("order = %v, want %v", log, want)
	}
}

// TestInjectorDeterminism checks an installed injector that schedules events
// replays an identical event sequence across two kernels.
func TestInjectorDeterminism(t *testing.T) {
	run := func() []Time {
		k := NewKernel()
		rng := NewRand(42)
		var seen []Time
		k.SetInjector(0, func(b Time) Time {
			gap := Time(rng.Uint64n(900)) + 1
			k.At(b+gap, func() { seen = append(seen, k.Now()) })
			return b + 1000
		})
		k.RunUntil(50_000)
		return seen
	}
	a, b := run(), run()
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("non-deterministic injector replay:\n%v\n%v", a, b)
	}
	// Boundaries 0..50000 fire (51), but the event injected at the final
	// boundary lands past the deadline, so 50 dispatch.
	if len(a) != 50 {
		t.Fatalf("expected 50 injected events, got %d", len(a))
	}
}

// TestInjectorUninstall checks both uninstall paths: returning a non-later
// boundary and passing nil.
func TestInjectorUninstall(t *testing.T) {
	k := NewKernel()
	n := 0
	k.At(100, func() {})
	k.SetInjector(10, func(b Time) Time {
		n++
		return 0
	})
	k.Run()
	if n != 1 {
		t.Fatalf("fired %d times, want 1 then uninstall", n)
	}
	k.SetInjector(200, func(b Time) Time { n++; return b + 1 })
	k.SetInjector(0, nil)
	k.RunUntil(500)
	if n != 1 {
		t.Fatalf("nil uninstall did not take: fired %d times", n)
	}
}
