// Package sim is the globalstate fixture: package-level state in a
// simulation package, covering every allowed shape and the seeded
// violations the analyzer must catch.
package sim

import (
	"errors"
	"sync"
	"sync/atomic"
)

// Seeded violation: a bare mutable counter shared by every platform in the
// process.
var pointCount int // want "package-level mutable var pointCount"

// Seeded violation: reference types alias shared storage.
var cache = map[string]int{} // want "package-level mutable var cache"

var results []float64 // want "package-level mutable var results"

var current *Engine // want "package-level mutable var current"

// Exported vars are writable by any importer, even immutable-shaped ones.
var Tick uint64 // want "package-level mutable var Tick"

// Sync primitives are the synchronization fabric itself.
var mu sync.Mutex

var once sync.Once

var wg sync.WaitGroup

// Atomics are race-free but still process-wide mutable state: a counter
// every platform bumps, or a run-mode toggle flipped by one caller and
// seen by all.
var total atomic.Uint64 // want "package-level mutable var total"

var cloneOff atomic.Bool // want "package-level mutable var cloneOff"

func setCloning(on bool) { cloneOff.Store(!on) }

// Error sentinels are immutable by convention.
var ErrStalled = errors.New("sim: stalled")

// Unexported read-only table, never written outside init: allowed.
var weights = [4]uint64{1, 2, 4, 8}

// Same shape, but a function below reassigns an element: flagged.
var tuning = [2]uint64{10, 20} // want "package-level mutable var tuning"

// Init-time registration with its audit trail.
//
//optimus:global-ok registry is sealed after init; lookups are read-only
var registry = map[string]func() *Engine{}

// Annotation without a reason defeats the audit trail.
//
//optimus:global-ok
var unexplained = map[string]int{} // want "//optimus:global-ok on unexplained needs a reason"

// A directive typo shares the //optimus:global-ok prefix but is not the
// directive; the var stays flagged.
//
//optimus:global-okay sealed after init
var typoed = map[string]int{} // want "package-level mutable var typoed"

// deferred looks like a read-only table, but the closure init stores in
// the registry rewrites it whenever a caller invokes the constructor —
// init-time definition is not init-time execution.
var deferred = [2]uint64{1, 2} // want "package-level mutable var deferred"

// lateTable is written by a func literal in a package-level initializer;
// the literal only runs when somebody calls hook, long after init.
var lateTable = [2]uint64{3, 4} // want "package-level mutable var lateTable"

var hook = func() { lateTable[1] = 7 }

// Engine stands in for platform-owned state.
type Engine struct {
	steps uint64
}

func init() {
	registry["default"] = func() *Engine { return &Engine{} }
	registry["tuned"] = func() *Engine {
		deferred[0] = 9 // runs per call, not during init
		return &Engine{}
	}
	weights[0] = 1 // writes inside init are the registration window
}

func retune(v uint64) {
	tuning[0] = v
	pointCount++
}

func observe(e *Engine) {
	e.steps++ // writes through locals/fields are platform-owned: clean
}
