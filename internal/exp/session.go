package exp

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"optimus/internal/chaos"
	"optimus/internal/hv"
	"optimus/internal/obs"
)

// Options configures one experiment run. Everything a run needs beyond the
// experiment ID travels here, so two runs with different options can
// execute concurrently in one process. The zero value is a quick-scale,
// GOMAXPROCS-parallel, fault-free, unobserved run on cloned platforms.
type Options struct {
	Scale Scale
	// Par bounds the sweep points executed concurrently: <= 0 selects
	// GOMAXPROCS, 1 runs points strictly in sequence.
	Par int
	// Fresh builds every point's platform from scratch instead of cloning a
	// warm template. Tables are byte-identical either way; tests use it as
	// the clone-vs-fresh oracle.
	Fresh bool
	// Chaos arms fault injection on every platform that does not set its
	// own hv.Config.Chaos.
	Chaos *chaos.Config
	// Observe requests telemetry on every platform the run acquires.
	Observe Observe
	// Setup and Clone bracket host-time regions for the benchmark driver:
	// each is called on entry and the returned func on exit. Setup brackets
	// platform acquisition (assembly or cloning plus tenant provisioning),
	// Clone the hv.Clone call within it. The clock lives with the caller
	// because experiment code may not read wall time (internal/lint/detwall).
	// With parallel workers only the outermost of overlapping setup regions
	// reports, so the setup split is exact only at Par 1.
	Setup, Clone func() func()
}

// Observe is a run's telemetry request. With a nil Collector nothing is
// observed; otherwise every acquired platform gets a private tracer
// (TraceCap records; 0 selects obs.DefaultCapacity, negative disables
// tracing) and metrics registry, plus the Sample and Profile settings, and
// is registered with the collector.
type Observe struct {
	Collector *obs.Collector
	TraceCap  int
	Sample    *obs.SampleConfig
	Profile   bool
}

// Result is what a run reports besides its rendered tables.
type Result struct {
	// ResidentBytes and SharedBytes sum the backing-store bytes of every
	// platform the run acquired, sampled at acquisition: for a clone that
	// is the sharing high-water mark (everything is shared until the
	// point's first write), so Shared/Resident is the fraction of template
	// memory copy-on-write cloning avoided copying up front.
	ResidentBytes, SharedBytes uint64
	// Serve holds the serve experiment's sweep points (nil for others).
	Serve []ServePoint
}

// Session is the context of one run: its options, its single-flight cache
// (warm templates and generated graphs), and its accounting. Sweep points
// of one session share nothing mutable except through the cache, whose
// entries are write-once; the cache lives as long as the session.
type Session struct {
	o Options

	mu    sync.Mutex
	cache map[string]*flight
	serve []ServePoint

	setupDepth       atomic.Int32
	resident, shared atomic.Uint64
}

// NewSession starts a run context.
func NewSession(o Options) *Session {
	return &Session{o: o, cache: map[string]*flight{}}
}

// Result reports the session's accounting so far.
func (s *Session) Result() Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Result{ResidentBytes: s.resident.Load(), SharedBytes: s.shared.Load(), Serve: s.serve}
}

// flight is one single-flight cache entry: the first caller builds it
// while later callers for the same key wait on once. The map mutex is
// never held during a build, so different keys build concurrently.
type flight struct {
	once sync.Once
	v    any
	err  error
}

// memo returns the session's cached value for key, building it once.
// Cached values are shared by every point and must never be mutated.
func memo[T any](s *Session, key string, build func() (T, error)) (T, error) {
	s.mu.Lock()
	f, ok := s.cache[key]
	if !ok {
		f = &flight{}
		s.cache[key] = f
	}
	s.mu.Unlock()
	f.once.Do(func() { f.v, f.err = build() })
	if f.err != nil {
		var zero T
		return zero, f.err
	}
	return f.v.(T), nil
}

// bracket enters a host-time region through fn (nil: no-op) and returns
// its exit func.
func bracket(fn func() func()) func() {
	if fn == nil {
		return func() {}
	}
	return fn()
}

// template is a warm platform plus the harness handles its build returned.
type template[T any] struct {
	h *hv.Hypervisor
	v T
}

// acquire is the single way a sweep point obtains a platform. It applies
// the session's chaos and telemetry to cfg, brackets the acquisition as
// setup, and then either assembles the platform and runs build on it, or —
// for a cacheable recipe (rebind non-nil) outside Fresh mode — clones a
// warm template that was built once per (recipe, configuration) and lets
// rebind re-wrap the template's handles around the clone. Cloning yields
// byte-identical results because clones share no mutable state with the
// template, which is only ever read (see hv.Clone). Templates are never
// registered with the collector; every acquired platform is, and its
// memory is added to the session's accounting.
func acquire[T any](s *Session, cfg hv.Config, recipe string,
	build func(*hv.Hypervisor) (T, error),
	rebind func(tmpl T, clone *hv.Hypervisor) (T, error)) (*hv.Hypervisor, T, error) {
	if s.setupDepth.Add(1) == 1 {
		defer bracket(s.o.Setup)()
	}
	defer s.setupDepth.Add(-1)

	if cfg.Chaos == nil {
		cfg.Chaos = s.o.Chaos
	}
	var (
		h   *hv.Hypervisor
		v   T
		err error
	)
	if rebind == nil || s.o.Fresh {
		h, v, err = assemble(s.observed(cfg), build)
	} else {
		var t template[T]
		t, err = memo(s, s.templateKey(cfg, recipe), func() (template[T], error) {
			th, tv, err := assemble(s.observed(cfg), build)
			return template[T]{th, tv}, err
		})
		if err == nil {
			endClone := bracket(s.o.Clone)
			h, err = t.h.Clone()
			endClone()
		}
		if err == nil {
			v, err = rebind(t.v, h)
		}
	}
	if err != nil {
		var zero T
		return nil, zero, err
	}
	s.resident.Add(h.Mem.ResidentBytes())
	s.shared.Add(h.Mem.SharedBytes())
	if c := s.o.Observe.Collector; c != nil {
		c.AddPlatform(obs.PlatformObs{
			Label:   strings.Join(h.Config().Accels, "+"),
			Trace:   h.Trace(),
			Metrics: h.Config().Metrics,
			Sampler: h.Sampler(),
			Profile: h.Profiler(),
		})
	}
	return h, v, nil
}

// assemble builds a platform and runs build (if any) on it.
func assemble[T any](cfg hv.Config, build func(*hv.Hypervisor) (T, error)) (*hv.Hypervisor, T, error) {
	var v T
	h, err := hv.New(cfg)
	if err == nil && build != nil {
		v, err = build(h)
	}
	return h, v, err
}

// platform acquires a bare platform that no other point can share.
func (s *Session) platform(cfg hv.Config) (*hv.Hypervisor, error) {
	h, _, err := acquire[struct{}](s, cfg, "", nil, nil)
	return h, err
}

// observed attaches the session's telemetry request to cfg.
func (s *Session) observed(cfg hv.Config) hv.Config {
	o := s.o.Observe
	if o.Collector == nil {
		return cfg
	}
	if o.TraceCap >= 0 {
		cfg.Trace = obs.NewTracer(o.TraceCap)
	}
	cfg.Metrics = obs.NewRegistry()
	cfg.Sample = o.Sample
	cfg.Profile = o.Profile
	return cfg
}

// templateKey fingerprints everything that shapes a template: the recipe,
// the full platform configuration (pointer fields by value), and the
// telemetry shape templates are built with (clones inherit it).
func (s *Session) templateKey(cfg hv.Config, recipe string) string {
	var b strings.Builder
	ch, sh := cfg.Chaos, cfg.Shell
	cfg.Chaos, cfg.Shell = nil, nil
	fmt.Fprintf(&b, "%s|%+v", recipe, cfg)
	if ch != nil {
		fmt.Fprintf(&b, "|chaos:%+v", *ch)
	}
	if sh != nil {
		fmt.Fprintf(&b, "|shell:%+v", *sh)
	}
	if o := s.o.Observe; o.Collector != nil {
		fmt.Fprintf(&b, "|obs:%d,%v", o.TraceCap, o.Profile)
		if o.Sample != nil {
			fmt.Fprintf(&b, ",%+v", *o.Sample)
		}
	}
	return b.String()
}

// spatial returns a cloned platform with n tenants, tenant i alone on slot
// i. With job non-nil, tenant i's job(i) is provisioned (not started)
// inside the warm template itself. That is what makes copy-on-write
// cloning pay off: the filled input buffers (megabytes per tenant) become
// shared frames every clone reuses until something writes them, and the
// per-point provisioning cost (input synthesis, Reed-Solomon encoding,
// graph layout) leaves the sweep inner loop. Results are byte-identical to
// per-point provisioning because provisioning is synchronous,
// deterministic in the scenario, and fully captured by hv.Clone.
func (s *Session) spatial(cfg hv.Config, n int, job func(i int) Job) (*Platform, error) {
	sc := Scenario{Config: cfg, Tenants: make([]Tenant, n)}
	for i := range sc.Tenants {
		sc.Tenants[i].Slot = i
		if job != nil {
			sc.Tenants[i].Job = job(i)
		}
	}
	return s.provision(sc, true)
}
