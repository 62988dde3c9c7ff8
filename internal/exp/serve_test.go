package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"optimus/internal/chaos"
	"optimus/internal/obs"
	"optimus/internal/sim"
)

// serveRender runs the serve curve under o and returns the rendered table
// plus the concatenated per-point digests.
func serveRender(t *testing.T, o Options) (string, string) {
	t.Helper()
	s := NewSession(o)
	tab, err := s.ServeCurve()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tab.Render(&buf)
	var dig strings.Builder
	for _, p := range s.Result().Serve {
		dig.WriteString(p.Digest)
		dig.WriteByte(' ')
	}
	return buf.String(), dig.String()
}

// TestServeCurveDeterminism is the open-loop determinism harness: the same
// seeds must give byte-identical tables and stream digests at any sweep
// parallelism, with the full telemetry engine armed or not, and — under a
// fixed fault plan — with chaos armed at any parallelism. Each variant is
// an independent parallel subtest with its own options, compared against
// its reference variant afterwards.
func TestServeCurveDeterminism(t *testing.T) {
	t.Parallel()
	// Telemetry must be invisible: tracer rings, metrics registries (which
	// carry the load.* namespace), the epoch-driven sampler, and the
	// profiler all armed — the arrival injector and the sampler's epoch
	// hook share clock boundaries, so this is the gate proving injection
	// order survives observation.
	observed := Observe{
		Collector: obs.NewCollector(),
		TraceCap:  256,
		Sample:    &obs.SampleConfig{Window: 250 * sim.Microsecond},
		Profile:   true,
	}
	// Chaos armed: results legitimately differ from the fault-free run, but
	// must still be identical across parallelism for a fixed plan.
	plan := &chaos.Config{Seed: 7, XlatPPM: 200, DropPPM: 100}
	variants := []struct {
		name string
		ref  int // index of the variant this one must reproduce
		o    Options
	}{
		{"par1", 0, Options{Par: 1}},
		{"par8", 0, Options{Par: 8}},
		{"observed-par8", 0, Options{Par: 8, Observe: observed}},
		{"chaos-par1", 3, Options{Par: 1, Chaos: plan}},
		{"chaos-par8", 3, Options{Par: 8, Chaos: plan}},
	}
	tabs := make([]string, len(variants))
	digs := make([]string, len(variants))
	t.Run("variants", func(t *testing.T) {
		for i, v := range variants {
			t.Run(v.name, func(t *testing.T) {
				t.Parallel()
				tabs[i], digs[i] = serveRender(t, v.o)
			})
		}
	})
	for i, v := range variants {
		r := variants[v.ref].name
		if tabs[i] != tabs[v.ref] || digs[i] != digs[v.ref] {
			t.Errorf("serve output differs between %s and %s:\n--- %s ---\n%s\n--- %s ---\n%s", r, v.name, r, tabs[v.ref], v.name, tabs[i])
		}
	}
	if tabs[3] == tabs[0] {
		t.Error("chaos-armed serve table equals the fault-free one: the plan was not applied")
	}
	if len(observed.Collector.Platforms()) == 0 {
		t.Fatal("observed run collected no serve platforms")
	}
	found := false
	for _, p := range observed.Collector.Platforms() {
		if p.Metrics == nil {
			continue
		}
		for _, s := range p.Metrics.Snapshot() {
			if strings.HasPrefix(s.Name, "load.") {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("no observed platform registered load.* metrics")
	}
}

// TestConcurrentRunsOwnOptions runs two sessions with different options at
// once — one fault-free and unobserved, one chaos-armed and observed — and
// requires each to reproduce exactly what it renders alone: its baseline
// tables and its serve digests. Nothing a run configures may leak into
// another run in the same process.
func TestConcurrentRunsOwnOptions(t *testing.T) {
	t.Parallel()
	optsA := func() Options { return Options{Par: 2} }
	optsB := func() Options {
		return Options{
			Par:     2,
			Chaos:   &chaos.Config{Seed: 7, XlatPPM: 2000, DropPPM: 1000},
			Observe: Observe{Collector: obs.NewCollector(), TraceCap: 128},
		}
	}
	run := func(o Options) string {
		s := NewSession(o)
		tab, err := s.MuxArityAblation()
		if err != nil {
			t.Error(err)
			return ""
		}
		var buf bytes.Buffer
		tab.Render(&buf)
		p, err := s.runServePoint(1.1, true)
		if err != nil {
			t.Error(err)
			return ""
		}
		if c := o.Observe.Collector; c != nil && len(c.Platforms()) == 0 {
			t.Error("observed run registered no platforms")
		}
		fmt.Fprintf(&buf, "serve %s completed=%d failed=%d\n", p.Digest, p.Completed, p.Failed)
		return buf.String()
	}
	var concA, concB string
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); concA = run(optsA()) }()
	go func() { defer wg.Done(); concB = run(optsB()) }()
	wg.Wait()
	aloneA, aloneB := run(optsA()), run(optsB())
	if concA != aloneA {
		t.Errorf("fault-free run changed while running beside a chaos run:\n--- alone ---\n%s\n--- concurrent ---\n%s", aloneA, concA)
	}
	if concB != aloneB {
		t.Errorf("chaos run changed while running beside a fault-free run:\n--- alone ---\n%s\n--- concurrent ---\n%s", aloneB, concB)
	}
	if aloneA == aloneB {
		t.Error("chaos-armed run rendered the fault-free output: its options were not applied")
	}
}

// TestServeElasticBeatsStatic commits the experiment's headline claim: at
// the x0.8 operating point the bursty tenant's p999 under elastic slicing
// is well under half the static p999, with more goodput and fewer SLO
// violations — the standby slot absorbs the bursts that static provisioning
// must queue.
func TestServeElasticBeatsStatic(t *testing.T) {
	t.Parallel()
	res, err := Run("serve", Options{}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var static, elastic *ServePoint
	for i := range res.Serve {
		p := &res.Serve[i]
		if p.Mult == 0.8 {
			switch p.Mode {
			case "static":
				static = p
			case "elastic":
				elastic = p
			}
		}
	}
	if static == nil || elastic == nil {
		t.Fatal("x0.8 points missing from serve curve")
	}
	if elastic.Grows == 0 {
		t.Fatal("elastic mode never grew a standby worker")
	}
	if elastic.P999Ns*2 >= static.P999Ns {
		t.Fatalf("elastic p999 %dns not < half static p999 %dns", elastic.P999Ns, static.P999Ns)
	}
	if elastic.ViolationPct >= static.ViolationPct {
		t.Fatalf("elastic violation %.1f%% not below static %.1f%%", elastic.ViolationPct, static.ViolationPct)
	}
	if elastic.Completed < static.Completed {
		t.Fatalf("elastic completed %d < static %d", elastic.Completed, static.Completed)
	}
}

// TestServeJSONArtifact checks the -slo artifact: valid JSON with the armed
// SLO, ordered percentiles, and violation percentages in range.
func TestServeJSONArtifact(t *testing.T) {
	t.Parallel()
	if err := WriteServeJSON(io.Discard, nil); err == nil {
		t.Fatal("WriteServeJSON accepted a run without serve points")
	}
	res, err := Run("serve", Options{}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteServeJSON(&buf, res.Serve); err != nil {
		t.Fatal(err)
	}
	var art struct {
		SLONs  uint64       `json:"slo_ns"`
		Points []ServePoint `json:"points"`
	}
	if err := json.Unmarshal(buf.Bytes(), &art); err != nil {
		t.Fatalf("artifact does not parse: %v", err)
	}
	if art.SLONs != uint64(serveSLO/sim.Nanosecond) {
		t.Fatalf("slo_ns = %d, want %d", art.SLONs, uint64(serveSLO/sim.Nanosecond))
	}
	if len(art.Points) == 0 {
		t.Fatal("no points in artifact")
	}
	lastMult := 0.0
	for _, p := range art.Points {
		if p.Mult < lastMult {
			t.Fatalf("offered-load axis not monotone: x%.1f after x%.1f", p.Mult, lastMult)
		}
		lastMult = p.Mult
		if !(p.P50Ns <= p.P99Ns && p.P99Ns <= p.P999Ns) {
			t.Fatalf("percentiles out of order at x%.1f %s: %d/%d/%d", p.Mult, p.Mode, p.P50Ns, p.P99Ns, p.P999Ns)
		}
		if p.ViolationPct < 0 || p.ViolationPct > 100 {
			t.Fatalf("violation pct %.1f out of range", p.ViolationPct)
		}
		if len(p.Streams) != serveTenants {
			t.Fatalf("point x%.1f %s has %d streams, want %d", p.Mult, p.Mode, len(p.Streams), serveTenants)
		}
		var offered uint64
		for _, sp := range p.Streams {
			offered += sp.Offered
			if sp.Offered != sp.Admitted+sp.Dropped {
				t.Fatalf("stream %s at x%.1f %s: offered %d != admitted %d + dropped %d",
					sp.Name, p.Mult, p.Mode, sp.Offered, sp.Admitted, sp.Dropped)
			}
		}
		if offered != p.Offered {
			t.Fatalf("aggregate offered %d != stream sum %d", p.Offered, offered)
		}
	}
}
