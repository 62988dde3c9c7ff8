package exp

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"optimus/internal/algo/graph"
	"optimus/internal/ccip"
	"optimus/internal/mem"
	"optimus/internal/obs"
	"optimus/internal/sim"
)

func TestPointsCollectsInOrder(t *testing.T) {
	for _, par := range []int{1, 8} {
		got := make([]int, 40)
		if err := NewSession(Options{Par: par}).points(40, func(i int) error {
			got[i] = i * i
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("par=%d: slot %d = %d", par, i, v)
			}
		}
	}
}

func TestPointsLowestIndexErrorWins(t *testing.T) {
	errA := errors.New("a")
	for _, par := range []int{1, 8} {
		err := NewSession(Options{Par: par}).points(16, func(i int) error {
			switch i {
			case 3:
				return errA
			case 11:
				return errors.New("b")
			}
			return nil
		})
		if err != errA {
			t.Fatalf("par=%d: err = %v, want lowest-index error", par, err)
		}
	}
}

func TestPointsZeroAndParallelismBounds(t *testing.T) {
	if err := NewSession(Options{}).points(0, func(int) error { t.Fatal("called"); return nil }); err != nil {
		t.Fatal(err)
	}
	if w := NewSession(Options{Par: -5}).workers(); w < 1 {
		t.Fatalf("workers() = %d with Par -5", w)
	}
	if w := NewSession(Options{Par: 3}).workers(); w != 3 {
		t.Fatalf("workers() = %d, want 3", w)
	}
}

// TestGenGraphSingleFlight asserts concurrent requests for the same graph
// within one session share one generation (same pointer back), that
// another session generates its own, and that nothing races.
func TestGenGraphSingleFlight(t *testing.T) {
	const workers = 16
	s := NewSession(Options{})
	got := make([]*graph.CSR, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			got[w] = s.graph(500, 2000, 0xABCD)
		}()
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if got[w] != got[0] {
			t.Fatal("same-key graph returned distinct graphs")
		}
	}
	if NewSession(Options{}).graph(500, 2000, 0xABCD) == got[0] {
		t.Fatal("a second session shared the first session's cache")
	}
}

// TestRSCodeConcurrentEncode drives the shared RS encoder from many
// goroutines; run under -race this verifies provisioning's only shared
// codec is safe for parallel sweep workers.
func TestRSCodeConcurrentEncode(t *testing.T) {
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			msg := make([]byte, 223)
			for i := range msg {
				msg[i] = byte(i + w)
			}
			cw, err := rsCode().Encode(msg)
			if err != nil || len(cw) != 255 {
				t.Errorf("encode: %v len=%d", err, len(cw))
			}
		}()
	}
	wg.Wait()
}

// render4a56 renders the quick-scale fig4a + fig5 + fig6 determinism
// workload under o. Fig4a covers the full multiplexer-tree request path
// (auditor rewrite, arbitration, credits, pooled completion records), so
// pooling regressions that perturb event order show up here.
func render4a56(t *testing.T, o Options) string {
	t.Helper()
	s := NewSession(o)
	var buf bytes.Buffer
	for _, run := range []func() (*Table, error){
		s.Fig4a,
		func() (*Table, error) { return s.Fig5(mem.PageSize4K, ccip.VCUPI) },
		func() (*Table, error) { return s.Fig6(mem.PageSize4K, false) },
	} {
		tab, err := run()
		if err != nil {
			t.Fatal(err)
		}
		tab.Render(&buf)
	}
	return buf.String()
}

// TestParallelDeterminism is the regression gate for the sweep pool and
// the run options: the fig4a + fig5 + fig6 workload must render
// byte-identical tables whether points execute sequentially or on 8
// workers, on cloned or from-scratch platforms, and with the telemetry
// engine armed or not. Every point owns a private kernel and platform and
// every run owns its options, so each variant is an independent parallel
// subtest compared against the sequential cloned reference.
func TestParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	t.Parallel()
	// A small trace ring forces wraparound, exercising the overwrite path
	// mid-experiment. The sampler hooks the kernel's clock advance (an
	// epoch every 50 µs of simulated time on every kernel) and the
	// profiler is fed from every trace emit, so the sampled variants prove
	// epochs never perturb event order or results.
	traced := func() Observe { return Observe{Collector: obs.NewCollector(), TraceCap: 256} }
	sampled := func() Observe {
		o := traced()
		o.Sample = &obs.SampleConfig{Window: 50 * sim.Microsecond}
		o.Profile = true
		return o
	}
	variants := []struct {
		name string
		o    Options
	}{
		{"par1", Options{Par: 1}},
		{"par8", Options{Par: 8}},
		{"fresh-par1", Options{Par: 1, Fresh: true}},
		{"fresh-par8", Options{Par: 8, Fresh: true}},
		{"traced-par8", Options{Par: 8, Observe: traced()}},
		{"sampled-par1", Options{Par: 1, Observe: sampled()}},
		{"sampled-par8", Options{Par: 8, Observe: sampled()}},
	}
	out := make([]string, len(variants))
	t.Run("variants", func(t *testing.T) {
		for i, v := range variants {
			t.Run(v.name, func(t *testing.T) {
				t.Parallel()
				out[i] = render4a56(t, v.o)
			})
		}
	})
	if out[0] == "" {
		t.Fatal("empty render")
	}
	for i, v := range variants {
		if out[i] != out[0] {
			t.Errorf("%s tables differ from par1:\n--- par1 ---\n%s\n--- %s ---\n%s", v.name, out[0], v.name, out[i])
		}
		coll := v.o.Observe.Collector
		if coll == nil {
			continue
		}
		if len(coll.Platforms()) == 0 {
			t.Errorf("%s: collector gathered no platforms", v.name)
		}
		if v.o.Observe.Sample != nil {
			fired := false
			for _, p := range coll.Platforms() {
				fired = fired || (p.Sampler != nil && p.Sampler.Fired() > 0)
			}
			if !fired {
				t.Errorf("%s: no platform sampled any window", v.name)
			}
		}
	}
}

// TestRunParallelThreadsFlag exercises the CLI entry point end to end.
func TestRunParallelThreadsFlag(t *testing.T) {
	var buf bytes.Buffer
	res, err := Run("table1", Options{Par: 4}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("no output")
	}
	if res.Serve != nil || res.ResidentBytes != 0 {
		t.Fatalf("table1 acquired no platform, got result %+v", res)
	}
}

// TestGridCoversAllCells sanity-checks the 2D helper's index math.
func TestGridCoversAllCells(t *testing.T) {
	seen := make(map[string]bool)
	var mu sync.Mutex
	if err := NewSession(Options{Par: 4}).grid(3, 5, func(r, c int) error {
		mu.Lock()
		seen[fmt.Sprintf("%d/%d", r, c)] = true
		mu.Unlock()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 15 {
		t.Fatalf("visited %d cells, want 15", len(seen))
	}
}
