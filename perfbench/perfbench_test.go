package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// onePass runs a single pass of workload name for seed and returns its
// digest, failing the test on any failed point.
func onePass(t *testing.T, name string, seed uint64, traced bool) uint64 {
	t.Helper()
	r := &runner{}
	if traced {
		r.tr = newTracer()
	}
	ps := runPass(r, workloads[name](seed))
	for _, o := range ps.outs {
		if o.err != nil {
			t.Fatalf("%s seed %d point %s: %v", name, seed, o.name, o.err)
		}
	}
	return ps.digest
}

// TestDigest checks, for every workload, that the result digest repeats
// for a seed, is the same with tracing on and off, and changes with the
// seed (so the seed reaches the simulator's inputs).
func TestDigest(t *testing.T) {
	for name := range workloads {
		name := name
		t.Run(name, func(t *testing.T) {
			a := onePass(t, name, 1, false)
			if b := onePass(t, name, 1, false); b != a {
				t.Errorf("seed 1 digests differ between runs: %016x vs %016x", a, b)
			}
			if b := onePass(t, name, 1, true); b != a {
				t.Errorf("traced digest %016x differs from untraced %016x", b, a)
			}
			if b := onePass(t, name, 2, false); b == a {
				t.Errorf("seeds 1 and 2 give the same digest %016x", a)
			}
		})
	}
}

// TestMetricNames checks that the metrics the program reports are exactly
// the ones BENCHMARK.json declares, with the same units.
func TestMetricNames(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for name := range workloads {
		want = append(want, name)
	}
	sort.Strings(names)
	sort.Strings(want)
	if len(names) != len(want) {
		t.Fatalf("BENCHMARK.json workloads %v, program has %v", names, want)
	}
	for i := range names {
		if names[i] != want[i] {
			t.Fatalf("BENCHMARK.json workloads %v, program has %v", names, want)
		}
	}

	res := &result{passes: []passStats{{}}}
	e2e := map[string]string{}
	for _, m := range res.endToEnd() {
		e2e[m.name] = m.unit
	}
	check := func(kind string, declared []struct{ Name, Unit string }, got map[string]string) {
		if len(declared) != len(got) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program reports %d", kind, len(declared), len(got))
		}
		for _, m := range declared {
			if u, ok := got[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s: %s [%s] declared, program reports unit %q (present %v)", kind, m.Name, m.Unit, u, ok)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, e2e)
	check("per_layer", spec.PerLayer, layerUnits)
}
