// Command perfbench is the repository's benchmark: it runs one named
// workload of seeded scenarios against the simulator's public layer APIs,
// checks every output, and prints each metric by name with its unit. The
// last line of standard output is one JSON object with the verdict and the
// metrics: the end-to-end metrics of an untraced run, or the per-layer
// metrics of a traced one (-trace 1). See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// A workload builds its inputs from the seed once; each pass then runs all
// of its points, building their platforms from scratch.
type workload interface {
	pass(r *runner) []outcome
	// simMetrics reduces one pass's outcomes to the workload's simulated
	// metrics (modelled time, identical on every pass of a seed).
	simMetrics(outs []outcome) []metric
	// pageSize is the platform page size the points run on.
	pageSize() uint64
}

var workloads = map[string]func(seed uint64) workload{
	"temporal": func(seed uint64) workload { return newTemporal(seed) },
	"spatial":  func(seed uint64) workload { return newSpatial(seed) },
	"serve":    func(seed uint64) workload { return newServe(seed) },
}

// metric is one named reading.
type metric struct {
	name  string
	value float64
	unit  string
}

const (
	minPasses = 3
	// maxSeconds stops a run early enough to exit within the three minutes
	// a run may take.
	maxSeconds = 120
)

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type verdict struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: temporal, spatial or serve")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "how long to keep running passes")
	trace := flag.Int("trace", 0, "1 runs traced and reports per-layer metrics instead of end-to-end ones")
	spans := flag.String("spans", "", "file a traced run writes its spans to (none when empty)")
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload temporal|spatial|serve and -trace 0|1\n")
		os.Exit(2)
	}
	w := mk(*seed)
	var res *result
	if *trace == 1 {
		res = measureTraced(w, *seed, *seconds)
		if *spans != "" {
			if err := res.tr.write(*spans); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
				os.Exit(1)
			}
		}
	} else {
		res = measure(w, *seconds)
	}
	res.print(*name, *seed, os.Stdout)
}

// passStats is one pass's measurements.
type passStats struct {
	wall, cpu, setup float64 // host seconds
	heapPeak         uint64
	outs             []outcome
	digest           uint64
	layers           map[string]float64 // traced passes only
}

func runPass(r *runner, w workload) passStats {
	r.resetPass()
	from := 0
	if r.tr != nil {
		from = len(r.tr.spans)
	}
	outs := w.pass(r)
	d := newDigest()
	for _, o := range outs {
		d.add(o.digest.sum())
	}
	ps := passStats{
		wall: r.wall.Seconds(), cpu: r.cpu.Seconds(), setup: r.setup.Seconds(),
		heapPeak: r.heapPeak, outs: outs, digest: d.sum(),
	}
	if r.tr != nil {
		ps.layers = layerMetrics(r, outs, from)
	}
	return ps
}

// result aggregates a run's passes.
type result struct {
	w         workload
	passes    []passStats // measured passes
	attempted int
	failed    int
	errs      []string
	digest    uint64
	tr        *tracer
	overhead  float64 // traced runs: median traced minus median untraced pass wall seconds
	probes    map[string]float64
}

// account checks a pass's outcomes and its digest against the first pass.
func (res *result) account(ps passStats) {
	for _, o := range ps.outs {
		res.attempted++
		if o.err != nil {
			res.failed++
			res.errs = append(res.errs, fmt.Sprintf("%s: %v", o.name, o.err))
		}
	}
	if res.digest == 0 {
		res.digest = ps.digest
	} else if ps.digest != res.digest {
		res.failed++
		res.errs = append(res.errs, fmt.Sprintf("pass digest %016x differs from the first pass's %016x", ps.digest, res.digest))
	}
}

// measure runs the untraced loop: one warm-up pass that fills caches and
// finishes lazy set-up (checked, not measured), then passes until seconds
// have elapsed.
func measure(w workload, seconds float64) *result {
	r := &runner{}
	res := &result{w: w}
	res.account(runPass(r, w))
	start := time.Now()
	for len(res.passes) < minPasses || elapsed(start) < seconds {
		if elapsed(start) > maxSeconds {
			break
		}
		ps := runPass(r, w)
		res.account(ps)
		res.passes = append(res.passes, ps)
	}
	return res
}

// measureTraced runs a warm-up pass, then alternates untraced and traced
// passes until seconds have elapsed, then the isolated probes. Alternating
// puts both kinds of pass in the same stretch of host time, so the tracing
// overhead is not confounded with drift in the host's speed.
func measureTraced(w workload, seed uint64, seconds float64) *result {
	r := &runner{}
	res := &result{w: w, tr: newTracer()}
	res.account(runPass(r, w))
	var plain []float64
	start := time.Now()
	for len(res.passes) < minPasses || elapsed(start) < seconds {
		if elapsed(start) > maxSeconds {
			break
		}
		r.tr = nil
		ps := runPass(r, w)
		res.account(ps)
		plain = append(plain, ps.wall)
		r.tr = res.tr
		ps = runPass(r, w)
		res.account(ps)
		res.passes = append(res.passes, ps)
	}
	res.overhead = res.median(func(p passStats) float64 { return p.wall }) - median(plain)
	res.probes = runProbes(w, seed, res.passes[len(res.passes)-1])
	return res
}

func elapsed(t time.Time) float64 { return time.Since(t).Seconds() }

func (res *result) median(f func(passStats) float64) float64 {
	xs := make([]float64, len(res.passes))
	for i, p := range res.passes {
		xs[i] = f(p)
	}
	return median(xs)
}

// endToEnd returns the end-to-end metrics of an untraced run.
func (res *result) endToEnd() []metric {
	var peak uint64
	for _, p := range res.passes {
		if p.heapPeak > peak {
			peak = p.heapPeak
		}
	}
	return []metric{
		{"wall_s", res.median(func(p passStats) float64 { return p.wall }), "s"},
		{"cpu_s", res.median(func(p passStats) float64 { return p.cpu }), "s"},
		{"setup_s", res.median(func(p passStats) float64 { return p.setup }), "s"},
		{"heap_live_mb", float64(peak) / 1e6, "MB"},
	}
}

// perLayer returns the per-layer metrics of a traced run: the median over
// traced passes of every pass metric, plus the probes.
func (res *result) perLayer() []metric {
	var out []metric
	for name, unit := range layerUnits {
		v, ok := res.probes[name]
		if !ok {
			v = res.median(func(p passStats) float64 { return p.layers[name] })
		}
		out = append(out, metric{name, v, unit})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

func (res *result) print(name string, seed uint64, f *os.File) {
	fmt.Fprintf(f, "workload %s seed %d passes %d points %d failed %d digest %016x\n",
		name, seed, len(res.passes), res.attempted, res.failed, res.digest)
	for _, e := range res.errs {
		fmt.Fprintf(f, "FAIL %s\n", e)
	}
	fail := 100 * float64(res.failed) / float64(res.attempted)
	fmt.Fprintf(f, "fail_pct %.4g %%\n", fail)
	for _, m := range res.w.simMetrics(res.passes[0].outs) {
		fmt.Fprintf(f, "%s %.6g %s (simulated)\n", m.name, m.value, m.unit)
	}
	var ms []metric
	if res.tr != nil {
		ms = res.perLayer()
		fmt.Fprintf(f, "trace_overhead_s %.6g s (median traced minus median untraced pass wall)\n", res.overhead)
		for _, m := range extraLayerMetrics(res) {
			fmt.Fprintf(f, "%s %.6g %s\n", m.name, m.value, m.unit)
		}
	} else {
		ms = res.endToEnd()
	}
	v := verdict{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]jsonMetric{}}
	for _, m := range ms {
		fmt.Fprintf(f, "%s %.6g %s\n", m.name, m.value, m.unit)
		v.Metrics[m.name] = jsonMetric{m.value, m.unit}
	}
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintln(f, string(b))
}
