// Command optimus-sim runs one virtualization scenario on the simulated
// platform and prints its measurements: a quick way to explore the design
// space (accelerator mix, job counts, page sizes, time slices, scheduler
// policies) outside the canned experiments.
//
// With -load, the scenario switches from closed-loop (each job re-runs as
// fast as the platform allows) to open-loop serving: an internal/load traffic
// engine offers requests at the specified arrival process, admits them
// through bounded per-tenant queues, and reports latency percentiles and SLO
// violations instead of raw work counts.
//
// Usage:
//
//	optimus-sim -accel MB -jobs 4 -ws 64M -duration 10ms
//	optimus-sim -accel LL -jobs 2 -temporal -slice 1ms -policy wrr
//	optimus-sim -accel AES -jobs 8 -pages 4k
//	optimus-sim -accel MB -jobs 2 -duration 40ms -load kind=poisson,rate=15000 -slo 500us
//	optimus-sim -accel MB -jobs 1 -duration 40ms -load kind=trace,file=day.json -slo 1ms
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"optimus/internal/chaos"
	"optimus/internal/exp"
	"optimus/internal/hv"
	"optimus/internal/load"
	"optimus/internal/mem"
	"optimus/internal/obs"
	"optimus/internal/sim"
)

func main() {
	err := run(os.Args[1:], os.Stdout)
	var usage usageError
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.As(err, &usage):
		os.Exit(2) // the flag set has printed the error and the usage
	default:
		fmt.Fprintln(os.Stderr, "optimus-sim:", err)
		os.Exit(1)
	}
}

// usageError is a command-line parse error the flag set has reported.
type usageError struct{ error }

// run turns the command line into an exp.Scenario, runs it on a platform
// of its own, and writes the report to w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("optimus-sim", flag.ContinueOnError)
	app := fs.String("accel", "MB", "accelerator (Table 1 abbreviation)")
	jobs := fs.Int("jobs", 1, "number of concurrent jobs")
	temporal := fs.Bool("temporal", false, "multiplex all jobs on ONE physical accelerator (default: one slot each)")
	wsFlag := fs.String("ws", "32M", "per-job working set / input size")
	durFlag := fs.String("duration", "5ms", "simulated measurement window")
	pages := fs.String("pages", "2m", "page size: 2m or 4k")
	sliceFlag := fs.String("slice", "10ms", "temporal multiplexing time slice")
	policy := fs.String("policy", "rr", "temporal scheduler: rr, wrr, prio")
	passthrough := fs.Bool("passthrough", false, "pass-through baseline instead of OPTIMUS")
	traceOut := fs.String("trace", "", "write a Chrome trace-event JSON file (open in ui.perfetto.dev)")
	metrics := fs.Bool("metrics", false, "dump the unified metrics snapshot after the run")
	chaosSpec := fs.String("chaos", "", "seeded fault injection, e.g. seed=7,rate=10000 (keys: seed,rate,xlat,corrupt,drop,dup,pin,retries; rates in ppm)")
	loadSpec := fs.String("load", "", "open-loop serving: arrival spec, e.g. kind=poisson,rate=15000 (keys: kind=poisson|bursty|trace, rate, on, off, file, seed, qcap, batch, bursts, policy=droptail|token, tokrate, tokburst)")
	sloFlag := fs.String("slo", "", "serving SLO latency target, e.g. 500us (requires -load; arms exact violation counting)")
	tsOut := fs.String("timeseries", "", "write a windowed metric time-series JSON artifact to this file")
	tsWindow := fs.String("tswindow", "100us", "time-series sampling window (simulated time)")
	profile := fs.Bool("profile", false, "print the per-actor sim-time utilization report after the run")
	critpath := fs.Bool("critpath", false, "print the request critical-path analysis after the run")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return usageError{err}
	}

	wsBytes, err := sim.ParseBytes(*wsFlag)
	if err != nil {
		return err
	}
	duration, err := sim.ParseDuration(*durFlag)
	if err != nil {
		return err
	}
	var (
		stream *load.StreamConfig
		bursts uint64
	)
	if *loadSpec != "" {
		if *app != "MB" {
			return fmt.Errorf("-load drives the MB serving scenario (got -accel %s)", *app)
		}
		if *passthrough {
			return fmt.Errorf("-load and -passthrough are incompatible")
		}
		var st load.StreamConfig
		if st, bursts, err = parseLoadSpec(*loadSpec, *sloFlag); err != nil {
			return err
		}
		stream = &st
	} else if *sloFlag != "" {
		return fmt.Errorf("-slo requires -load")
	}
	slice, err := sim.ParseDuration(*sliceFlag)
	if err != nil {
		return err
	}
	var pageSize uint64
	switch strings.ToLower(*pages) {
	case "2m":
		pageSize = mem.PageSize2M
	case "4k":
		pageSize = mem.PageSize4K
	default:
		return fmt.Errorf("-pages: want 2m or 4k, got %q", *pages)
	}
	var pol hv.Policy
	switch *policy {
	case "rr":
		pol = hv.PolicyRR
	case "wrr":
		pol = hv.PolicyWRR
	case "prio":
		pol = hv.PolicyPriority
	default:
		return fmt.Errorf("unknown policy %q (rr, wrr, prio)", *policy)
	}
	if *jobs < 1 {
		return fmt.Errorf("-jobs must be at least 1 (got %d)", *jobs)
	}
	if *app != "MB" && *app != "LL" {
		return fmt.Errorf("optimus-sim drives MB and LL scenarios; use optimus-bench for the application suites")
	}

	nPhys := *jobs
	if *temporal {
		nPhys = 1
	}
	if nPhys > 8 {
		return fmt.Errorf("at most 8 physical accelerators (got %d); use -temporal for more jobs", nPhys)
	}
	accels := make([]string, nPhys)
	for i := range accels {
		accels[i] = *app
	}
	sc := exp.Scenario{Config: hv.Config{Accels: accels, PageSize: pageSize, TimeSlice: slice}}
	if *passthrough {
		sc.Config.Mode = hv.ModePassThrough
		if *jobs > 1 {
			return fmt.Errorf("pass-through supports a single job")
		}
	}
	if *chaosSpec != "" {
		ccfg, err := chaos.ParseSpec(*chaosSpec)
		if err != nil {
			return err
		}
		sc.Config.Chaos = &ccfg
	}
	if *temporal {
		sc.Policy = pol
	}
	for i := 0; i < *jobs; i++ {
		t := exp.Tenant{Slot: i, StateBuf: exp.StateBufFirst}
		if *temporal {
			t.Slot, t.Weight, t.Priority = 0, 1+i%3, i
		}
		t.Job = exp.Job{App: "MB", Size: wsBytes, WritePct: 30, Seed: uint64(i)}
		if *app == "LL" {
			t.Job = exp.Job{App: "LL", Size: wsBytes, Nodes: int(wsBytes / 256), Seed: uint64(i)}
		}
		if stream != nil {
			st := *stream
			st.Name = fmt.Sprintf("t%d", i)
			st.Seed = stream.Seed + uint64(i)*0x9e3779b9
			t.Stream, t.Job.Bursts = &st, bursts
		}
		sc.Tenants = append(sc.Tenants, t)
	}

	var opts exp.Options
	if *traceOut != "" || *metrics || *tsOut != "" || *profile || *critpath {
		// The profiler is fed from the tracer's emit stream, so it needs the
		// ring as much as the trace file and the critical paths do.
		opts.Observe = exp.Observe{Collector: obs.NewCollector(), TraceCap: -1, Profile: *profile}
		if *traceOut != "" || *profile || *critpath {
			opts.Observe.TraceCap = 0
		}
		if *tsOut != "" {
			win, err := sim.ParseDuration(*tsWindow)
			if err != nil {
				return fmt.Errorf("-tswindow: %w", err)
			}
			opts.Observe.Sample = &obs.SampleConfig{Window: win}
		}
	}
	p, err := exp.NewSession(opts).Launch(sc)
	if err != nil {
		return err
	}
	h := p.H
	start := h.K.Now()
	var eng *load.Engine
	if stream != nil {
		eng = p.Serve(sim.Millisecond, start+duration)
		// Past the horizon, run on so in-flight and queued requests drain.
		h.K.RunFor(duration + 10*sim.Millisecond)
	} else {
		h.K.RunFor(duration)
	}
	elapsed := h.K.Now() - start

	fmt.Fprintf(w, "scenario: %s x%d (%s), ws=%s, pages=%s, %v window\n",
		*app, *jobs, map[bool]string{true: "temporal", false: "spatial"}[*temporal], *wsFlag, *pages, duration)
	if eng != nil {
		secs := float64(duration) / float64(sim.Second)
		for _, st := range eng.Streams() {
			fmt.Fprintf(w, "  %s: offered=%d (%.0f/s) admitted=%d dropped=%d completed=%d failed=%d batches=%d\n",
				st.Name(), st.Offered(), float64(st.Offered())/secs,
				st.Admitted(), st.Dropped(), st.Completed(), st.Failed(), st.Batches())
			lat := st.Latency()
			if lat.Count() > 0 {
				pc := lat.Percentiles(50, 99, 99.9)
				us := func(t sim.Time) float64 { return float64(t) / float64(sim.Microsecond) }
				fmt.Fprintf(w, "  %s: latency p50=%.1fus p99=%.1fus p999=%.1fus max=%.1fus\n",
					st.Name(), us(pc[0]), us(pc[1]), us(pc[2]), us(lat.Max()))
			}
			if stream.SLO > 0 && st.Offered() > 0 {
				viol := lat.ViolationsAbove(stream.SLO) + st.Dropped() + st.Failed()
				fmt.Fprintf(w, "  %s: slo=%v violations=%d (%.2f%% of offered)\n",
					st.Name(), stream.SLO, viol, 100*float64(viol)/float64(st.Offered()))
			}
		}
	} else {
		for i := range sc.Tenants {
			va := p.VAccel(i)
			fmt.Fprintf(w, "  job %d: work=%d runtime=%v scheduled=%v\n", i, va.WorkDone(), va.Runtime(), va.Scheduled())
			if err := va.Failed(); err != nil {
				fmt.Fprintf(w, "  job %d: failed: %v\n", i, err)
			}
		}
	}
	writePlatform(w, h, elapsed)
	return writeTelemetry(w, opts.Observe.Collector, h, *metrics, *profile, *critpath, *tsOut, *traceOut)
}

// writePlatform reports the shell, IOTLB, monitor, hypervisor and chaos
// counters; throughput is over the elapsed simulated time.
func writePlatform(w io.Writer, h *hv.Hypervisor, elapsed sim.Time) {
	st := h.Shell.Stats()
	fmt.Fprintf(w, "shell: read %.2f GB/s, write %.2f GB/s, faults=%d\n",
		sim.Throughput(st.BytesRead, elapsed), sim.Throughput(st.BytesWritten, elapsed), st.Faults)
	io := h.Shell.IOMMU.Stats()
	fmt.Fprintf(w, "iotlb: hits=%d misses=%d spec=%d evictions=%d (hit rate %.3f)\n",
		io.Hits, io.Misses, io.SpecHits, io.Evictions, io.HitRate())
	if h.Monitor != nil {
		ms := h.Monitor.Stats()
		fmt.Fprintf(w, "monitor: dma=%d dropped=%d rangeViolations=%d resets=%d\n",
			ms.DMARequests, ms.DMADropped, ms.RangeViolations, ms.Resets)
	}
	hs := h.Stats()
	fmt.Fprintf(w, "hypervisor: traps=%d hypercalls=%d switches=%d forcedResets=%d quarantines=%d pinned=%d\n",
		hs.MMIOTraps, hs.Hypercalls, hs.ContextSwitches, hs.ForcedResets, hs.Quarantines, hs.PagesPinned)
	if p := h.Chaos(); p != nil {
		cs := p.Stats()
		fmt.Fprintf(w, "chaos: injected=%d (xlat=%d corrupt=%d drop=%d dup=%d pin=%d) recovered=%d exhausted=%d\n",
			cs.TotalInjected(), cs.Injected[chaos.ClassXlat], cs.Injected[chaos.ClassCorrupt],
			cs.Injected[chaos.ClassDrop], cs.Injected[chaos.ClassDup], cs.Injected[chaos.ClassPin],
			cs.Recovered, cs.Exhausted)
		fmt.Fprintf(w, "chaos: xlatRetries=%d retransmits=%d dupsSuppressed=%d pinRetries=%d\n",
			cs.XlatRetries, cs.Retransmits, cs.DupsSuppressed, cs.PinRetries)
		if rec := p.Recovery(); rec.Count() > 0 {
			pc := rec.Percentiles(50, 95, 99)
			fmt.Fprintf(w, "chaos: recovery latency p50=%v p95=%v p99=%v (%d recoveries)\n",
				pc[0], pc[1], pc[2], rec.Count())
		}
	}
}

// writeTelemetry prints the requested reports and writes the artifacts
// through the collector (nil when no telemetry was requested).
func writeTelemetry(w io.Writer, coll *obs.Collector, h *hv.Hypervisor, metrics, profile, critpath bool, tsOut, traceOut string) error {
	for _, r := range []struct {
		on    bool
		title string
		write func(io.Writer) error
	}{
		{metrics, "metrics:", func(w io.Writer) error { return coll.WriteMetrics(w) }},
		{profile, "profile:", func(w io.Writer) error { return coll.WriteProfiles(w) }},
		{critpath, "critpath:", func(w io.Writer) error { return coll.WriteCritPaths(w) }},
	} {
		if !r.on {
			continue
		}
		fmt.Fprintln(w, r.title)
		if err := r.write(w); err != nil {
			return err
		}
	}
	if tsOut != "" {
		if err := writeFile(tsOut, coll.WriteTimeseries); err != nil {
			return err
		}
		s := h.Sampler()
		fmt.Fprintf(w, "timeseries: %d windows of %v -> %s\n", s.Windows(), s.Window(), tsOut)
	}
	if traceOut != "" {
		if err := writeFile(traceOut, coll.WriteChromeTrace); err != nil {
			return err
		}
		tr := h.Trace()
		fmt.Fprintf(w, "trace: %d events (%d dropped by ring wrap) -> %s (open in ui.perfetto.dev)\n",
			tr.Len(), tr.Dropped(), traceOut)
	}
	return nil
}

// writeFile creates path and fills it through write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// parseLoadSpec parses the -load key=value spec into a stream template and
// the MemBench bursts each request costs. Per-tenant names and seed offsets
// are applied per tenant; values are checked with the scenario
// (exp.Scenario validates its streams).
func parseLoadSpec(spec, sloFlag string) (load.StreamConfig, uint64, error) {
	stream := load.StreamConfig{
		Arrivals: load.ArrivalSpec{Kind: load.Poisson, RatePerSec: 10000, MeanOn: 2 * sim.Millisecond, MeanOff: 6 * sim.Millisecond},
		Seed:     1,
		QueueCap: 256,
		BatchMax: 4,
	}
	bursts := uint64(64)
	for _, kv := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return stream, 0, fmt.Errorf("-load: want key=value, got %q", kv)
		}
		var err error
		switch k {
		case "kind":
			switch v {
			case "poisson":
				stream.Arrivals.Kind = load.Poisson
			case "bursty":
				stream.Arrivals.Kind = load.Bursty
			case "trace":
				stream.Arrivals.Kind = load.Trace
			default:
				return stream, 0, fmt.Errorf("-load: unknown kind %q (poisson, bursty, trace)", v)
			}
		case "rate":
			stream.Arrivals.RatePerSec, err = strconv.ParseFloat(v, 64)
		case "on":
			stream.Arrivals.MeanOn, err = sim.ParseDuration(v)
		case "off":
			stream.Arrivals.MeanOff, err = sim.ParseDuration(v)
		case "file":
			stream.Arrivals.Trace, err = readTrace(v)
		case "seed":
			stream.Seed, err = strconv.ParseUint(v, 10, 64)
		case "qcap":
			stream.QueueCap, err = strconv.Atoi(v)
		case "batch":
			stream.BatchMax, err = strconv.Atoi(v)
		case "bursts":
			bursts, err = strconv.ParseUint(v, 10, 64)
		case "policy":
			switch v {
			case "droptail":
				stream.Policy = load.DropTail
			case "token":
				stream.Policy = load.TokenBucket
			default:
				return stream, 0, fmt.Errorf("-load: unknown policy %q (droptail, token)", v)
			}
		case "tokrate":
			stream.TokenRatePerSec, err = strconv.ParseFloat(v, 64)
		case "tokburst":
			stream.TokenBurst, err = strconv.ParseFloat(v, 64)
		default:
			return stream, 0, fmt.Errorf("-load: unknown key %q", k)
		}
		if err != nil {
			return stream, 0, fmt.Errorf("-load: %s: %w", k, err)
		}
	}
	if stream.Arrivals.Kind == load.Trace && len(stream.Arrivals.Trace) == 0 {
		return stream, 0, fmt.Errorf("-load: kind=trace needs file=<trace.json> (emit one with optimus-synth -load)")
	}
	if sloFlag != "" {
		slo, err := sim.ParseDuration(sloFlag)
		if err != nil {
			return stream, 0, fmt.Errorf("-slo: %w", err)
		}
		stream.SLO = slo
	}
	return stream, bursts, nil
}

// readTrace loads an arrival-trace artifact (optimus-synth -load): JSON with
// an ascending times_ns array.
func readTrace(path string) ([]sim.Time, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var art struct {
		TimesNs []int64 `json:"times_ns"`
	}
	if err := json.Unmarshal(buf, &art); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make([]sim.Time, len(art.TimesNs))
	for i, ns := range art.TimesNs {
		out[i] = sim.Time(ns) * sim.Nanosecond
	}
	return out, nil
}
