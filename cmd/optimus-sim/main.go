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
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"optimus/internal/accel"
	"optimus/internal/chaos"
	"optimus/internal/guest"
	"optimus/internal/hv"
	"optimus/internal/load"
	"optimus/internal/mem"
	"optimus/internal/obs"
	"optimus/internal/sim"
)

func main() {
	app := flag.String("accel", "MB", "accelerator (Table 1 abbreviation)")
	jobs := flag.Int("jobs", 1, "number of concurrent jobs")
	temporal := flag.Bool("temporal", false, "multiplex all jobs on ONE physical accelerator (default: one slot each)")
	ws := flag.String("ws", "32M", "per-job working set / input size")
	durFlag := flag.String("duration", "5ms", "simulated measurement window")
	pages := flag.String("pages", "2m", "page size: 2m or 4k")
	sliceFlag := flag.String("slice", "10ms", "temporal multiplexing time slice")
	policy := flag.String("policy", "rr", "temporal scheduler: rr, wrr, prio")
	passthrough := flag.Bool("passthrough", false, "pass-through baseline instead of OPTIMUS")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON file (open in ui.perfetto.dev)")
	metrics := flag.Bool("metrics", false, "dump the unified metrics snapshot after the run")
	chaosSpec := flag.String("chaos", "", "seeded fault injection, e.g. seed=7,rate=10000 (keys: seed,rate,xlat,corrupt,drop,dup,pin,retries; rates in ppm)")
	loadSpec := flag.String("load", "", "open-loop serving: arrival spec, e.g. kind=poisson,rate=15000 (keys: kind=poisson|bursty|trace, rate, on, off, file, seed, qcap, batch, bursts, policy=droptail|token, tokrate, tokburst)")
	sloFlag := flag.String("slo", "", "serving SLO latency target, e.g. 500us (requires -load; arms exact violation counting)")
	var tel telemetry
	flag.StringVar(&tel.timeseries, "timeseries", "", "write a windowed metric time-series JSON artifact to this file")
	flag.StringVar(&tel.window, "tswindow", "100us", "time-series sampling window (simulated time)")
	flag.BoolVar(&tel.profile, "profile", false, "print the per-actor sim-time utilization report after the run")
	flag.BoolVar(&tel.critpath, "critpath", false, "print the request critical-path analysis after the run")
	flag.Parse()

	if err := run(*app, *jobs, *temporal, *ws, *durFlag, *pages, *sliceFlag, *policy, *passthrough, *traceOut, *metrics, *chaosSpec, *loadSpec, *sloFlag, tel); err != nil {
		fmt.Fprintln(os.Stderr, "optimus-sim:", err)
		os.Exit(1)
	}
}

// telemetry groups the sim-time telemetry-engine flags: time-series
// sampler, utilization profiler, critical-path analyzer.
type telemetry struct {
	timeseries string
	window     string
	profile    bool
	critpath   bool
}

// loadConfig is the parsed -load/-slo serving setup: the per-tenant stream
// template plus the MB bursts each request costs.
type loadConfig struct {
	stream load.StreamConfig
	bursts uint64
}

// parseLoadSpec parses the -load key=value spec into a stream template.
// Per-tenant names and seed offsets are applied at stream creation.
func parseLoadSpec(spec, sloFlag string) (*loadConfig, error) {
	lc := &loadConfig{
		stream: load.StreamConfig{
			Arrivals: load.ArrivalSpec{Kind: load.Poisson, RatePerSec: 10000, MeanOn: 2 * sim.Millisecond, MeanOff: 6 * sim.Millisecond},
			Seed:     1,
			QueueCap: 256,
			BatchMax: 4,
		},
		bursts: 64,
	}
	for _, kv := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("-load: want key=value, got %q", kv)
		}
		var err error
		switch k {
		case "kind":
			switch v {
			case "poisson":
				lc.stream.Arrivals.Kind = load.Poisson
			case "bursty":
				lc.stream.Arrivals.Kind = load.Bursty
			case "trace":
				lc.stream.Arrivals.Kind = load.Trace
			default:
				return nil, fmt.Errorf("-load: unknown kind %q (poisson, bursty, trace)", v)
			}
		case "rate":
			lc.stream.Arrivals.RatePerSec, err = strconv.ParseFloat(v, 64)
		case "on":
			lc.stream.Arrivals.MeanOn, err = sim.ParseDuration(v)
		case "off":
			lc.stream.Arrivals.MeanOff, err = sim.ParseDuration(v)
		case "file":
			lc.stream.Arrivals.Trace, err = readTrace(v)
		case "seed":
			lc.stream.Seed, err = strconv.ParseUint(v, 10, 64)
		case "qcap":
			lc.stream.QueueCap, err = strconv.Atoi(v)
		case "batch":
			lc.stream.BatchMax, err = strconv.Atoi(v)
		case "bursts":
			lc.bursts, err = strconv.ParseUint(v, 10, 64)
		case "policy":
			switch v {
			case "droptail":
				lc.stream.Policy = load.DropTail
			case "token":
				lc.stream.Policy = load.TokenBucket
			default:
				return nil, fmt.Errorf("-load: unknown policy %q (droptail, token)", v)
			}
		case "tokrate":
			lc.stream.TokenRatePerSec, err = strconv.ParseFloat(v, 64)
		case "tokburst":
			lc.stream.TokenBurst, err = strconv.ParseFloat(v, 64)
		default:
			return nil, fmt.Errorf("-load: unknown key %q", k)
		}
		if err != nil {
			return nil, fmt.Errorf("-load: %s: %w", k, err)
		}
	}
	if lc.stream.Arrivals.Kind == load.Trace && len(lc.stream.Arrivals.Trace) == 0 {
		return nil, fmt.Errorf("-load: kind=trace needs file=<trace.json> (emit one with optimus-synth -load)")
	}
	if lc.stream.Policy == load.TokenBucket && lc.stream.TokenRatePerSec <= 0 {
		return nil, fmt.Errorf("-load: policy=token needs tokrate=<req/s>")
	}
	if sloFlag != "" {
		slo, err := sim.ParseDuration(sloFlag)
		if err != nil {
			return nil, fmt.Errorf("-slo: %w", err)
		}
		lc.stream.SLO = slo
	}
	return lc, nil
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

// loadWorker adapts one tenant's guest device to the traffic engine: a batch
// of n requests becomes one MB run of bursts*n memory bursts.
type loadWorker struct {
	dev    *guest.Device
	bursts uint64
	done   func(failed bool)
	onDone func()
}

func (w *loadWorker) Bind(done func(failed bool)) {
	w.done = done
	w.onDone = func() { w.done(w.dev.VAccel().Failed() != nil) }
}

func (w *loadWorker) Launch(n int) error {
	w.dev.RegWrite(accel.MBArgBursts, w.bursts*uint64(n))
	if err := w.dev.Start(); err != nil {
		return err
	}
	w.dev.OnDone(w.onDone)
	return nil
}

func run(app string, jobs int, temporal bool, wsFlag, durFlag, pages, sliceFlag, policy string, passthrough bool, traceOut string, metrics bool, chaosSpec, loadSpec, sloFlag string, tel telemetry) error {
	wsBytes, err := sim.ParseBytes(wsFlag)
	if err != nil {
		return err
	}
	duration, err := sim.ParseDuration(durFlag)
	if err != nil {
		return err
	}
	var lc *loadConfig
	if loadSpec != "" {
		if app != "MB" {
			return fmt.Errorf("-load drives the MB serving scenario (got -accel %s)", app)
		}
		if passthrough {
			return fmt.Errorf("-load and -passthrough are incompatible")
		}
		lc, err = parseLoadSpec(loadSpec, sloFlag)
		if err != nil {
			return err
		}
	} else if sloFlag != "" {
		return fmt.Errorf("-slo requires -load")
	}
	slice, err := sim.ParseDuration(sliceFlag)
	if err != nil {
		return err
	}
	pageSize := uint64(mem.PageSize2M)
	if strings.EqualFold(pages, "4k") {
		pageSize = mem.PageSize4K
	}

	nPhys := jobs
	if temporal {
		nPhys = 1
	}
	if nPhys > 8 {
		return fmt.Errorf("at most 8 physical accelerators (got %d); use -temporal for more jobs", nPhys)
	}
	accels := make([]string, nPhys)
	for i := range accels {
		accels[i] = app
	}
	cfg := hv.Config{Accels: accels, PageSize: pageSize, TimeSlice: slice}
	if passthrough {
		cfg.Mode = hv.ModePassThrough
		if jobs > 1 {
			return fmt.Errorf("pass-through supports a single job")
		}
	}
	if traceOut != "" || tel.profile || tel.critpath {
		cfg.Trace = obs.NewTracer(0)
	}
	cfg.Profile = tel.profile
	if chaosSpec != "" {
		ccfg, err := chaos.ParseSpec(chaosSpec)
		if err != nil {
			return err
		}
		cfg.Chaos = &ccfg
	}
	var reg *obs.Registry
	if metrics || tel.timeseries != "" {
		reg = obs.NewRegistry()
		cfg.Metrics = reg
	}
	if tel.timeseries != "" {
		w, err := sim.ParseDuration(tel.window)
		if err != nil {
			return fmt.Errorf("-tswindow: %w", err)
		}
		cfg.Sample = &obs.SampleConfig{Window: w}
	}
	h, err := hv.New(cfg)
	if err != nil {
		return err
	}
	if temporal {
		switch policy {
		case "rr":
		case "wrr":
			h.Scheduler(0).SetPolicy(hv.PolicyWRR)
		case "prio":
			h.Scheduler(0).SetPolicy(hv.PolicyPriority)
		default:
			return fmt.Errorf("unknown policy %q", policy)
		}
	}

	type tenantState struct {
		vm  *hv.VM
		dev *guest.Device
	}
	tenants := make([]tenantState, jobs)
	for i := 0; i < jobs; i++ {
		slot := i
		if temporal {
			slot = 0
		}
		vm, err := h.NewVM(fmt.Sprintf("vm%d", i), 10<<30)
		if err != nil {
			return err
		}
		proc := vm.NewProcess()
		va, err := h.NewVAccel(proc, slot)
		if err != nil {
			return err
		}
		if temporal {
			va.SetWeight(1 + i%3)
			va.SetPriority(i)
		}
		dev, err := guest.Open(proc, va)
		if err != nil {
			return err
		}
		tenants[i] = tenantState{vm: vm, dev: dev}
		buf, err := dev.AllocDMA(wsBytes)
		if err != nil {
			return err
		}
		if _, err := dev.SetupStateBuffer(); err != nil {
			return err
		}
		switch app {
		case "MB":
			dev.RegWrite(accel.MBArgBase, uint64(buf.Addr))
			dev.RegWrite(accel.MBArgSize, wsBytes)
			dev.RegWrite(accel.MBArgBursts, 0)
			dev.RegWrite(accel.MBArgWritePct, 30)
			dev.RegWrite(accel.MBArgSeed, uint64(i))
		case "LL":
			head, _, err := dev.BuildList(buf, int(wsBytes/256), uint64(i))
			if err != nil {
				return err
			}
			dev.RegWrite(accel.LLArgHead, head)
		default:
			return fmt.Errorf("optimus-sim drives MB and LL scenarios; use optimus-bench for the application suites")
		}
		// In serving mode the traffic engine launches the device per batch;
		// closed-loop mode starts one continuous job now.
		if lc == nil {
			if err := dev.Start(); err != nil {
				return err
			}
		}
	}

	var eng *load.Engine
	if lc != nil {
		eng = load.NewEngine(h.K, sim.Millisecond, h.K.Now()+duration)
		for i, tn := range tenants {
			cfg := lc.stream
			cfg.Name = fmt.Sprintf("t%d", i)
			cfg.Seed = lc.stream.Seed + uint64(i)*0x9e3779b9
			st := eng.AddStream(cfg)
			st.AddWorker(&loadWorker{dev: tn.dev, bursts: lc.bursts})
			st.SetTrace(h.Trace(), obs.VM(tn.vm.ID))
		}
		if reg != nil {
			eng.RegisterMetrics(reg)
		}
		eng.Attach()
		// Past the horizon, run on so in-flight and queued requests drain.
		h.K.RunFor(duration + 10*sim.Millisecond)
	} else {
		h.K.RunFor(duration)
	}

	fmt.Printf("scenario: %s x%d (%s), ws=%s, pages=%s, %v window\n",
		app, jobs, map[bool]string{true: "temporal", false: "spatial"}[temporal], wsFlag, pages, duration)
	if eng != nil {
		secs := float64(duration) / float64(sim.Second)
		for _, st := range eng.Streams() {
			fmt.Printf("  %s: offered=%d (%.0f/s) admitted=%d dropped=%d completed=%d failed=%d batches=%d\n",
				st.Name(), st.Offered(), float64(st.Offered())/secs,
				st.Admitted(), st.Dropped(), st.Completed(), st.Failed(), st.Batches())
			lat := st.Latency()
			if lat.Count() > 0 {
				pc := lat.Percentiles(50, 99, 99.9)
				us := func(t sim.Time) float64 { return float64(t) / float64(sim.Microsecond) }
				fmt.Printf("  %s: latency p50=%.1fus p99=%.1fus p999=%.1fus max=%.1fus\n",
					st.Name(), us(pc[0]), us(pc[1]), us(pc[2]), us(lat.Max()))
			}
			if lc.stream.SLO > 0 && st.Offered() > 0 {
				viol := lat.ViolationsAbove(lc.stream.SLO) + st.Dropped() + st.Failed()
				fmt.Printf("  %s: slo=%v violations=%d (%.2f%% of offered)\n",
					st.Name(), lc.stream.SLO, viol, 100*float64(viol)/float64(st.Offered()))
			}
		}
	} else {
		var totalWork float64
		for i, tn := range tenants {
			va := tn.dev.VAccel()
			work := va.WorkDone()
			totalWork += float64(work)
			fmt.Printf("  job %d: work=%d runtime=%v scheduled=%v\n", i, work, va.Runtime(), va.Scheduled())
		}
	}
	st := h.Shell.Stats()
	fmt.Printf("shell: read %.2f GB/s, write %.2f GB/s, faults=%d\n",
		sim.Throughput(st.BytesRead, duration), sim.Throughput(st.BytesWritten, duration), st.Faults)
	io := h.Shell.IOMMU.Stats()
	fmt.Printf("iotlb: hits=%d misses=%d spec=%d evictions=%d (hit rate %.3f)\n",
		io.Hits, io.Misses, io.SpecHits, io.Evictions, io.HitRate())
	if h.Monitor != nil {
		ms := h.Monitor.Stats()
		fmt.Printf("monitor: dma=%d dropped=%d rangeViolations=%d resets=%d\n",
			ms.DMARequests, ms.DMADropped, ms.RangeViolations, ms.Resets)
	}
	hs := h.Stats()
	fmt.Printf("hypervisor: traps=%d hypercalls=%d switches=%d forcedResets=%d quarantines=%d pinned=%d\n",
		hs.MMIOTraps, hs.Hypercalls, hs.ContextSwitches, hs.ForcedResets, hs.Quarantines, hs.PagesPinned)
	if p := h.Chaos(); p != nil {
		cs := p.Stats()
		fmt.Printf("chaos: injected=%d (xlat=%d corrupt=%d drop=%d dup=%d pin=%d) recovered=%d exhausted=%d\n",
			cs.TotalInjected(), cs.Injected[chaos.ClassXlat], cs.Injected[chaos.ClassCorrupt],
			cs.Injected[chaos.ClassDrop], cs.Injected[chaos.ClassDup], cs.Injected[chaos.ClassPin],
			cs.Recovered, cs.Exhausted)
		fmt.Printf("chaos: xlatRetries=%d retransmits=%d dupsSuppressed=%d pinRetries=%d\n",
			cs.XlatRetries, cs.Retransmits, cs.DupsSuppressed, cs.PinRetries)
		if rec := p.Recovery(); rec.Count() > 0 {
			pc := rec.Percentiles(50, 95, 99)
			fmt.Printf("chaos: recovery latency p50=%v p95=%v p99=%v (%d recoveries)\n",
				pc[0], pc[1], pc[2], rec.Count())
		}
	}
	if reg != nil && metrics {
		fmt.Println("metrics:")
		if err := reg.WriteText(os.Stdout); err != nil {
			return err
		}
	}
	if tel.profile {
		fmt.Println("profile:")
		if err := h.Profiler().WriteReport(os.Stdout); err != nil {
			return err
		}
	}
	if tel.critpath {
		fmt.Println("critpath:")
		if err := obs.AnalyzeCritPath(h.Trace().Records()).WriteText(os.Stdout); err != nil {
			return err
		}
	}
	if tel.timeseries != "" {
		f, err := os.Create(tel.timeseries)
		if err != nil {
			return err
		}
		s := h.Sampler()
		if err := s.WriteJSON(f, strings.Join(accels, "+")); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("timeseries: %d windows of %v -> %s\n", s.Windows(), s.Window(), tel.timeseries)
	}
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return err
		}
		tr := h.Trace()
		if err := tr.WriteChromeTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("trace: %d events (%d dropped by ring wrap) -> %s (open in ui.perfetto.dev)\n",
			tr.Len(), tr.Dropped(), traceOut)
	}
	return nil
}
