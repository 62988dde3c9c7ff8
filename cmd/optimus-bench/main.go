// Command optimus-bench regenerates the paper's evaluation artifacts: one
// experiment per table and figure of §6 (plus extensions). Run with no
// arguments to list experiments.
//
// Usage:
//
//	optimus-bench -exp fig1 [-full]
//	optimus-bench -exp all -full
//	optimus-bench -exp all -par 8 -json BENCH_exp.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"optimus/internal/chaos"
	"optimus/internal/exp"
	"optimus/internal/obs"
	"optimus/internal/sim"
)

// expRecord is one experiment's perf sample in the -json artifact; the
// sequence of artifacts across commits is the simulator's performance
// trajectory.
type expRecord struct {
	Exp          string  `json:"exp"`
	WallMS       float64 `json:"wall_ms"`
	Events       uint64  `json:"events_executed"`
	EventsPerSec float64 `json:"events_per_sec"`
	// SetupMS is wall time spent in setup-dominated harness regions
	// (platform assembly, tenant provisioning, warm-platform cloning) as
	// reported by exp's setup observer; SteadyMS is the remainder — the
	// measured simulation itself. The split is exact at -par 1; with
	// parallel workers setup regions can overlap and the split is
	// approximate.
	SetupMS  float64 `json:"setup_wall_ms"`
	SteadyMS float64 `json:"steady_wall_ms"`
	// CloneMS is the wall time spent inside hv.Clone (a sub-region of
	// SetupMS). ResidentBytes/SharedBytes are the cumulative backing-store
	// bytes of every platform the experiment acquired, sampled when the
	// platform is handed to the point: SharedBytes over ResidentBytes is
	// the fraction of memory copy-on-write cloning shared instead of
	// copying (see exp.Result). cmd/perfdiff gates on ResidentBytes
	// regressions.
	CloneMS       float64 `json:"clone_wall_ms"`
	ResidentBytes uint64  `json:"resident_bytes"`
	SharedBytes   uint64  `json:"shared_bytes"`
	// PABusyPct/PAStallPct aggregate the utilization profiler's accelerator
	// lanes across every platform the experiment built (Σbusy over Σhorizon):
	// the simulated-time fraction the accelerators spent doing work vs.
	// saving/loading preemption state. Present only with -profile;
	// cmd/perfdiff reports shifts as behavior-change signals (not gated).
	PABusyPct  float64 `json:"pa_busy_pct,omitempty"`
	PAStallPct float64 `json:"pa_stall_pct,omitempty"`
	// Serving fields, present only for the serve experiment: aggregate
	// offered and completed request rates (per simulated second), the
	// bursty tenant's p999, and the SLO violation percentage, all at the
	// highest offered load in elastic mode (exp.Result.Serve). perfdiff
	// reports latency-curve shifts as behavior-change signals (not gated).
	OfferedLoad     float64 `json:"offered_load,omitempty"`
	AchievedGoodput float64 `json:"achieved_goodput,omitempty"`
	P999NS          uint64  `json:"p999_ns,omitempty"`
	SLOViolationPct float64 `json:"slo_violation_pct,omitempty"`
}

type benchArtifact struct {
	Scale      string      `json:"scale"`
	Par        int         `json:"par"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	TotalMS    float64     `json:"total_wall_ms"`
	Records    []expRecord `json:"experiments"`
}

func main() {
	expID := flag.String("exp", "", "experiment to run (or 'all')")
	full := flag.Bool("full", false, "run at full (paper-sized) scale instead of quick scale")
	par := flag.Int("par", runtime.GOMAXPROCS(0),
		"sweep points to run concurrently (1 = sequential)")
	jsonPath := flag.String("json", "", "write a machine-readable perf artifact (wall time, events/sec per experiment) to this path")
	traceOut := flag.String("trace", "", "write every sweep platform's trace as one Chrome trace-event JSON file (open in ui.perfetto.dev)")
	traceCap := flag.Int("trace-cap", 8192, "per-platform trace ring capacity in records (with -trace)")
	metrics := flag.Bool("metrics", false, "dump every sweep platform's metrics snapshot after the run")
	chaosSpec := flag.String("chaos", "", "arm seeded fault injection on every sweep platform, e.g. seed=7,rate=10000 (keys: seed,rate,xlat,corrupt,drop,dup,pin,retries; rates in ppm)")
	tsOut := flag.String("timeseries", "", "write every sweep platform's windowed metric time-series as one JSON artifact to this path")
	tsWindow := flag.Duration("tswindow", 100*time.Microsecond, "time-series sampling window, in simulated time")
	profileFlag := flag.Bool("profile", false, "dump every sweep platform's per-actor sim-time utilization report after the run")
	critFlag := flag.Bool("critpath", false, "dump every sweep platform's request critical-path analysis after the run (needs trace rings; combine with -trace-cap)")
	sloOut := flag.String("slo", "", "write the serve experiment's SLO-curve artifact (per-point, per-tenant latency percentiles and violation rates) as JSON to this path (requires -exp serve or all)")
	flag.Parse()

	// The deterministic wall bans wall-clock reads inside experiment code,
	// so the setup/steady split is measured here: exp brackets platform
	// acquisition through opts.Setup and the hv.Clone calls within it
	// through opts.Clone, giving the artifact its clone_wall_ms.
	var setupNS, cloneNS atomic.Int64
	opts := exp.Options{
		Par: *par,
		Setup: func() func() {
			t0 := time.Now()
			return func() { setupNS.Add(int64(time.Since(t0))) }
		},
		Clone: func() func() {
			t0 := time.Now()
			return func() { cloneNS.Add(int64(time.Since(t0))) }
		},
	}
	if *chaosSpec != "" {
		ccfg, err := chaos.ParseSpec(*chaosSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "optimus-bench:", err)
			os.Exit(1)
		}
		opts.Chaos = &ccfg
	}
	scaleName := "quick"
	if *full {
		opts.Scale = exp.ScaleFull
		scaleName = "full"
	}

	if *expID == "" {
		fmt.Println("available experiments:")
		for _, id := range exp.IDs() {
			fmt.Println("  ", id)
		}
		fmt.Println("   all")
		return
	}

	ids := []string{*expID}
	if *expID == "all" {
		ids = exp.IDs()
	}

	// Experiments assemble their platforms deep inside figure code, so
	// observability is requested through the run options: each platform
	// gets a private tracer (bounded ring — sweeps build many platforms)
	// and metrics registry, gathered into one collector.
	var coll *obs.Collector
	if *traceOut != "" || *metrics || *tsOut != "" || *profileFlag || *critFlag {
		coll = obs.NewCollector()
		opts.Observe = exp.Observe{Collector: coll, TraceCap: *traceCap, Profile: *profileFlag}
		if *traceOut == "" && !*critFlag && !*profileFlag {
			// No trace consumer: skip the rings. The profiler counts as a
			// consumer — it is fed from the tracer's emit stream.
			opts.Observe.TraceCap = -1
		}
		if *tsOut != "" {
			opts.Observe.Sample = &obs.SampleConfig{Window: sim.Time(tsWindow.Nanoseconds()) * sim.Nanosecond}
		}
	}
	workers := *par
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	art := benchArtifact{Scale: scaleName, Par: workers, GOMAXPROCS: runtime.GOMAXPROCS(0)}
	var servePoints []exp.ServePoint
	suiteStart := time.Now()
	for _, id := range ids {
		start := time.Now()
		platsBefore := 0
		if coll != nil {
			platsBefore = len(coll.Platforms())
		}
		eventsBefore := sim.EventsExecuted()
		setupBefore := setupNS.Load()
		cloneBefore := cloneNS.Load()
		res, err := exp.Run(id, opts, os.Stdout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "optimus-bench: %s: %v\n", id, err)
			os.Exit(1)
		}
		wall := time.Since(start)
		events := sim.EventsExecuted() - eventsBefore
		setup := time.Duration(setupNS.Load() - setupBefore)
		if setup > wall {
			setup = wall
		}
		clone := time.Duration(cloneNS.Load() - cloneBefore)
		if clone > setup {
			clone = setup
		}
		fmt.Printf("(%s completed in %v wall time [%v setup, %v clone], %d events, %.3g events/sec)\n\n",
			id, wall.Round(time.Millisecond), setup.Round(time.Millisecond),
			clone.Round(time.Millisecond), events, float64(events)/wall.Seconds())
		rec := expRecord{
			Exp:           id,
			WallMS:        float64(wall.Nanoseconds()) / 1e6,
			Events:        events,
			EventsPerSec:  float64(events) / wall.Seconds(),
			SetupMS:       float64(setup.Nanoseconds()) / 1e6,
			SteadyMS:      float64((wall - setup).Nanoseconds()) / 1e6,
			CloneMS:       float64(clone.Nanoseconds()) / 1e6,
			ResidentBytes: res.ResidentBytes,
			SharedBytes:   res.SharedBytes,
		}
		if coll != nil && *profileFlag {
			rec.PABusyPct, rec.PAStallPct = paUtil(coll.Platforms()[platsBefore:])
		}
		if res.Serve != nil {
			servePoints = res.Serve
			for _, p := range res.Serve { // headline: the last (highest-load) elastic point
				if p.Mode == "elastic" {
					rec.OfferedLoad, rec.AchievedGoodput = p.OfferedPerSec, p.GoodputPerSec
					rec.P999NS, rec.SLOViolationPct = p.P999Ns, p.ViolationPct
				}
			}
		}
		art.Records = append(art.Records, rec)
	}
	art.TotalMS = float64(time.Since(suiteStart).Nanoseconds()) / 1e6

	if *jsonPath != "" {
		buf, err := json.MarshalIndent(art, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "optimus-bench: encoding %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(*jsonPath, buf, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "optimus-bench: writing %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
		fmt.Printf("wrote perf artifact to %s\n", *jsonPath)
	}

	if *sloOut != "" {
		f, err := os.Create(*sloOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "optimus-bench: %v\n", err)
			os.Exit(1)
		}
		if err := exp.WriteServeJSON(f, servePoints); err == nil {
			err = f.Close()
		} else {
			f.Close()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "optimus-bench: writing %s: %v\n", *sloOut, err)
			os.Exit(1)
		}
		fmt.Printf("wrote SLO-curve artifact to %s\n", *sloOut)
	}

	if *metrics {
		if err := coll.WriteMetrics(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "optimus-bench: metrics: %v\n", err)
			os.Exit(1)
		}
	}
	if *profileFlag {
		if err := coll.WriteProfiles(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "optimus-bench: profile: %v\n", err)
			os.Exit(1)
		}
	}
	if *critFlag {
		if err := coll.WriteCritPaths(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "optimus-bench: critpath: %v\n", err)
			os.Exit(1)
		}
	}
	if *tsOut != "" {
		f, err := os.Create(*tsOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "optimus-bench: %v\n", err)
			os.Exit(1)
		}
		if err := coll.WriteTimeseries(f); err == nil {
			err = f.Close()
		} else {
			f.Close()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "optimus-bench: writing %s: %v\n", *tsOut, err)
			os.Exit(1)
		}
		fmt.Printf("wrote time-series of %d platforms to %s\n", len(coll.Platforms()), *tsOut)
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "optimus-bench: %v\n", err)
			os.Exit(1)
		}
		if err := coll.WriteChromeTrace(f); err == nil {
			err = f.Close()
		} else {
			f.Close()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "optimus-bench: writing %s: %v\n", *traceOut, err)
			os.Exit(1)
		}
		fmt.Printf("wrote trace of %d platforms to %s (open in ui.perfetto.dev)\n",
			len(coll.Platforms()), *traceOut)
	}
}

// paUtil aggregates accelerator-lane utilization across a slice of profiled
// platforms: Σbusy and Σstall over Σ(horizon per PA lane), as percentages.
func paUtil(plats []obs.PlatformObs) (busyPct, stallPct float64) {
	var busy, stall, denom sim.Time
	for _, p := range plats {
		if p.Profile == nil {
			continue
		}
		horizon := p.Profile.Horizon()
		for _, u := range p.Profile.Utilization() {
			if u.Actor.Class() == obs.ClassPA {
				busy += u.Busy
				stall += u.Stall
				denom += horizon
			}
		}
	}
	if denom == 0 {
		return 0, 0
	}
	return 100 * float64(busy) / float64(denom), 100 * float64(stall) / float64(denom)
}
