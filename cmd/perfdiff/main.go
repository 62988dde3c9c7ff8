// Command perfdiff tracks the simulator's performance trajectory across the
// committed BENCH_<n>.json lineage.
//
// Gate mode (the default, run by scripts/perfdiff.sh in CI) compares two
// optimus-bench -json artifacts and fails (exit 1) on a regression: more
// than -max-regress percent increase in ns/event for any experiment present
// in both. Experiments that execute no simulator events (table1, table2,
// timing — pure functional-model validation) are compared on wall time
// instead, against the looser -max-wall-regress bound, because wall time is
// all they report and it is noisier in CI.
//
// Trend mode (-trend) reads every committed BENCH_<n>.json in a directory,
// orders them by PR number, and prints each experiment's events/sec (or
// wall time for event-free experiments) across the lineage with the delta
// against the previous artifact — the long-run report that shows where each
// PR's performance work landed.
//
// Usage:
//
//	perfdiff [-max-regress 15] [-max-wall-regress 50] OLD.json NEW.json
//	perfdiff -trend [DIR]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

type expRecord struct {
	Exp           string  `json:"exp"`
	WallMS        float64 `json:"wall_ms"`
	Events        uint64  `json:"events_executed"`
	EventsPerSec  float64 `json:"events_per_sec"`
	SetupMS       float64 `json:"setup_wall_ms"`
	SteadyMS      float64 `json:"steady_wall_ms"`
	CloneMS       float64 `json:"clone_wall_ms"`
	ResidentBytes uint64  `json:"resident_bytes"`
	SharedBytes   uint64  `json:"shared_bytes"`
	PABusyPct     float64 `json:"pa_busy_pct"`
	PAStallPct    float64 `json:"pa_stall_pct"`
	// Serving fields (the serve experiment, PR 10 on): peak-load elastic
	// operating point. Latency is a property of the simulated workload, so
	// shifts are behavior-change signals — reported, never gated.
	OfferedLoad     float64 `json:"offered_load"`
	AchievedGoodput float64 `json:"achieved_goodput"`
	P999NS          uint64  `json:"p999_ns"`
	SLOViolationPct float64 `json:"slo_violation_pct"`
}

type benchArtifact struct {
	Scale      string      `json:"scale"`
	Par        int         `json:"par"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	TotalMS    float64     `json:"total_wall_ms"`
	Records    []expRecord `json:"experiments"`
}

func load(path string) (*benchArtifact, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var a benchArtifact
	if err := json.Unmarshal(buf, &a); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &a, nil
}

// nsPerEvent is the gate metric: host nanoseconds of wall time per
// simulated event. Lower is better; it is robust to experiments simulating
// different amounts of virtual time across commits. Zero means the
// experiment drives no simulator events and must be compared on wall time.
func nsPerEvent(r expRecord) float64 {
	if r.Events == 0 {
		return 0
	}
	return r.WallMS * 1e6 / float64(r.Events)
}

func main() {
	maxRegress := flag.Float64("max-regress", 15, "allowed ns/event increase per experiment (percent)")
	maxWallRegress := flag.Float64("max-wall-regress", 50, "allowed wall-time increase for experiments with no simulator events (percent)")
	minWallMS := flag.Float64("min-wall-ms", 50, "wall-time noise floor: zero-event experiments faster than this on both sides are never a regression")
	maxMemRegress := flag.Float64("max-mem-regress", 15, "allowed resident-memory increase per experiment (percent)")
	minMemBytes := flag.Float64("min-mem-bytes", 1<<20, "memory noise floor: experiments resident below this on both sides are never a memory regression")
	trend := flag.Bool("trend", false, "print the events/sec trend across every committed BENCH_<n>.json in DIR (default .) instead of gating")
	flag.Parse()

	if *trend {
		dir := "."
		if flag.NArg() > 0 {
			dir = flag.Arg(0)
		}
		os.Exit(trendReport(dir))
	}

	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfdiff [-max-regress pct] [-max-wall-regress pct] OLD.json NEW.json\n       perfdiff -trend [DIR]")
		os.Exit(2)
	}
	oldArt, err := load(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfdiff:", err)
		os.Exit(2)
	}
	newArt, err := load(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfdiff:", err)
		os.Exit(2)
	}
	if oldArt.Scale != newArt.Scale || oldArt.Par != newArt.Par {
		fmt.Fprintf(os.Stderr, "perfdiff: artifacts not comparable: scale/par %s/%d vs %s/%d\n",
			oldArt.Scale, oldArt.Par, newArt.Scale, newArt.Par)
		os.Exit(2)
	}

	prev := make(map[string]expRecord, len(oldArt.Records))
	for _, r := range oldArt.Records {
		prev[r.Exp] = r
	}
	failed := false
	compared := 0
	for _, r := range newArt.Records {
		p, ok := prev[r.Exp]
		if !ok {
			fmt.Printf("  %-12s new experiment, no baseline\n", r.Exp)
			continue
		}
		compared++
		oldNS, newNS := nsPerEvent(p), nsPerEvent(r)
		switch {
		case oldNS > 0 && newNS > 0:
			delta := (newNS - oldNS) / oldNS * 100
			status := "ok"
			if delta > *maxRegress {
				status = "REGRESSION"
				failed = true
			}
			fmt.Printf("  %-12s %8.1f -> %8.1f ns/event  %+6.1f%%  %s\n", r.Exp, oldNS, newNS, delta, status)
		case p.Events == 0 && r.Events == 0:
			// No simulator events on either side: wall time is the only
			// signal. Guard the divide — a degenerate zero-wall baseline
			// compares as unchanged.
			if p.WallMS <= 0 {
				fmt.Printf("  %-12s no events and no baseline wall time, skipped\n", r.Exp)
				continue
			}
			delta := (r.WallMS - p.WallMS) / p.WallMS * 100
			status := "ok"
			if delta > *maxWallRegress && (p.WallMS >= *minWallMS || r.WallMS >= *minWallMS) {
				status = "REGRESSION"
				failed = true
			}
			fmt.Printf("  %-12s %8.1f -> %8.1f ms wall    %+6.1f%%  %s (no events)\n", r.Exp, p.WallMS, r.WallMS, delta, status)
		default:
			fmt.Printf("  %-12s event counts changed zero/nonzero (%d -> %d), not comparable\n", r.Exp, p.Events, r.Events)
		}
		// Memory gate: resident bytes at platform acquisition, present in
		// artifacts from PR 8 on (absent fields load as 0 and are skipped).
		// SharedBytes depends on the sharing strategy, so it is reported
		// but never gated.
		if p.ResidentBytes > 0 && r.ResidentBytes > 0 {
			delta := (float64(r.ResidentBytes) - float64(p.ResidentBytes)) / float64(p.ResidentBytes) * 100
			status := "ok"
			if delta > *maxMemRegress && (float64(p.ResidentBytes) >= *minMemBytes || float64(r.ResidentBytes) >= *minMemBytes) {
				status = "MEM REGRESSION"
				failed = true
			}
			fmt.Printf("  %-12s %8s -> %8s resident  %+6.1f%%  %s (shared %s -> %s)\n",
				r.Exp, fmtBytes(p.ResidentBytes), fmtBytes(r.ResidentBytes), delta, status,
				fmtBytes(p.SharedBytes), fmtBytes(r.SharedBytes))
		}
		// Utilization diff: accelerator-lane busy/stall fractions from the
		// profiler (artifacts run with -profile, PR 9 on). Utilization is a
		// property of the simulated workload, not the host, so shifts signal
		// a behavior change in the simulator rather than a performance
		// regression — reported, never gated.
		if p.PABusyPct > 0 && r.PABusyPct > 0 {
			fmt.Printf("  %-12s %7.1f%% -> %6.1f%% pa busy   %+5.1fpp (stall %.1f%% -> %.1f%%)\n",
				r.Exp, p.PABusyPct, r.PABusyPct, r.PABusyPct-p.PABusyPct,
				p.PAStallPct, r.PAStallPct)
		}
		// Serving latency diff: the serve experiment's tail latency and SLO
		// violation fraction at its top elastic operating point (PR 10 on).
		// Like utilization, these describe the simulated workload, so a shift
		// means serving behavior changed — reported, never gated.
		if p.P999NS > 0 && r.P999NS > 0 {
			fmt.Printf("  %-12s %7.1fus -> %6.1fus p999    %+5.1f%% viol %.1f%% -> %.1f%% (goodput %s -> %s req/s)\n",
				r.Exp, float64(p.P999NS)/1e3, float64(r.P999NS)/1e3,
				(float64(r.P999NS)-float64(p.P999NS))/float64(p.P999NS)*100,
				p.SLOViolationPct, r.SLOViolationPct,
				fmtRate(p.AchievedGoodput), fmtRate(r.AchievedGoodput))
		}
	}
	if compared == 0 {
		fmt.Println("perfdiff: no common experiments to compare")
		os.Exit(2)
	}
	if failed {
		fmt.Printf("perfdiff: FAIL (> %.0f%% ns/event, > %.0f%% wall, or > %.0f%% resident-memory regression)\n",
			*maxRegress, *maxWallRegress, *maxMemRegress)
		os.Exit(1)
	}
	fmt.Println("perfdiff: PASS")
}

// fmtBytes renders a byte count compactly (12.3MB, 480KB).
func fmtBytes(n uint64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2fGB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.0fKB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// lineage returns the committed BENCH_<n>.json artifacts in dir, ordered by
// PR number.
func lineage(dir string) ([]string, []int, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return nil, nil, err
	}
	type entry struct {
		path string
		n    int
	}
	var entries []entry
	for _, m := range matches {
		base := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(m), "BENCH_"), ".json")
		n, err := strconv.Atoi(base)
		if err != nil {
			continue // not part of the numbered lineage
		}
		entries = append(entries, entry{m, n})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].n < entries[j].n })
	paths := make([]string, len(entries))
	nums := make([]int, len(entries))
	for i, e := range entries {
		paths[i], nums[i] = e.path, e.n
	}
	return paths, nums, nil
}

// fmtRate renders an events/sec figure compactly (1.35M, 126k).
func fmtRate(v float64) string {
	switch {
	case v >= 1e6:
		return fmt.Sprintf("%.2fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.0fk", v/1e3)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}

func trendReport(dir string) int {
	paths, nums, err := lineage(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfdiff:", err)
		return 2
	}
	if len(paths) == 0 {
		fmt.Printf("perfdiff: no BENCH_<n>.json artifacts in %s\n", dir)
		return 0
	}
	arts := make([]*benchArtifact, len(paths))
	for i, p := range paths {
		a, err := load(p)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfdiff:", err)
			return 2
		}
		arts[i] = a
	}

	fmt.Printf("perf trend across %d artifacts:", len(arts))
	for i, p := range paths {
		fmt.Printf(" %s(%s/par%d)", filepath.Base(p), arts[i].Scale, arts[i].Par)
	}
	fmt.Println()

	// Experiment order: as listed in the newest artifact, then any id that
	// only older artifacts know, in first-seen order.
	var order []string
	seen := map[string]bool{}
	for _, r := range arts[len(arts)-1].Records {
		order = append(order, r.Exp)
		seen[r.Exp] = true
	}
	for _, a := range arts {
		for _, r := range a.Records {
			if !seen[r.Exp] {
				order = append(order, r.Exp)
				seen[r.Exp] = true
			}
		}
	}

	byExp := make([]map[string]expRecord, len(arts))
	for i, a := range arts {
		byExp[i] = make(map[string]expRecord, len(a.Records))
		for _, r := range a.Records {
			byExp[i][r.Exp] = r
		}
	}

	header := fmt.Sprintf("%-12s", "experiment")
	for _, n := range nums {
		header += fmt.Sprintf("  %16s", fmt.Sprintf("BENCH_%d", n))
	}
	fmt.Println(header)
	comparable := func(i, j int) bool {
		return arts[i].Scale == arts[j].Scale && arts[i].Par == arts[j].Par
	}
	for _, id := range order {
		line := fmt.Sprintf("%-12s", id)
		prevIdx := -1
		for i := range arts {
			r, ok := byExp[i][id]
			if !ok {
				line += fmt.Sprintf("  %16s", "-")
				continue
			}
			var cell string
			if r.Events > 0 {
				cell = fmtRate(r.EventsPerSec) + " ev/s"
			} else {
				cell = fmt.Sprintf("%.1fms wall", r.WallMS)
			}
			if prevIdx >= 0 && comparable(prevIdx, i) {
				p := byExp[prevIdx][id]
				var delta float64
				switch {
				case r.Events > 0 && p.Events > 0:
					delta = (r.EventsPerSec - p.EventsPerSec) / p.EventsPerSec * 100
					cell += fmt.Sprintf(" %+.0f%%", delta)
				case r.Events == 0 && p.Events == 0 && p.WallMS > 0:
					delta = (r.WallMS - p.WallMS) / p.WallMS * 100
					cell += fmt.Sprintf(" %+.0f%%", delta)
				}
			}
			line += fmt.Sprintf("  %16s", cell)
			prevIdx = i
		}
		fmt.Println(line)
	}

	line := fmt.Sprintf("%-12s", "total wall")
	prevIdx := -1
	for i, a := range arts {
		cell := fmt.Sprintf("%.0fs", a.TotalMS/1e3)
		if prevIdx >= 0 && comparable(prevIdx, i) && arts[prevIdx].TotalMS > 0 {
			cell += fmt.Sprintf(" %+.0f%%", (a.TotalMS-arts[prevIdx].TotalMS)/arts[prevIdx].TotalMS*100)
		}
		line += fmt.Sprintf("  %16s", cell)
		prevIdx = i
	}
	fmt.Println(line)

	// Memory trend: resident bytes at platform acquisition plus the CoW
	// sharing ratio, for artifacts that record them (PR 8 on). Cells show
	// "resident/share%"; older artifacts show "-".
	anyMem := false
	for _, a := range arts {
		for _, r := range a.Records {
			if r.ResidentBytes > 0 {
				anyMem = true
			}
		}
	}
	if anyMem {
		fmt.Println()
		fmt.Println("memory trend (resident bytes at acquisition / CoW-shared fraction):")
		fmt.Println(header)
		for _, id := range order {
			line := fmt.Sprintf("%-12s", id)
			shown := false
			for i := range arts {
				r, ok := byExp[i][id]
				if !ok || r.ResidentBytes == 0 {
					line += fmt.Sprintf("  %16s", "-")
					continue
				}
				shown = true
				cell := fmt.Sprintf("%s/%.0f%%sh", fmtBytes(r.ResidentBytes),
					float64(r.SharedBytes)/float64(r.ResidentBytes)*100)
				line += fmt.Sprintf("  %16s", cell)
			}
			if shown {
				fmt.Println(line)
			}
		}
	}

	// Utilization trend: accelerator-lane busy fraction for artifacts whose
	// runs were profiled (PR 9 on). Cells show "busy%/stall%".
	anyUtil := false
	for _, a := range arts {
		for _, r := range a.Records {
			if r.PABusyPct > 0 {
				anyUtil = true
			}
		}
	}
	if anyUtil {
		fmt.Println()
		fmt.Println("utilization trend (accelerator lanes, busy% / stall% of simulated time):")
		fmt.Println(header)
		for _, id := range order {
			line := fmt.Sprintf("%-12s", id)
			shown := false
			for i := range arts {
				r, ok := byExp[i][id]
				if !ok || r.PABusyPct == 0 {
					line += fmt.Sprintf("  %16s", "-")
					continue
				}
				shown = true
				line += fmt.Sprintf("  %16s", fmt.Sprintf("%.1f%%/%.1f%%", r.PABusyPct, r.PAStallPct))
			}
			if shown {
				fmt.Println(line)
			}
		}
	}

	// Serving trend: tail latency and SLO violation fraction at the serve
	// experiment's top elastic operating point (PR 10 on). Cells show
	// "p999/viol%"; informational like utilization — latency curves are
	// workload properties, so the lineage row shows behavior drift, not a
	// gated regression.
	anyServe := false
	for _, a := range arts {
		for _, r := range a.Records {
			if r.P999NS > 0 {
				anyServe = true
			}
		}
	}
	if anyServe {
		fmt.Println()
		fmt.Println("serving trend (p999 latency / SLO violation % at top elastic load):")
		fmt.Println(header)
		for _, id := range order {
			line := fmt.Sprintf("%-12s", id)
			shown := false
			for i := range arts {
				r, ok := byExp[i][id]
				if !ok || r.P999NS == 0 {
					line += fmt.Sprintf("  %16s", "-")
					continue
				}
				shown = true
				line += fmt.Sprintf("  %16s", fmt.Sprintf("%.0fus/%.1f%%", float64(r.P999NS)/1e3, r.SLOViolationPct))
			}
			if shown {
				fmt.Println(line)
			}
		}
	}
	return 0
}
