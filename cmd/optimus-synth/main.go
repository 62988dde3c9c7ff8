// Command optimus-synth reports the FPGA synthesis model's utilization and
// timing feasibility for a chosen accelerator configuration — the
// simulated counterpart of the Quartus reports behind Table 2.
//
// With -load it instead emits a diurnal arrival-trace artifact for the
// open-loop traffic engine: a JSON timeline that optimus-sim replays via
// -load kind=trace,file=<out>.
//
// Usage:
//
//	optimus-synth -apps AES,AES,MB -monitor -arity 2
//	optimus-synth -apps MB -n 8 -flat
//	optimus-synth -load day.json -rate 20000 -span 80ms -peak 4 -cycles 2 -seed 42
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"optimus/internal/fpga"
	"optimus/internal/load"
	"optimus/internal/sim"
)

func main() {
	appsFlag := flag.String("apps", "AES", "comma-separated accelerator names (Table 1 abbreviations)")
	n := flag.Int("n", 0, "replicate the first app n times (overrides -apps list length)")
	monitor := flag.Bool("monitor", true, "include the OPTIMUS hardware monitor")
	flat := flag.Bool("flat", false, "use a flat multiplexer instead of a tree")
	arity := flag.Int("arity", 2, "multiplexer tree arity")
	target := flag.Int("mhz", 400, "target multiplexer clock (MHz)")
	loadOut := flag.String("load", "", "emit a diurnal arrival-trace JSON artifact to this file instead of synthesizing")
	rate := flag.Float64("rate", 20000, "trace mean arrival rate (req/s of simulated time)")
	span := flag.String("span", "80ms", "trace duration (simulated time, e.g. 80ms)")
	peak := flag.Float64("peak", 4, "trace peak:trough rate ratio (>= 1)")
	cycles := flag.Int("cycles", 2, "diurnal cycles across the trace span")
	seed := flag.Uint64("seed", 1, "trace generation seed (same seed, same timeline)")
	flag.Parse()

	if *loadOut != "" {
		if err := emitTrace(*loadOut, *seed, *span, *rate, *peak, *cycles); err != nil {
			fmt.Fprintln(os.Stderr, "optimus-synth:", err)
			os.Exit(1)
		}
		return
	}

	apps := strings.Split(*appsFlag, ",")
	if *n > 0 {
		base := apps[0]
		apps = make([]string, *n)
		for i := range apps {
			apps[i] = base
		}
	}
	rep, err := fpga.Synthesize(fpga.Arria10(), fpga.SynthConfig{
		Apps:        apps,
		WithMonitor: *monitor,
		Mux:         fpga.MuxTopology{Arity: *arity, Flat: *flat},
		TargetMHz:   *target,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "optimus-synth:", err)
		os.Exit(1)
	}
	fmt.Printf("Device: %s (%d ALMs, %d M20K)\n", rep.Device.Name, rep.Device.ALMs, rep.Device.BRAMBlocks)
	fmt.Printf("%-20s %10s %10s\n", "Component", "ALM %", "BRAM %")
	for _, c := range rep.Components {
		fmt.Printf("%-20s %10.2f %10.2f\n", c.Name, c.ALMPct, c.BRAMPct)
	}
	fmt.Printf("%-20s %10.2f %10.2f\n", "TOTAL", rep.TotalALM, rep.TotalBRAM)
	fmt.Printf("Mux levels: %d\n", rep.MuxLevels)
	if rep.TimingMet {
		fmt.Printf("Timing at %d MHz: MET\n", *target)
	} else {
		fmt.Printf("Timing at %d MHz: FAILED — %s\n", *target, rep.TimingNote)
		os.Exit(2)
	}
}

// emitTrace generates a load.DiurnalTrace timeline and writes the artifact
// optimus-sim's -load kind=trace,file= mode reads.
func emitTrace(path string, seed uint64, spanFlag string, rate, peak float64, cycles int) error {
	span, err := sim.ParseDuration(spanFlag)
	if err != nil {
		return fmt.Errorf("-span: %w", err)
	}
	times := load.DiurnalTrace(seed, span, rate, peak, cycles)
	art := struct {
		Seed       uint64  `json:"seed"`
		DurationNs int64   `json:"duration_ns"`
		RatePerSec float64 `json:"mean_rate_per_sec"`
		PeakFactor float64 `json:"peak_factor"`
		Cycles     int     `json:"cycles"`
		TimesNs    []int64 `json:"times_ns"`
	}{
		Seed:       seed,
		DurationNs: int64(span / sim.Nanosecond),
		RatePerSec: rate,
		PeakFactor: peak,
		Cycles:     cycles,
		TimesNs:    make([]int64, len(times)),
	}
	for i, t := range times {
		art.TimesNs[i] = int64(t / sim.Nanosecond)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(&art); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("trace: %d arrivals over %v (mean %.0f/s, peak factor %.1f, %d cycles, seed %d) -> %s\n",
		len(times), span, rate, peak, cycles, seed, path)
	return nil
}
