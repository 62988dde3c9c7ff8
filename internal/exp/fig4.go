package exp

import (
	"fmt"

	"optimus/internal/accel"
	"optimus/internal/ccip"
	"optimus/internal/hv"
	"optimus/internal/sim"
)

// optimusEight returns an hv.Config that synthesizes eight instances of
// app behind the full three-level tree — the paper's standard OPTIMUS
// bitstream — even when only some slots are used.
func optimusEight(app string) hv.Config {
	apps := make([]string, 8)
	for i := range apps {
		apps[i] = app
	}
	return hv.Config{Accels: apps}
}

// Fig4a reproduces Figure 4a: LinkedList latency under OPTIMUS normalized
// to pass-through, on the UPI-only and PCIe-only channels.
func (s *Session) Fig4a() (*Table, error) {
	nodes := 3000
	if s.o.Scale == ScaleFull {
		nodes = 20000
	}
	t := &Table{
		ID:     "fig4a",
		Title:  "LinkedList latency, OPTIMUS normalized to pass-through (%)",
		Header: []string{"Channel", "PT latency (ns)", "OPTIMUS latency (ns)", "Normalized (%)"},
		Notes:  []string{"Paper: UPI 124.2%, PCIe 111.1% — the 3-level multiplexer tree adds ~100 ns."},
	}
	channels := []ccip.Channel{ccip.VCUPI, ccip.VCPCIe0}
	// One point per (channel, config) pair; both configs of a channel are
	// needed for its normalized column, so rows assemble after the sweep.
	lats := make([]sim.Time, 2*len(channels))
	err := s.grid(len(channels), 2, func(r, c int) error {
		cfg := optimusEight("LL")
		if c == 0 {
			cfg = hv.Config{Accels: []string{"LL"}, Mode: hv.ModePassThrough}
		}
		lat, err := s.llMeanLatency(cfg, channels[r], nodes, 0)
		if err != nil {
			return err
		}
		lats[2*r+c] = lat
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, ch := range channels {
		pt, op := lats[2*i], lats[2*i+1]
		name := "UPI"
		if ch != ccip.VCUPI {
			name = "PCIe"
		}
		t.AddRow(name, fmt.Sprintf("%.0f", pt.Nanoseconds()), fmt.Sprintf("%.0f", op.Nanoseconds()),
			fmtPct(100*float64(op)/float64(pt)))
	}
	return t, nil
}

// llMeanLatency runs one LinkedList walk on slot 0 and returns the mean
// DMA latency observed by the accelerator.
func (s *Session) llMeanLatency(cfg hv.Config, ch ccip.Channel, nodes int, wsBytes uint64) (sim.Time, error) {
	h, err := s.platform(cfg)
	if err != nil {
		return 0, err
	}
	tn, err := newTenant(h, 0)
	if err != nil {
		return 0, err
	}
	if wsBytes == 0 {
		wsBytes = uint64(nodes) * 256
	}
	buf, err := tn.dev.AllocDMA(wsBytes)
	if err != nil {
		return 0, err
	}
	head, _, err := tn.dev.BuildList(buf, nodes, 1)
	if err != nil {
		return 0, err
	}
	tn.dev.RegWrite(accel.LLArgHead, head)
	h.Phy(0).Accel.SetChannel(ch)
	if err := tn.dev.Start(); err != nil {
		return 0, err
	}
	if err := tn.dev.Wait(); err != nil {
		return 0, err
	}
	return h.Phy(0).Accel.DMALatency().Mean(), nil
}

// Fig4b reproduces Figure 4b: per-benchmark throughput under OPTIMUS
// normalized to pass-through.
func (s *Session) Fig4b() (*Table, error) {
	size := uint64(2 << 20)
	window := 2 * sim.Millisecond
	if s.o.Scale == ScaleFull {
		size = 16 << 20
		window = 10 * sim.Millisecond
	}
	apps := []string{"MB", "MD5", "SHA", "AES", "GRN", "FIR", "SW", "RSD", "GAU", "GRS", "SBL", "SSSP", "BTC"}
	t := &Table{
		ID:     "fig4b",
		Title:  "Throughput, OPTIMUS normalized to pass-through (%)",
		Header: []string{"App", "PT (work/s)", "OPTIMUS (work/s)", "Normalized (%)"},
		Notes:  []string{"Paper: MemBench 90.1% (worst case; request every 2 tree cycles); real apps ≥92.7%."},
	}
	vals := make([][2]float64, len(apps))
	err := s.grid(len(apps), 2, func(r, c int) error {
		app := apps[r]
		cfg := optimusEight(app)
		label := "OPTIMUS"
		if c == 0 {
			cfg = hv.Config{Accels: []string{app}, Mode: hv.ModePassThrough}
			label = "PT"
		}
		v, err := s.singleJobThroughput(cfg, app, size, window)
		if err != nil {
			return fmt.Errorf("%s (%s): %w", app, label, err)
		}
		vals[r][c] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, app := range apps {
		pt, op := vals[i][0], vals[i][1]
		t.AddRow(app, fmt.Sprintf("%.3g", pt), fmt.Sprintf("%.3g", op), fmtPct(100*op/pt))
	}
	return t, nil
}

// singleJobThroughput measures one tenant's sustained work rate on slot 0.
func (s *Session) singleJobThroughput(cfg hv.Config, app string, size uint64, window sim.Time) (float64, error) {
	h, err := s.platform(cfg)
	if err != nil {
		return 0, err
	}
	tn, err := newTenant(h, 0)
	if err != nil {
		return 0, err
	}
	j, err := s.provisionJob(tn, app, size, 1)
	if err != nil {
		return 0, err
	}
	return measureAggregate(h, []*job{j}, window)
}
