package exp

import (
	"fmt"

	"optimus/internal/ccip"
	"optimus/internal/fpga"
	"optimus/internal/iommu"
	"optimus/internal/sim"
)

// GuardAblation is an extension experiment isolating the paper's IOTLB
// conflict mitigation (§5): eight MemBench tenants whose individual working
// sets fit their 128 MB conflict-free share, measured with and without the
// inter-slice guard. Without it, every tenant's page n lands in the same
// IOTLB set as every other tenant's page n and the direct-mapped IOTLB
// thrashes even though the aggregate working set fits its reach.
func (s *Session) GuardAblation() (*Table, error) {
	window := sim.Time(1500 * sim.Microsecond)
	if s.o.Scale == ScaleFull {
		window = 5 * sim.Millisecond
	}
	t := &Table{
		ID:     "guard",
		Title:  "IOTLB conflict mitigation ablation: 8x MemBench aggregate read throughput (GB/s)",
		Header: []string{"Per-job WS", "With 128M guard", "Without guard"},
		Notes: []string{
			"Each job's working set fits its 1GB/8 = 128 MB conflict-free share; only the slice layout differs.",
		},
	}
	perJobs := []uint64{16 << 20, 64 << 20, 128 << 20}
	cells := make([][]string, len(perJobs))
	for i := range cells {
		cells[i] = make([]string, 2)
	}
	err := s.grid(len(perJobs), 2, func(r, c int) error {
		gbps, err := s.guardPoint(perJobs[r], c == 1, window)
		if err != nil {
			return err
		}
		cells[r][c] = fmtGBps(gbps)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, perJob := range perJobs {
		t.AddRow(append([]string{fmtBytes(perJob)}, cells[i]...)...)
	}
	return t, nil
}

func (s *Session) guardPoint(perJob uint64, disableGuard bool, window sim.Time) (float64, error) {
	cfg := optimusEight("MB")
	cfg.DisableGuard = disableGuard
	p, err := s.spatial(cfg, 8, nil)
	if err != nil {
		return 0, err
	}
	h := p.H
	h.Mem.SetDiscardWrites(true)
	for i, tn := range p.tenants {
		if err := programJob(tn.dev, Job{App: "MB", Size: perJob, Seed: uint64(i) + 17}, NoStateBuf); err != nil {
			return 0, err
		}
		if err := tn.dev.Start(); err != nil {
			return 0, err
		}
	}
	h.K.RunFor(window / 4)
	before := h.Shell.Stats().BytesRead
	start := h.K.Now()
	h.K.RunFor(window)
	return sim.Throughput(h.Shell.Stats().BytesRead-before, h.K.Now()-start), nil
}

// IOMMUAblation is an extension experiment for §6.4's proposal: integrate
// the IOMMU into the CPU (cheap page walks) and see how much of the
// beyond-reach throughput cliff it recovers.
func (s *Session) IOMMUAblation() (*Table, error) {
	window := sim.Time(1500 * sim.Microsecond)
	if s.o.Scale == ScaleFull {
		window = 5 * sim.Millisecond
	}
	t := &Table{
		ID:     "iommu",
		Title:  "Integrated-IOMMU ablation: 8x MemBench aggregate read throughput (GB/s)",
		Header: []string{"Total WS", "Soft IOMMU (HARP)", "CPU-integrated IOMMU"},
		Notes: []string{
			"The paper argues (§6.4) manufacturers should integrate the IOMMU into the CPU; an integrated walker pays ~1/4 the walk latency.",
		},
	}
	wss := []uint64{512 << 20, 2 << 30, 8 << 30}
	cells := make([][]string, len(wss))
	for i := range cells {
		cells[i] = make([]string, 2)
	}
	err := s.grid(len(wss), 2, func(r, c int) error {
		gbps, err := s.iommuPoint(wss[r], c == 1, window)
		if err != nil {
			return err
		}
		cells[r][c] = fmtGBps(gbps)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, ws := range wss {
		t.AddRow(append([]string{fmtBytes(ws)}, cells[i]...)...)
	}
	return t, nil
}

func (s *Session) iommuPoint(ws uint64, integrated bool, window sim.Time) (float64, error) {
	cfg := optimusEight("MB")
	shell := ccip.DefaultConfig()
	shell.IOMMU = iommu.Config{Integrated: integrated, SpeculativeRegion: true}
	cfg.Shell = &shell
	p, err := s.spatial(cfg, 8, nil)
	if err != nil {
		return 0, err
	}
	h := p.H
	h.Mem.SetDiscardWrites(true)
	perJob := ws / 8
	for i, tn := range p.tenants {
		if err := programJob(tn.dev, Job{App: "MB", Size: perJob, Seed: uint64(i) + 23}, NoStateBuf); err != nil {
			return 0, err
		}
		if err := tn.dev.Start(); err != nil {
			return 0, err
		}
	}
	h.K.RunFor(window / 4)
	before := h.Shell.Stats().BytesRead
	start := h.K.Now()
	h.K.RunFor(window)
	return sim.Throughput(h.Shell.Stats().BytesRead-before, h.K.Now()-start), nil
}

// MuxArityAblation is an extension experiment: end-to-end LinkedList
// latency under different multiplexer arrangements — the
// latency-vs-scalability trade-off §6.3 discusses (each tree level adds
// ~33 ns; a flat mux is lowest-latency but fails 400 MHz timing).
func (s *Session) MuxArityAblation() (*Table, error) {
	nodes := 2000
	if s.o.Scale == ScaleFull {
		nodes = 10000
	}
	t := &Table{
		ID:     "muxarity",
		Title:  "Multiplexer arrangement vs LinkedList latency (UPI, 8 accelerators)",
		Header: []string{"Topology", "Levels", "Latency (ns)", "Meets 400MHz timing"},
	}
	cases := []struct {
		name  string
		topo  fpga.MuxTopology
		meets bool
	}{
		{"binary tree", fpga.MuxTopology{Arity: 2}, true},
		{"quad tree", fpga.MuxTopology{Arity: 4}, true},
		{"flat mux", fpga.MuxTopology{Flat: true}, false},
	}
	rows := make([][]string, len(cases))
	err := s.points(len(cases), func(i int) error {
		c := cases[i]
		cfg := optimusEight("LL")
		cfg.Monitor.Topology = c.topo
		p, err := s.spatial(cfg, 1, nil)
		if err != nil {
			return err
		}
		h, tn := p.H, p.tenants[0]
		if err := programJob(tn.dev, Job{App: "LL", Size: uint64(nodes) * 256, Nodes: nodes, Seed: 1}, NoStateBuf); err != nil {
			return err
		}
		h.Phy(0).Accel.SetChannel(ccip.VCUPI)
		if err := tn.dev.Start(); err != nil {
			return err
		}
		if err := tn.dev.Wait(); err != nil {
			return err
		}
		lat := h.Phy(0).Accel.DMALatency().Mean()
		rows[i] = []string{c.name, fmt.Sprint(h.Monitor.TreeLevels()),
			fmt.Sprintf("%.0f", lat.Nanoseconds()), fmt.Sprint(c.meets)}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"The flat mux's latency is what a hard-wired single-level mux would give; the synthesis model (see 'timing') shows it cannot close timing at 400 MHz as soft logic.")
	return t, nil
}
