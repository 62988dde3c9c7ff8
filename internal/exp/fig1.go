package exp

import (
	"fmt"

	"optimus/internal/algo/graph"
	"optimus/internal/hostcentric"
	"optimus/internal/hv"
	"optimus/internal/sim"
)

// Fig1 reproduces Figure 1: SSSP processing time under the shared-memory
// model versus the host-centric model (+Config / +Copy), native and
// virtualized, as the edge count grows.
//
// The paper uses 800K vertices and 3.2M–51.2M edges; the simulated graphs
// are scaled down (same 4×–64× edge/vertex ratios) to keep the cache-line-
// granular shared-memory simulation tractable.
func (s *Session) Fig1() (*Table, error) {
	vertices := 12500
	if s.o.Scale == ScaleFull {
		vertices = 100000
	}
	ratios := []int{4, 8, 16, 32, 64}

	t := &Table{
		ID:    "fig1",
		Title: fmt.Sprintf("SSSP processing time (ms), %d vertices", vertices),
		Header: []string{"Edges", "Shared-Memory", "HC+Config", "HC+Copy",
			"Shared-Mem (Virt)", "HC+Config (Virt)", "HC+Copy (Virt)"},
		Notes: []string{
			"Scaled from the paper's 800K-vertex graphs; edge/vertex ratios match (4x-64x).",
			"Shared-memory runs execute the real SSSP accelerator; host-centric runs model per-segment DMA engine staging.",
		},
	}

	rows := make([][]string, len(ratios))
	err := s.points(len(ratios), func(i int) error {
		edges := vertices * ratios[i]
		g := s.graph(vertices, edges, 0xF16)

		smNative, err := s.runSharedSSSP(g, false)
		if err != nil {
			return err
		}
		smVirt, err := s.runSharedSSSP(g, true)
		if err != nil {
			return err
		}
		hcTimes := map[string]sim.Time{}
		for _, mode := range []hostcentric.Mode{hostcentric.ModeConfig, hostcentric.ModeCopy} {
			for _, virt := range []bool{false, true} {
				k := sim.NewKernel()
				res, err := hostcentric.RunSSSP(k, g, 0, mode, hostcentric.DefaultConfig(virt))
				if err != nil {
					return err
				}
				hcTimes[fmt.Sprintf("%v/%v", mode, virt)] = res.Elapsed
			}
		}
		ms := func(d sim.Time) string { return fmt.Sprintf("%.2f", d.Seconds()*1e3) }
		rows[i] = []string{fmt.Sprintf("%.2fM", float64(edges)/1e6),
			ms(smNative), ms(hcTimes["Host-Centric+Config/false"]), ms(hcTimes["Host-Centric+Copy/false"]),
			ms(smVirt), ms(hcTimes["Host-Centric+Config/true"]), ms(hcTimes["Host-Centric+Copy/true"])}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		t.AddRow(row...)
	}
	return t, nil
}

// runSharedSSSP runs the real shared-memory SSSP accelerator over g and
// returns the job time. Virtualized runs add the trap-and-emulate cost of
// the control-plane operations (job setup MMIOs and page-registration
// hypercalls) — the data plane is identical, which is the point of the
// shared-memory model.
func (s *Session) runSharedSSSP(g *graph.CSR, virtualized bool) (sim.Time, error) {
	h, err := s.platform(hv.Config{Accels: []string{"SSSP"}, Mode: hv.ModePassThrough})
	if err != nil {
		return 0, err
	}
	tn, err := newTenant(h, 0)
	if err != nil {
		return 0, err
	}
	if err := layoutSSSPJob(tn, g, 0); err != nil {
		return 0, err
	}
	start := h.K.Now()
	if err := tn.dev.Start(); err != nil {
		return 0, err
	}
	if err := tn.dev.Wait(); err != nil {
		return 0, err
	}
	elapsed := h.K.Now() - start
	st := h.Stats()
	if virtualized {
		elapsed += sim.Time(st.MMIOTraps)*(hv.MMIOTrapCost-hv.MMIODirectCost) +
			sim.Time(st.Hypercalls)*hv.HypercallCost
	} else {
		elapsed += sim.Time(st.MMIOTraps) * hv.MMIODirectCost
	}
	return elapsed, nil
}
