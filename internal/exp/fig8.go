package exp

import (
	"fmt"

	"optimus/internal/accel"
	"optimus/internal/hv"
	"optimus/internal/sim"
)

// Fig8 reproduces Figure 8: aggregate throughput under preemptive temporal
// multiplexing with all virtual accelerators scheduled on a single physical
// accelerator, normalized to one job. The per-switch overhead (~0.5% for
// LinkedList, ~0.7% for MemBench) stays constant beyond two jobs because
// preemption occurs at a fixed interval regardless of the queue depth.
// "MD5 worst case" pads the preemption state with the benchmark's full
// on-FPGA resource footprint (§6.6's upper-bound estimate).
func (s *Session) Fig8() (*Table, error) {
	jobCounts := []int{1, 2, 4, 8, 16}
	slice := 10 * sim.Millisecond
	slicesPerJob := 2
	if s.o.Scale == ScaleQuick {
		slice = 2 * sim.Millisecond
		slicesPerJob = 2
	}
	t := &Table{
		ID:    "fig8",
		Title: fmt.Sprintf("Temporal multiplexing aggregate throughput (one physical accelerator, %v slices), normalized to 1 job", slice),
		Header: append([]string{"Workload"}, func() []string {
			var h []string
			for _, n := range jobCounts {
				h = append(h, fmt.Sprintf("%d job(s)", n))
			}
			return h
		}()...),
		Notes: []string{
			"Overhead is flat beyond 2 jobs: preemption happens once per slice however many jobs share the accelerator.",
			"MD5 worst case assumes every resource the design occupies must be saved (a multi-MB state DMA per switch).",
		},
	}
	workloads := []struct {
		name string
		app  string
		pad  int
	}{
		{"LinkedList", "LL", 0},
		{"MemBench", "MB", 0},
		{"MD5 Worst Case", "MB", 5 << 19}, // 2.5 MB: MD5's full resource footprint
	}
	thrs := make([][]float64, len(workloads))
	for i := range thrs {
		thrs[i] = make([]float64, len(jobCounts))
	}
	err := s.grid(len(workloads), len(jobCounts), func(r, c int) error {
		w := workloads[r]
		n := jobCounts[c]
		thr, err := s.fig8Point(w.app, w.pad, n, slice, sim.Time(16*slicesPerJob)*slice)
		if err != nil {
			return fmt.Errorf("%s x%d: %w", w.name, n, err)
		}
		thrs[r][c] = thr
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, w := range workloads {
		base := thrs[i][0] // jobCounts[0] == 1
		row := []string{w.name}
		for _, thr := range thrs[i] {
			row = append(row, fmt.Sprintf("%.3f", thr/base))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// fig8Point runs n virtual accelerators of app on one physical slot for
// the window and returns aggregate work/second.
func (s *Session) fig8Point(app string, statePad int, n int, slice, window sim.Time) (float64, error) {
	h, err := s.platform(hv.Config{
		Accels:    []string{app},
		TimeSlice: slice,
	})
	if err != nil {
		return 0, err
	}
	if statePad > 0 {
		accel.PadState(h.Phy(0).Accel, statePad)
	}
	tenants := make([]*tenant, n)
	for i := range tenants {
		tn, err := newTenant(h, 0)
		if err != nil {
			return 0, err
		}
		tenants[i] = tn
		if app == "LL" {
			// Size the list so it cannot be exhausted within the window:
			// the single physical accelerator completes at most one hop
			// per ~500 ns across ALL tenants.
			nodes := int(window/(250*sim.Nanosecond)) + 1024
			buf, err := tn.dev.AllocDMA(uint64(nodes) * 64)
			if err != nil {
				return 0, err
			}
			head, _, err := tn.dev.BuildList(buf, nodes, uint64(i)+5)
			if err != nil {
				return 0, err
			}
			tn.dev.RegWrite(accel.LLArgHead, head)
		} else {
			buf, err := tn.dev.AllocDMA(16 << 20)
			if err != nil {
				return 0, err
			}
			tn.dev.RegWrite(accel.MBArgBase, uint64(buf.Addr))
			tn.dev.RegWrite(accel.MBArgSize, buf.Size)
			tn.dev.RegWrite(accel.MBArgBursts, 0)
			tn.dev.RegWrite(accel.MBArgWritePct, 30)
			tn.dev.RegWrite(accel.MBArgSeed, uint64(i))
		}
		if _, err := tn.dev.SetupStateBuffer(); err != nil {
			return 0, err
		}
		if err := tn.dev.Start(); err != nil {
			return 0, err
		}
	}
	// Warm up one full rotation so every job's first (restore-free) slice
	// is outside the measurement window.
	h.K.RunFor(sim.Time(n+1) * slice)
	before := make([]uint64, n)
	for i, tn := range tenants {
		before[i] = tn.dev.VAccel().WorkDone()
	}
	start := h.K.Now()
	h.K.RunFor(window)
	elapsed := h.K.Now() - start
	var total float64
	for i, tn := range tenants {
		if err := tn.dev.VAccel().Failed(); err != nil {
			return 0, err
		}
		total += float64(tn.dev.VAccel().WorkDone() - before[i])
	}
	return total / elapsed.Seconds(), nil
}
