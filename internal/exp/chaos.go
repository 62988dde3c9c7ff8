package exp

import (
	"fmt"

	"optimus/internal/chaos"
	"optimus/internal/hv"
	"optimus/internal/sim"
)

// chaosRates are the injected fault rates (ppm per DMA fault class) swept by
// the chaos experiment; 0 is the uninjected baseline. An array, not a
// slice: the globalstate analyzer admits package-level read-only tables
// only when no shared storage can leak through a copy.
var chaosRates = [...]uint32{0, 1_000, 10_000, 50_000}

// ChaosSweep runs the fault-injection experiment: a 2-slot, 4-tenant
// MemBench platform under seeded chaos at increasing fault rates, reporting
// how much of the injected adversity the hypervisor absorbs (recovered vs
// exhausted), what it costs (recovery latency percentiles), and what is left
// of goodput.
func (s *Session) ChaosSweep() (*Table, error) {
	window := 3 * sim.Millisecond
	if s.o.Scale == ScaleFull {
		window = 12 * sim.Millisecond
	}
	t := &Table{
		ID:     "chaos",
		Title:  "Hypervisor under seeded fault injection (per-class rate sweep)",
		Header: []string{"Rate (ppm)", "Injected", "Recovered", "Exhausted", "Failed jobs", "Goodput (GB/s)", "p50 (us)", "p95 (us)", "p99 (us)"},
		Notes: []string{
			"Each DMA fault class (translation, corruption, drop, duplicate) is injected at the row's rate; every duplicate must be suppressed and every injection accounted.",
			"Recovery latency is the extra wire/backoff delay absorbed per recovered request; exhausted retries fail only the victim's own job.",
			"Page-pin faults are exercised by the internal/chaos harness, not swept here: they hit job setup, which would conflate provisioning and steady-state goodput.",
		},
	}
	rows := make([][]string, len(chaosRates))
	err := s.points(len(chaosRates), func(i int) error {
		row, err := s.chaosPoint(chaosRates[i], window)
		if err != nil {
			return fmt.Errorf("rate %d: %w", chaosRates[i], err)
		}
		rows[i] = row
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

// chaosPoint runs one sweep point on a private platform and renders its row.
func (s *Session) chaosPoint(rate uint32, window sim.Time) ([]string, error) {
	cfg := hv.Config{
		Accels:    []string{"MB", "MB"},
		TimeSlice: 200 * sim.Microsecond,
		Seed:      42,
	}
	if rate > 0 {
		cfg.Chaos = &chaos.Config{
			Seed:       0xc4a05 + uint64(rate),
			XlatPPM:    rate,
			CorruptPPM: rate,
			DropPPM:    rate,
			DupPPM:     rate,
		}
	}
	sc := Scenario{Config: cfg}
	for i := 0; i < 4; i++ {
		sc.Tenants = append(sc.Tenants, Tenant{Slot: i % 2, Job: appJob("MB", 4<<20, uint64(1000+i)), StateBuf: StateBufLast})
	}
	p, err := s.Launch(sc)
	if err != nil {
		return nil, err
	}
	h := p.H
	h.K.RunFor(window)

	// Goodput is measured at the window edge; then injection stops and the
	// platform drains briefly so the exact accounting invariants below are
	// checked at quiescence (no injected fault still mid-recovery).
	var work uint64
	failed := 0
	for i := range sc.Tenants {
		work += p.VAccel(i).WorkDone()
		if p.VAccel(i).Failed() != nil {
			failed++
		}
	}
	goodput := float64(work) / 1e9 / window.Seconds()
	h.Chaos().Disarm()
	h.K.RunFor(50 * sim.Microsecond)

	plan := h.Chaos()
	if plan == nil { // baseline row
		return []string{"0", "0", "0", "0",
			fmt.Sprintf("%d", failed), fmt.Sprintf("%.2f", goodput), "-", "-", "-"}, nil
	}
	st := plan.Stats()
	if st.DupsSuppressed != st.Injected[chaos.ClassDup] {
		return nil, fmt.Errorf("duplicate completion leaked: %d injected, %d suppressed",
			st.Injected[chaos.ClassDup], st.DupsSuppressed)
	}
	if st.Recovered+st.Exhausted != st.TotalInjected() {
		return nil, fmt.Errorf("accounting hole: %d injected, %d recovered + %d exhausted",
			st.TotalInjected(), st.Recovered, st.Exhausted)
	}
	us := func(d sim.Time) string { return fmt.Sprintf("%.2f", d.Seconds()*1e6) }
	pct := plan.Recovery().Percentiles(50, 95, 99)
	return []string{
		fmt.Sprintf("%d", rate),
		fmt.Sprintf("%d", st.TotalInjected()),
		fmt.Sprintf("%d", st.Recovered),
		fmt.Sprintf("%d", st.Exhausted),
		fmt.Sprintf("%d", failed),
		fmt.Sprintf("%.2f", goodput),
		us(pct[0]), us(pct[1]), us(pct[2]),
	}, nil
}
