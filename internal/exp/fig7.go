package exp

import (
	"fmt"

	"optimus/internal/sim"
)

// Fig7 reproduces Figure 7: aggregate throughput of the real-world
// applications as the number of concurrent acceleration jobs grows,
// normalized to a single job. GAU, GRS, SBL, and SSSP saturate the
// interconnect beyond four jobs; the others scale roughly linearly.
func (s *Session) Fig7() (*Table, error) {
	jobCounts := []int{1, 2, 4, 8}
	size := uint64(2 << 20)
	window := 2 * sim.Millisecond
	if s.o.Scale == ScaleFull {
		size = 8 << 20
		window = 8 * sim.Millisecond
	}
	apps := []string{"MD5", "SHA", "AES", "GRN", "FIR", "SW", "RSD", "GAU", "GRS", "SBL", "SSSP", "BTC"}
	t := &Table{
		ID:    "fig7",
		Title: "Aggregate throughput of real-world applications, normalized to 1 job",
		Header: append([]string{"App"}, func() []string {
			var h []string
			for _, n := range jobCounts {
				h = append(h, fmt.Sprintf("%d job(s)", n))
			}
			return h
		}()...),
		Notes: []string{
			"Paper: GAU, GRS, SBL, SSSP stop scaling beyond 4 jobs (interconnect saturated); the rest scale near-linearly to 8.",
		},
	}
	aggs := make([][]float64, len(apps))
	for i := range aggs {
		aggs[i] = make([]float64, len(jobCounts))
	}
	err := s.grid(len(apps), len(jobCounts), func(r, c int) error {
		agg, err := s.fig7Point(apps[r], jobCounts[c], size, window)
		if err != nil {
			return fmt.Errorf("%s x%d: %w", apps[r], jobCounts[c], err)
		}
		aggs[r][c] = agg
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, app := range apps {
		base := aggs[i][0] // jobCounts[0] == 1
		row := []string{app}
		for _, agg := range aggs[i] {
			row = append(row, fmtRatio(agg/base))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// fig7Point measures aggregate work/second of n concurrent instances.
// Tenant i's job uses seed i+1; provisioning lives inside the warm
// template (see spatialJobs), so every point starts from a CoW clone of an
// already-provisioned platform.
func (s *Session) fig7Point(app string, n int, size uint64, window sim.Time) (float64, error) {
	h, jobs, err := s.spatialJobs(optimusEight(app), n,
		jobSpec{App: app, Size: size, Seed: 1, Stride: 1})
	if err != nil {
		return 0, err
	}
	return measureAggregate(h, jobs, window)
}
