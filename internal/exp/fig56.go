package exp

import (
	"fmt"

	"optimus/internal/accel"
	"optimus/internal/ccip"
	"optimus/internal/mem"
	"optimus/internal/sim"
)

// fig5WorkingSets lists the aggregate working-set points. The paper sweeps
// 16M–8G with 2M pages and 32K–16M with 4K pages.
func fig5WorkingSets(pageSize uint64, scale Scale) []uint64 {
	if pageSize == mem.PageSize4K {
		ws := []uint64{32 << 10, 128 << 10, 512 << 10, 2 << 20, 8 << 20, 16 << 20}
		return ws
	}
	ws := []uint64{16 << 20, 64 << 20, 256 << 20, 1 << 30, 2 << 30, 4 << 30, 8 << 30}
	if scale == ScaleQuick {
		ws = []uint64{64 << 20, 512 << 20, 1 << 30, 2 << 30, 4 << 30}
	}
	return ws
}

// Fig5 reproduces Figure 5: LinkedList average memory access latency as the
// aggregate working set and the number of concurrent jobs grow, for the
// given page size and pinned channel.
func (s *Session) Fig5(pageSize uint64, ch ccip.Channel) (*Table, error) {
	jobCounts := []int{1, 2, 4, 8}
	nodes := 2500
	if s.o.Scale == ScaleFull {
		nodes = 12000
	}
	pageName := "2M"
	if pageSize == mem.PageSize4K {
		pageName = "4K"
	}
	t := &Table{
		ID:    "fig5",
		Title: fmt.Sprintf("LinkedList average latency (ns), %s pages, %v channel", pageName, ch),
		Header: append([]string{"Total WS"}, func() []string {
			var h []string
			for _, n := range jobCounts {
				h = append(h, fmt.Sprintf("%d job(s)", n))
			}
			return h
		}()...),
		Notes: []string{
			"Latency is flat while the working set fits the IOTLB reach (1 GB at 2M pages, 2 MB at 4K), then climbs as misses add soft-IOMMU walks.",
		},
	}
	wss := fig5WorkingSets(pageSize, s.o.Scale)
	cells := make([][]string, len(wss))
	for i := range cells {
		cells[i] = make([]string, len(jobCounts))
	}
	err := s.grid(len(wss), len(jobCounts), func(r, c int) error {
		lat, err := s.llLatencyPoint(pageSize, ch, jobCounts[c], wss[r], nodes)
		if err != nil {
			return err
		}
		cells[r][c] = fmt.Sprintf("%.0f", lat.Nanoseconds())
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

// llLatencyPoint runs n concurrent LinkedList walkers whose lists together
// span ws bytes and returns the mean access latency across them.
func (s *Session) llLatencyPoint(pageSize uint64, ch ccip.Channel, n int, ws uint64, nodes int) (sim.Time, error) {
	cfg := optimusEight("LL")
	cfg.PageSize = pageSize
	h, tenants, err := s.spatialPlatform(cfg, n)
	if err != nil {
		return 0, err
	}
	perJob := ws / uint64(n)
	if perJob < uint64(nodes)*64 {
		nodes = int(perJob / 64)
		if nodes < 16 {
			nodes = 16
		}
	}
	remaining := n
	for i, tn := range tenants {
		buf, err := tn.dev.AllocDMA(perJob)
		if err != nil {
			return 0, err
		}
		head, _, err := tn.dev.BuildList(buf, nodes, uint64(i)+3)
		if err != nil {
			return 0, err
		}
		tn.dev.RegWrite(accel.LLArgHead, head)
		h.Phy(i).Accel.SetChannel(ch)
		if err := tn.dev.Start(); err != nil {
			return 0, err
		}
		tn.dev.OnDone(func() { remaining-- })
	}
	h.K.RunWhile(func() bool { return remaining > 0 })
	if remaining > 0 {
		return 0, fmt.Errorf("exp: LL jobs stalled")
	}
	var total sim.Time
	var count uint64
	for i := 0; i < n; i++ {
		stat := h.Phy(i).Accel.DMALatency()
		total += stat.Mean() * sim.Time(stat.Count())
		count += stat.Count()
	}
	return total / sim.Time(count), nil
}

// Fig6 reproduces Figure 6: MemBench aggregate throughput versus aggregate
// working set and job count, for reads or writes, at the given page size.
func (s *Session) Fig6(pageSize uint64, writes bool) (*Table, error) {
	jobCounts := []int{1, 2, 4, 8}
	window := sim.Time(1500 * sim.Microsecond)
	if s.o.Scale == ScaleFull {
		window = 5 * sim.Millisecond
	}
	kind := "read"
	if writes {
		kind = "write"
	}
	pageName := "2M"
	if pageSize == mem.PageSize4K {
		pageName = "4K"
	}
	t := &Table{
		ID:    "fig6",
		Title: fmt.Sprintf("MemBench aggregate random-%s throughput (GB/s), %s pages", kind, pageName),
		Header: append([]string{"Total WS"}, func() []string {
			var h []string
			for _, n := range jobCounts {
				h = append(h, fmt.Sprintf("%d job(s)", n))
			}
			return h
		}()...),
		Notes: []string{
			"Throughput drops once the aggregate working set exceeds the IOTLB reach; job count does not reduce aggregate throughput.",
		},
	}
	wss := fig5WorkingSets(pageSize, s.o.Scale)
	cells := make([][]string, len(wss))
	for i := range cells {
		cells[i] = make([]string, len(jobCounts))
	}
	err := s.grid(len(wss), len(jobCounts), func(r, c int) error {
		gbps, err := s.mbThroughputPoint(pageSize, jobCounts[c], wss[r], writes, window)
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

// mbThroughputPoint runs n MemBench instances over ws aggregate bytes for
// the window and returns platform-level aggregate GB/s.
func (s *Session) mbThroughputPoint(pageSize uint64, n int, ws uint64, writes bool, window sim.Time) (float64, error) {
	cfg := optimusEight("MB")
	cfg.PageSize = pageSize
	h, tenants, err := s.spatialPlatform(cfg, n)
	if err != nil {
		return 0, err
	}
	// MemBench data content is irrelevant; skip backing-store
	// materialization so multi-GB working sets stay cheap to simulate.
	h.Mem.SetDiscardWrites(true)
	perJob := ws / uint64(n)
	minWS := uint64(64 << 10)
	if perJob < minWS {
		perJob = minWS
	}
	writePct := uint64(0)
	if writes {
		writePct = 100
	}
	for i, tn := range tenants {
		buf, err := tn.dev.AllocDMA(perJob)
		if err != nil {
			return 0, err
		}
		tn.dev.RegWrite(accel.MBArgBase, uint64(buf.Addr))
		tn.dev.RegWrite(accel.MBArgSize, perJob)
		tn.dev.RegWrite(accel.MBArgBursts, 0)
		tn.dev.RegWrite(accel.MBArgWritePct, writePct)
		tn.dev.RegWrite(accel.MBArgSeed, uint64(i)+9)
		if err := tn.dev.Start(); err != nil {
			return 0, err
		}
	}
	// Warm up, then measure over the window using shell byte counters.
	h.K.RunFor(window / 4)
	before := h.Shell.Stats()
	start := h.K.Now()
	h.K.RunFor(window)
	after := h.Shell.Stats()
	elapsed := h.K.Now() - start
	var bytes uint64
	if writes {
		bytes = after.BytesWritten - before.BytesWritten
	} else {
		bytes = after.BytesRead - before.BytesRead
	}
	return sim.Throughput(bytes, elapsed), nil
}

func fmtBytes(n uint64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%dG", n>>30)
	case n >= 1<<20:
		return fmt.Sprintf("%dM", n>>20)
	default:
		return fmt.Sprintf("%dK", n>>10)
	}
}
