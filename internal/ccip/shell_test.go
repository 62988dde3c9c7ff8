package ccip

import (
	"bytes"
	"fmt"
	"testing"
	"unsafe"

	"optimus/internal/mem"
	"optimus/internal/pagetable"
	"optimus/internal/sim"
)

// testShell builds a shell with a fully mapped identity (IOVA==HPA) region
// of the given size so tests can focus on timing.
func testShell(t testing.TB, cfg Config, mapped uint64) (*sim.Kernel, *Shell) {
	t.Helper()
	k := sim.NewKernel()
	m := mem.NewPhysMem(16 << 30)
	s := NewShell(k, m, cfg)
	ps := s.IOMMU.Table().PageSize()
	for va := uint64(0); va < mapped; va += ps {
		if err := s.IOMMU.Table().Map(mem.IOVA(va), mem.HPA(va), pagetable.PermRW); err != nil {
			t.Fatal(err)
		}
	}
	return k, s
}

func TestShellReadWriteRoundTrip(t *testing.T) {
	k, s := testShell(t, DefaultConfig(), 64<<20)
	payload := make([]byte, LineSize)
	for i := range payload {
		payload[i] = byte(i * 3)
	}
	var done int
	s.Issue(Request{Kind: WrLine, Addr: 0x1000, Lines: 1, Data: payload, VC: VCUPI,
		Issued: k.Now(), Done: func(r Response) {
			if r.Err != nil {
				t.Errorf("write failed: %v", r.Err)
			}
			done++
		}})
	k.Run()
	var got []byte
	s.Issue(Request{Kind: RdLine, Addr: 0x1000, Lines: 1, VC: VCUPI,
		Issued: k.Now(), Done: func(r Response) {
			if r.Err != nil {
				t.Errorf("read failed: %v", r.Err)
			}
			got = r.Data
			done++
		}})
	k.Run()
	if done != 2 {
		t.Fatalf("completed %d requests, want 2", done)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("read back %x, want %x", got, payload)
	}
}

func TestShellUnloadedLatency(t *testing.T) {
	cfg := DefaultConfig()
	k, s := testShell(t, cfg, 4<<20)
	// Warm the IOTLB so no walk is charged.
	warm := func(vc Channel) {
		s.Issue(Request{Kind: RdLine, Addr: 0, Lines: 1, VC: vc, Issued: k.Now(), Done: func(Response) {}})
		k.Run()
	}
	warm(VCUPI)
	measure := func(vc Channel) sim.Time {
		var lat sim.Time
		s.Issue(Request{Kind: RdLine, Addr: 0, Lines: 1, VC: vc, Issued: k.Now(),
			Done: func(r Response) { lat = r.Latency }})
		k.Run()
		return lat
	}
	upi := measure(VCUPI)
	pcie := measure(VCPCIe0)
	if upi < cfg.UPI.ReadLatency || upi > cfg.UPI.ReadLatency+cfg.UPI.ReadLatency/10 {
		t.Fatalf("UPI latency = %v, want ≈ %v", upi, cfg.UPI.ReadLatency)
	}
	if pcie < cfg.PCIe0.ReadLatency {
		t.Fatalf("PCIe latency = %v, want ≥ %v", pcie, cfg.PCIe0.ReadLatency)
	}
	if upi >= pcie {
		t.Fatalf("UPI (%v) should be lower latency than PCIe (%v)", upi, pcie)
	}
}

func TestShellIOTLBMissAddsLatency(t *testing.T) {
	k, s := testShell(t, DefaultConfig(), 8<<20)
	var first, second sim.Time
	s.Issue(Request{Kind: RdLine, Addr: 0, Lines: 1, VC: VCUPI, Issued: k.Now(),
		Done: func(r Response) { first = r.Latency }})
	k.Run()
	s.Issue(Request{Kind: RdLine, Addr: 64, Lines: 1, VC: VCUPI, Issued: k.Now(),
		Done: func(r Response) { second = r.Latency }})
	k.Run()
	if first <= second {
		t.Fatalf("miss latency (%v) should exceed hit latency (%v)", first, second)
	}
}

func TestShellBandwidthCap(t *testing.T) {
	// Saturate reads on all channels with 8-line bursts; aggregate must land
	// near the configured 14.2 GB/s and never exceed it.
	cfg := DefaultConfig()
	k, s := testShell(t, cfg, 256<<20)
	const burst = 8
	var outstanding int
	var issue func(addr uint64)
	rng := sim.NewRand(3)
	stop := sim.Time(2 * sim.Millisecond)
	issue = func(addr uint64) {
		if k.Now() > stop {
			outstanding--
			return
		}
		s.Issue(Request{Kind: RdLine, Addr: addr, Lines: burst, VC: VCAuto, Issued: k.Now(),
			Done: func(r Response) {
				if r.Err != nil {
					t.Errorf("read error: %v", r.Err)
				}
				issue(rng.Uint64n((256<<20)/LineSize/burst) * LineSize * burst)
			}})
	}
	for i := 0; i < 64; i++ { // deep outstanding window
		outstanding++
		issue(rng.Uint64n((256<<20)/LineSize/burst) * LineSize * burst)
	}
	k.Run()
	gbps := sim.Throughput(s.Stats().BytesRead, stop)
	want := cfg.UPI.ReadGBps + cfg.PCIe0.ReadGBps + cfg.PCIe1.ReadGBps
	if gbps > want*1.02 {
		t.Fatalf("aggregate read bw %.2f GB/s exceeds configured %.2f", gbps, want)
	}
	if gbps < want*0.85 {
		t.Fatalf("aggregate read bw %.2f GB/s too far below %.2f (selector not balancing?)", gbps, want)
	}
}

func TestShellChannelPinning(t *testing.T) {
	k, s := testShell(t, DefaultConfig(), 4<<20)
	for i := 0; i < 50; i++ {
		s.Issue(Request{Kind: RdLine, Addr: uint64(i) * LineSize, Lines: 1, VC: VCUPI,
			Issued: k.Now(), Done: func(r Response) {
				if r.VC != VCUPI {
					t.Errorf("pinned UPI request used %v", r.VC)
				}
			}})
	}
	k.Run()
	st := s.Stats()
	if st.PerChannelRdBytes["PCIe0"] != 0 || st.PerChannelRdBytes["PCIe1"] != 0 {
		t.Fatal("pinned traffic leaked to PCIe")
	}
}

func TestShellAutoUsesAllChannels(t *testing.T) {
	k, s := testShell(t, DefaultConfig(), 64<<20)
	var issue func(i int)
	n := 0
	issue = func(i int) {
		if n > 3000 {
			return
		}
		n++
		s.Issue(Request{Kind: RdLine, Addr: uint64(n%1024) * LineSize, Lines: 4, VC: VCAuto,
			Issued: k.Now(), Done: func(r Response) { issue(i) }})
	}
	for i := 0; i < 32; i++ {
		issue(i)
	}
	k.Run()
	st := s.Stats()
	for _, ch := range []string{"UPI", "PCIe0", "PCIe1"} {
		if st.PerChannelRdBytes[ch] == 0 {
			t.Fatalf("auto selector never used %s: %+v", ch, st.PerChannelRdBytes)
		}
	}
}

func TestShellFaultOnUnmapped(t *testing.T) {
	k, s := testShell(t, DefaultConfig(), 4<<20)
	var gotErr error
	s.Issue(Request{Kind: RdLine, Addr: 1 << 40, Lines: 1, VC: VCUPI, Issued: k.Now(),
		Done: func(r Response) { gotErr = r.Err }})
	k.Run()
	if gotErr == nil {
		t.Fatal("read of unmapped IOVA should fault")
	}
	if s.Stats().Faults != 1 {
		t.Fatal("fault not counted")
	}
}

func TestShellWritePermissionEnforced(t *testing.T) {
	k := sim.NewKernel()
	m := mem.NewPhysMem(1 << 30)
	s := NewShell(k, m, DefaultConfig())
	s.IOMMU.Table().Map(0, 0, pagetable.PermRead) // read-only page
	var rdErr, wrErr error
	s.Issue(Request{Kind: RdLine, Addr: 0, Lines: 1, VC: VCUPI, Issued: k.Now(),
		Done: func(r Response) { rdErr = r.Err }})
	s.Issue(Request{Kind: WrLine, Addr: 0, Lines: 1, Data: make([]byte, LineSize), VC: VCUPI,
		Issued: k.Now(), Done: func(r Response) { wrErr = r.Err }})
	k.Run()
	if rdErr != nil {
		t.Fatalf("read of read-only page failed: %v", rdErr)
	}
	if wrErr == nil {
		t.Fatal("write to read-only page should fault")
	}
}

func TestRequestValidate(t *testing.T) {
	ok := Request{Kind: RdLine, Addr: 0, Lines: 1, Done: func(Response) {}}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Request{
		{Kind: RdLine, Addr: 0, Lines: 0, Done: func(Response) {}},
		{Kind: RdLine, Addr: 3, Lines: 1, Done: func(Response) {}},
		{Kind: WrLine, Addr: 0, Lines: 1, Data: []byte{1}, Done: func(Response) {}},
		{Kind: RdLine, Addr: 0, Lines: 1},
	}
	for i, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted invalid request", i)
		}
	}
}

func TestKindChannelStrings(t *testing.T) {
	if RdLine.String() != "RdLine" || WrLine.String() != "WrLine" {
		t.Fatal("Kind strings")
	}
	if VCUPI.String() != "UPI" || VCAuto.String() != "auto" {
		t.Fatal("Channel strings")
	}
	if Kind(9).String() == "" || Channel(9).String() == "" {
		t.Fatal("unknown values should still render")
	}
}

func TestShell4KPagesMoreWalkTraffic(t *testing.T) {
	// Random access over 16 MB: with 4K pages the working set exceeds the
	// 2 MB IOTLB reach and throughput collapses versus 2M pages.
	run := func(pageSize uint64) float64 {
		cfg := DefaultConfig()
		cfg.PageSize = pageSize
		cfg.IOMMU.SpeculativeRegion = false
		k, s := testShell(t, cfg, 16<<20)
		rng := sim.NewRand(7)
		stop := sim.Time(sim.Millisecond)
		var issue func()
		issue = func() {
			if k.Now() > stop {
				return
			}
			addr := rng.Uint64n((16<<20)/LineSize) * LineSize
			s.Issue(Request{Kind: RdLine, Addr: addr, Lines: 1, VC: VCAuto, Issued: k.Now(),
				Done: func(r Response) { issue() }})
		}
		for i := 0; i < 64; i++ {
			issue()
		}
		k.Run()
		return sim.Throughput(s.Stats().BytesRead, stop)
	}
	bw2m := run(mem.PageSize2M)
	bw4k := run(mem.PageSize4K)
	if bw4k*2 > bw2m {
		t.Fatalf("4K pages (%.2f GB/s) should be far slower than 2M (%.2f GB/s) at 16M WS", bw4k, bw2m)
	}
}

func TestAutoSelectorBandwidthProportional(t *testing.T) {
	// Under sustained load the automatic selector should spread traffic
	// roughly in proportion to channel bandwidth (UPI 6.2 : PCIe 4.0 each).
	cfg := DefaultConfig()
	k, s := testShell(t, cfg, 128<<20)
	stop := sim.Time(2 * sim.Millisecond)
	var issue func(addr uint64)
	rng := sim.NewRand(11)
	issue = func(addr uint64) {
		if k.Now() > stop {
			return
		}
		s.Issue(Request{Kind: RdLine, Addr: addr, Lines: 4, VC: VCAuto, Issued: k.Now(),
			Done: func(r Response) { issue(rng.Uint64n((128<<20)/256) * 256) }})
	}
	for i := 0; i < 128; i++ {
		issue(rng.Uint64n((128<<20)/256) * 256)
	}
	k.Run()
	st := s.Stats()
	upi := float64(st.PerChannelRdBytes["UPI"])
	pcie := float64(st.PerChannelRdBytes["PCIe0"] + st.PerChannelRdBytes["PCIe1"])
	ratio := upi / pcie
	want := cfg.UPI.ReadGBps / (cfg.PCIe0.ReadGBps + cfg.PCIe1.ReadGBps)
	if ratio < want*0.85 || ratio > want*1.15 {
		t.Fatalf("UPI/PCIe split = %.3f, want ≈%.3f", ratio, want)
	}
}

func TestWriteLatencyLowerThanRead(t *testing.T) {
	k, s := testShell(t, DefaultConfig(), 4<<20)
	// Warm the IOTLB.
	s.Issue(Request{Kind: RdLine, Addr: 0, Lines: 1, VC: VCUPI, Issued: k.Now(), Done: func(Response) {}})
	k.Run()
	var rd, wr sim.Time
	s.Issue(Request{Kind: RdLine, Addr: 0, Lines: 1, VC: VCUPI, Issued: k.Now(),
		Done: func(r Response) { rd = r.Latency }})
	k.Run()
	s.Issue(Request{Kind: WrLine, Addr: 0, Lines: 1, Data: make([]byte, 64), VC: VCUPI,
		Issued: k.Now(), Done: func(r Response) { wr = r.Latency }})
	k.Run()
	if wr >= rd {
		t.Fatalf("posted write (%v) should complete faster than read (%v)", wr, rd)
	}
}

func TestDiscardWritesMode(t *testing.T) {
	m := mem.NewPhysMem(1 << 20)
	m.SetDiscardWrites(true)
	m.Write(0x1000, []byte{1, 2, 3})
	if m.ResidentBytes() != 0 {
		t.Fatal("discard mode materialized a frame")
	}
	// Already-resident frames still accept writes.
	m.SetDiscardWrites(false)
	m.Write(0x1000, []byte{9})
	m.SetDiscardWrites(true)
	m.Write(0x1001, []byte{8})
	b := make([]byte, 2)
	m.Read(0x1000, b)
	if b[0] != 9 || b[1] != 8 {
		t.Fatalf("resident frame write lost: %v", b)
	}
}

// TestTimingOnlyReadBeyondMemoryPanics: a timing-only read still makes
// PhysMem.Read's bounds check, so a read through an IO mapping past the end
// of physical memory panics with the same message either way.
func TestTimingOnlyReadBeyondMemoryPanics(t *testing.T) {
	panicOf := func(discard bool) (msg string) {
		k, s := testShell(t, DefaultConfig(), 0)
		const iova = 1 << 30
		if err := s.IOMMU.Table().Map(iova, mem.HPA(s.Mem.Size()), pagetable.PermRW); err != nil {
			t.Fatal(err)
		}
		defer func() { msg = fmt.Sprint(recover()) }()
		s.Issue(Request{Kind: RdLine, Addr: iova, Lines: 2, Discard: discard, VC: VCUPI,
			Issued: k.Now(), Done: func(Response) {}})
		k.Run()
		return "no panic"
	}
	data, timing := panicOf(false), panicOf(true)
	if data == "no panic" || timing != data {
		t.Fatalf("out-of-range read: data-carrying panics %q, timing-only %q", data, timing)
	}
}

// TestDiscardValidation: only a read without a destination may discard.
func TestDiscardValidation(t *testing.T) {
	done := func(Response) {}
	for _, r := range []Request{
		{Kind: WrLine, Lines: 1, Data: make([]byte, LineSize), Discard: true, Done: done},
		{Kind: RdLine, Lines: 1, Dst: make([]byte, LineSize), Discard: true, Done: done},
	} {
		if r.Validate() == nil {
			t.Errorf("%v with Discard and Dst=%t validated", r.Kind, r.Dst != nil)
		}
	}
	if err := (Request{Kind: RdLine, Lines: 1, Discard: true, Done: done}).Validate(); err != nil {
		t.Errorf("timing-only read rejected: %v", err)
	}
}

// TestRequestSize: the Discard flag lives in VC's padding, so the request
// that every layer copies by value stays two cache lines.
func TestRequestSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the 128-byte layout is a 64-bit one")
	}
	if n := unsafe.Sizeof(Request{}); n != 128 {
		t.Fatalf("ccip.Request is %d bytes, want 128", n)
	}
}
