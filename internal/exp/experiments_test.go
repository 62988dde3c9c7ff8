package exp

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"optimus/internal/ccip"
	"optimus/internal/mem"
	"optimus/internal/sim"
)

// The fast experiments always run; they assert the headline shapes the
// reproduction targets (see EXPERIMENTS.md).

func cellFloat(t *testing.T, tab *Table, row, col int) float64 {
	t.Helper()
	s := tab.Rows[row][col]
	s = strings.TrimSuffix(strings.TrimSuffix(s, "x"), "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q: %v", row, col, tab.Rows[row][col], err)
	}
	return v
}

func TestFig4aShape(t *testing.T) {
	tab, err := NewSession(Options{}).Fig4a()
	if err != nil {
		t.Fatal(err)
	}
	upi := cellFloat(t, tab, 0, 3)
	pcie := cellFloat(t, tab, 1, 3)
	// Paper: 124.2% and 111.1%. Accept ±6 points.
	if upi < 118 || upi > 131 {
		t.Fatalf("UPI overhead = %v%%, paper 124.2%%", upi)
	}
	if pcie < 105 || pcie > 118 {
		t.Fatalf("PCIe overhead = %v%%, paper 111.1%%", pcie)
	}
	if upi <= pcie {
		t.Fatal("relative overhead should be larger on the lower-latency channel")
	}
}

func TestFig4bShape(t *testing.T) {
	tab, err := NewSession(Options{}).Fig4b()
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range tab.Rows {
		pct := cellFloat(t, tab, i, 3)
		if row[0] == "MB" {
			// Paper: 90.1% — the injection limit.
			if pct < 87 || pct > 93 {
				t.Fatalf("MemBench = %v%%, paper 90.1%%", pct)
			}
			continue
		}
		if pct < 90 {
			t.Fatalf("%s = %v%%, real apps should be ≥90%%", row[0], pct)
		}
	}
}

func TestFig1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tab, err := NewSession(Options{}).Fig1()
	if err != nil {
		t.Fatal(err)
	}
	// From the second size up: shared-memory beats both host-centric modes
	// natively, and virtualized shared-memory stays within 2% of native.
	for i := 1; i < len(tab.Rows); i++ {
		shared := cellFloat(t, tab, i, 1)
		cfg := cellFloat(t, tab, i, 2)
		cp := cellFloat(t, tab, i, 3)
		sharedV := cellFloat(t, tab, i, 4)
		cfgV := cellFloat(t, tab, i, 5)
		if shared >= cfg || shared >= cp {
			t.Fatalf("row %d: shared %.2f not fastest (cfg %.2f copy %.2f)", i, shared, cfg, cp)
		}
		if sharedV > shared*1.02 {
			t.Fatalf("row %d: virtualized shared %.2f should track native %.2f", i, sharedV, shared)
		}
		if cfgV <= cfg {
			t.Fatalf("row %d: virtualization should slow host-centric config", i)
		}
	}
}

func TestGuardAblationShape(t *testing.T) {
	tab, err := NewSession(Options{}).GuardAblation()
	if err != nil {
		t.Fatal(err)
	}
	for i := range tab.Rows {
		with := cellFloat(t, tab, i, 1)
		without := cellFloat(t, tab, i, 2)
		if with < without*1.3 {
			t.Fatalf("row %d: guard should win big: %v vs %v", i, with, without)
		}
	}
}

func TestIOMMUAblationShape(t *testing.T) {
	tab, err := NewSession(Options{}).IOMMUAblation()
	if err != nil {
		t.Fatal(err)
	}
	// Beyond the IOTLB reach, the integrated walker must be faster.
	last := len(tab.Rows) - 1
	soft := cellFloat(t, tab, last, 1)
	integrated := cellFloat(t, tab, last, 2)
	if integrated < soft*1.2 {
		t.Fatalf("integrated IOMMU %v should beat soft %v beyond the reach", integrated, soft)
	}
}

func TestMuxArityShape(t *testing.T) {
	tab, err := NewSession(Options{}).MuxArityAblation()
	if err != nil {
		t.Fatal(err)
	}
	bin := cellFloat(t, tab, 0, 2)
	quad := cellFloat(t, tab, 1, 2)
	flat := cellFloat(t, tab, 2, 2)
	if !(flat < quad && quad < bin) {
		t.Fatalf("latency should grow with levels: flat %v quad %v binary %v", flat, quad, bin)
	}
	// ~33ns per level.
	perLevel := (bin - flat) / 2
	if perLevel < 25 || perLevel > 45 {
		t.Fatalf("per-level latency = %vns, want ≈33", perLevel)
	}
}

func TestFig5CliffAt2MPages(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// Single job: latency at 4G total must exceed the in-reach latency by
	// a wide margin (IOTLB misses add soft-IOMMU walks).
	s := NewSession(Options{})
	small, err := s.llLatencyPoint(mem.PageSize2M, ccip.VCUPI, 1, 64<<20, 2500)
	if err != nil {
		t.Fatal(err)
	}
	big, err := s.llLatencyPoint(mem.PageSize2M, ccip.VCUPI, 1, 4<<30, 2500)
	if err != nil {
		t.Fatal(err)
	}
	if big < small+small/4 {
		t.Fatalf("beyond-reach latency %v should clearly exceed in-reach %v", big, small)
	}
}

func TestFig6CliffAt2MPages(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	s := NewSession(Options{})
	inReach, err := s.mbThroughputPoint(mem.PageSize2M, 4, 256<<20, false, sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	beyond, err := s.mbThroughputPoint(mem.PageSize2M, 4, 4<<30, false, sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if beyond > inReach*0.8 {
		t.Fatalf("beyond-reach throughput %v should drop well below in-reach %v", beyond, inReach)
	}
}

func TestTable4MBHalfShare(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	s := NewSession(Options{})
	standalone, err := s.table4MBThroughput("", 0, sim.Millisecond, 2<<20)
	if err != nil {
		t.Fatal(err)
	}
	co, err := s.table4MBThroughput("MB", 1, sim.Millisecond, 2<<20)
	if err != nil {
		t.Fatal(err)
	}
	ratio := co / standalone
	// Paper: 0.50x — round-robin guarantees at least half.
	if ratio < 0.48 || ratio > 0.62 {
		t.Fatalf("MB+MB share = %.2f, want ≈0.5", ratio)
	}
}

func TestRunRendersAblations(t *testing.T) {
	var buf bytes.Buffer
	for _, id := range []string{"timing", "muxarity"} {
		if _, err := Run(id, Options{}, &buf); err != nil {
			t.Fatal(err)
		}
	}
	if !strings.Contains(buf.String(), "binary tree") {
		t.Fatal("render missing content")
	}
}
