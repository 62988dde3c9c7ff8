package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"optimus/internal/sim"
)

func TestRegistrySnapshotSorted(t *testing.T) {
	r := NewRegistry()
	r.RegisterCounter("z.last", func() uint64 { return 3 })
	r.RegisterCounter("a.first", func() uint64 { return 1 })
	r.RegisterGauge("m.middle", func() float64 { return 0.5 })

	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot len = %d", len(snap))
	}
	wantNames := []string{"a.first", "m.middle", "z.last"}
	for i, s := range snap {
		if s.Name != wantNames[i] {
			t.Fatalf("snapshot order = %v", snap)
		}
	}
	if snap[0].Value != 1 || snap[1].Value != 0.5 || snap[2].Value != 3 {
		t.Fatalf("snapshot values = %v", snap)
	}
	if snap[0].Kind != "counter" || snap[1].Kind != "gauge" {
		t.Fatalf("snapshot kinds = %v", snap)
	}
}

func TestRegistryOwnedCounter(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("dma.requests")
	c.Add(5)
	if again := r.Counter("dma.requests"); again != c {
		t.Fatal("Counter did not return the same handle")
	}
	snap := r.Snapshot()
	if len(snap) != 1 || snap[0].Value != 5 {
		t.Fatalf("snapshot = %v", snap)
	}
	c.Add(2)
	if got := r.Snapshot()[0].Value; got != 7 {
		t.Fatalf("counter handle not live: %v", got)
	}
}

func TestRegistryHistogram(t *testing.T) {
	r := NewRegistry()
	h := sim.NewLatencyStat(128, 1)
	for i := 1; i <= 100; i++ {
		h.Observe(sim.Time(i) * sim.Nanosecond)
	}
	r.RegisterHistogram("dma.latency", h)

	snap := r.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot = %v", snap)
	}
	s := snap[0]
	if s.Kind != "histogram" || s.Hist == nil {
		t.Fatalf("sample = %+v", s)
	}
	if s.Hist.Count != 100 || s.Value != 100 {
		t.Fatalf("count = %v / %v", s.Hist.Count, s.Value)
	}
	if s.Hist.MinNS != 1 || s.Hist.MaxNS != 100 {
		t.Fatalf("min/max = %v/%v", s.Hist.MinNS, s.Hist.MaxNS)
	}
	// 100 samples fit a 128-slot reservoir, so percentiles are exact.
	if s.Hist.P50NS != 50 || s.Hist.P95NS != 95 || s.Hist.P99NS != 99 {
		t.Fatalf("percentiles = %v/%v/%v", s.Hist.P50NS, s.Hist.P95NS, s.Hist.P99NS)
	}
}

func TestRegistryWriteJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits").Add(4)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var samples []Sample
	if err := json.Unmarshal(buf.Bytes(), &samples); err != nil {
		t.Fatalf("WriteJSON produced invalid JSON: %v", err)
	}
	if len(samples) != 1 || samples[0].Name != "hits" || samples[0].Value != 4 {
		t.Fatalf("round-trip = %+v", samples)
	}
}

func TestRegistryWriteText(t *testing.T) {
	r := NewRegistry()
	r.Counter("shell.reads").Add(12)
	r.RegisterGauge("iommu.hit_rate", func() float64 { return 0.75 })
	h := sim.NewLatencyStat(16, 1)
	h.Observe(5 * sim.Nanosecond)
	r.RegisterHistogram("dma.latency", h)

	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"shell.reads", "12", "iommu.hit_rate", "0.7500", "dma.latency", "n=1"} {
		if !strings.Contains(out, want) {
			t.Errorf("text dump missing %q:\n%s", want, out)
		}
	}
}

func TestCollectorWriteMetrics(t *testing.T) {
	c := NewCollector()
	r := NewRegistry()
	r.Counter("x").Add(1)
	c.Add("plat0", nil, r)
	c.Add("traceless", NewTracer(4), nil) // skipped

	var buf bytes.Buffer
	if err := c.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "== plat0 ==") || !strings.Contains(out, "x") {
		t.Fatalf("dump:\n%s", out)
	}
	if strings.Contains(out, "traceless") {
		t.Fatalf("metrics-less platform should be skipped:\n%s", out)
	}
}
