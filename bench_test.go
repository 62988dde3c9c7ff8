// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (§6). Each benchmark regenerates its artifact at quick
// scale and prints the same rows/series the paper reports; ReportMetric
// carries the headline number where one exists. Run:
//
//	go test -bench=. -benchmem
//
// For paper-sized runs use: go run ./cmd/optimus-bench -exp all -full
package optimus_test

import (
	"os"
	"strconv"
	"testing"

	"optimus/internal/ccip"
	"optimus/internal/exp"
	"optimus/internal/mem"
)

// benchTable runs an experiment once per iteration and renders its tables
// on the first iteration.
func benchTable(b *testing.B, run func() ([]*exp.Table, error)) []*exp.Table {
	b.Helper()
	var tables []*exp.Table
	for i := 0; i < b.N; i++ {
		ts, err := run()
		if err != nil {
			b.Fatal(err)
		}
		tables = ts
	}
	for _, t := range tables {
		t.Render(os.Stdout)
	}
	return tables
}

// cell parses a numeric table cell like "90.1" or "3.75x". A malformed cell
// fails the benchmark — a silently-zero metric would mask a broken table.
func cell(tb testing.TB, t *exp.Table, row, col int) float64 {
	tb.Helper()
	s := t.Rows[row][col]
	if n := len(s); n > 0 && (s[n-1] == 'x' || s[n-1] == '%') {
		s = s[:n-1]
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		tb.Fatalf("table cell [%d][%d] = %q is not numeric: %v", row, col, t.Rows[row][col], err)
	}
	return v
}

// BenchmarkFig1SSSP regenerates Figure 1: SSSP under shared-memory vs
// host-centric (+Config/+Copy), native and virtualized.
func BenchmarkFig1SSSP(b *testing.B) {
	ts := benchTable(b, func() ([]*exp.Table, error) {
		t, err := exp.NewSession(exp.Options{}).Fig1()
		return []*exp.Table{t}, err
	})
	// Headline: host-centric+Config / shared-memory at the largest size.
	t := ts[0]
	last := len(t.Rows) - 1
	b.ReportMetric(cell(b, t, last, 2)/cell(b, t, last, 1), "hcConfig/sharedMem")
}

// BenchmarkTable2Resources regenerates Table 2: per-component FPGA
// utilization under pass-through vs OPTIMUS.
func BenchmarkTable2Resources(b *testing.B) {
	ts := benchTable(b, func() ([]*exp.Table, error) {
		t, err := exp.Table2()
		return []*exp.Table{t}, err
	})
	b.ReportMetric(cell(b, ts[0], 1, 1), "monitorALMpct")
}

// BenchmarkFig4Latency regenerates Figure 4a: LinkedList latency overhead
// vs pass-through on UPI and PCIe.
func BenchmarkFig4Latency(b *testing.B) {
	ts := benchTable(b, func() ([]*exp.Table, error) {
		t, err := exp.NewSession(exp.Options{}).Fig4a()
		return []*exp.Table{t}, err
	})
	b.ReportMetric(cell(b, ts[0], 0, 3), "UPIpct")
	b.ReportMetric(cell(b, ts[0], 1, 3), "PCIepct")
}

// BenchmarkFig4Throughput regenerates Figure 4b: per-benchmark throughput
// under OPTIMUS normalized to pass-through.
func BenchmarkFig4Throughput(b *testing.B) {
	ts := benchTable(b, func() ([]*exp.Table, error) {
		t, err := exp.NewSession(exp.Options{}).Fig4b()
		return []*exp.Table{t}, err
	})
	b.ReportMetric(cell(b, ts[0], 0, 3), "membenchPct")
}

// BenchmarkFig5LLLatency regenerates Figure 5: LinkedList latency vs
// working set and job count (2M pages on UPI; the bench keeps one variant,
// optimus-bench runs all four).
func BenchmarkFig5LLLatency(b *testing.B) {
	benchTable(b, func() ([]*exp.Table, error) {
		t, err := exp.NewSession(exp.Options{}).Fig5(mem.PageSize2M, ccip.VCUPI)
		return []*exp.Table{t}, err
	})
}

// BenchmarkFig5LLLatency4K regenerates Figure 5b (4K pages).
func BenchmarkFig5LLLatency4K(b *testing.B) {
	benchTable(b, func() ([]*exp.Table, error) {
		t, err := exp.NewSession(exp.Options{}).Fig5(mem.PageSize4K, ccip.VCUPI)
		return []*exp.Table{t}, err
	})
}

// BenchmarkFig6MBThroughput regenerates Figure 6: MemBench aggregate
// random-read throughput vs working set and job count (2M pages).
func BenchmarkFig6MBThroughput(b *testing.B) {
	benchTable(b, func() ([]*exp.Table, error) {
		t, err := exp.NewSession(exp.Options{}).Fig6(mem.PageSize2M, false)
		return []*exp.Table{t}, err
	})
}

// BenchmarkFig6MBThroughput4K regenerates Figure 6b (4K pages, reads).
func BenchmarkFig6MBThroughput4K(b *testing.B) {
	benchTable(b, func() ([]*exp.Table, error) {
		t, err := exp.NewSession(exp.Options{}).Fig6(mem.PageSize4K, false)
		return []*exp.Table{t}, err
	})
}

// BenchmarkFig6MBWrites regenerates Figure 6's random-write series.
func BenchmarkFig6MBWrites(b *testing.B) {
	benchTable(b, func() ([]*exp.Table, error) {
		t, err := exp.NewSession(exp.Options{}).Fig6(mem.PageSize2M, true)
		return []*exp.Table{t}, err
	})
}

// BenchmarkFig7Scalability regenerates Figure 7: aggregate throughput of
// the real-world applications vs concurrent job count.
func BenchmarkFig7Scalability(b *testing.B) {
	ts := benchTable(b, func() ([]*exp.Table, error) {
		t, err := exp.NewSession(exp.Options{}).Fig7()
		return []*exp.Table{t}, err
	})
	// Headline: GAU's 8-job scaling (saturation) vs MD5's (linear).
	t := ts[0]
	for i, row := range t.Rows {
		switch row[0] {
		case "GAU":
			b.ReportMetric(cell(b, t, i, 4), "GAUx8")
		case "MD5":
			b.ReportMetric(cell(b, t, i, 4), "MD5x8")
		}
	}
}

// BenchmarkFig8Temporal regenerates Figure 8: temporal multiplexing
// throughput vs oversubscription factor.
func BenchmarkFig8Temporal(b *testing.B) {
	ts := benchTable(b, func() ([]*exp.Table, error) {
		t, err := exp.NewSession(exp.Options{}).Fig8()
		return []*exp.Table{t}, err
	})
	b.ReportMetric(cell(b, ts[0], 0, 5), "LL16jobs")
}

// BenchmarkTable3Fairness regenerates Table 3: homogeneous spatial
// multiplexing fairness.
func BenchmarkTable3Fairness(b *testing.B) {
	benchTable(b, func() ([]*exp.Table, error) {
		t, err := exp.NewSession(exp.Options{}).Table3()
		return []*exp.Table{t}, err
	})
}

// BenchmarkTable4Colocation regenerates Table 4: MemBench co-located with
// each accelerator.
func BenchmarkTable4Colocation(b *testing.B) {
	benchTable(b, func() ([]*exp.Table, error) {
		t, err := exp.NewSession(exp.Options{}).Table4()
		return []*exp.Table{t}, err
	})
}

// BenchmarkSchedFairness regenerates §6.8: scheduler policy enforcement.
func BenchmarkSchedFairness(b *testing.B) {
	benchTable(b, func() ([]*exp.Table, error) {
		t, err := exp.NewSession(exp.Options{}).SchedFairness()
		return []*exp.Table{t}, err
	})
}

// BenchmarkTimingAblation regenerates the multiplexer timing-feasibility
// extension (flat vs tree, §7.2).
func BenchmarkTimingAblation(b *testing.B) {
	benchTable(b, func() ([]*exp.Table, error) {
		t, err := exp.TimingAblation()
		return []*exp.Table{t}, err
	})
}
