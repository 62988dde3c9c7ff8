package exp

import (
	"bytes"
	"strings"
	"testing"

	"optimus/internal/hv"
	"optimus/internal/sim"
)

func TestTableRender(t *testing.T) {
	tab := &Table{
		ID:     "t",
		Title:  "Test",
		Header: []string{"A", "Blong"},
		Notes:  []string{"a note"},
	}
	tab.AddRow("xxxx", "1")
	tab.AddRow("y", "2")
	var buf bytes.Buffer
	tab.Render(&buf)
	out := buf.String()
	for _, want := range []string{"== t: Test ==", "Blong", "xxxx", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryIDsAndUnknown(t *testing.T) {
	ids := IDs()
	want := []string{"chaos", "fig1", "fig4", "fig5", "fig6", "fig7", "fig8", "guard", "iommu",
		"muxarity", "sched", "serve", "table1", "table2", "table3", "table4", "timing"}
	if len(ids) != len(want) {
		t.Fatalf("IDs = %v", ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("IDs = %v, want %v", ids, want)
		}
	}
	var buf bytes.Buffer
	if _, err := Run("nope", Options{}, &buf); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunRendersTable1(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Run("table1", Options{}, &buf); err != nil {
		t.Fatal(err)
	}
	for _, app := range []string{"AES", "SSSP", "LL"} {
		if !strings.Contains(buf.String(), app) {
			t.Fatalf("table1 missing %s", app)
		}
	}
}

func TestTable2Values(t *testing.T) {
	tab, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	// Shell row and monitor row present with the paper's numbers.
	if tab.Rows[0][0] != "Shell" || tab.Rows[0][1] != "23.4" {
		t.Fatalf("shell row = %v", tab.Rows[0])
	}
	if tab.Rows[1][0] != "Hardware Monitor" || tab.Rows[1][1] != "6.2" {
		t.Fatalf("monitor row = %v", tab.Rows[1])
	}
	if len(tab.Rows) != 2+14 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
}

func TestTimingAblationShape(t *testing.T) {
	tab, err := TimingAblation()
	if err != nil {
		t.Fatal(err)
	}
	// Flat 8 fails, binary 8 passes, binary 9 fails.
	byKey := map[string]string{}
	for _, r := range tab.Rows {
		byKey[r[0]+"/"+r[1]] = r[3]
	}
	if byKey["8/flat"] != "false" {
		t.Fatal("flat mux of 8 should fail timing")
	}
	if byKey["8/binary tree"] != "true" {
		t.Fatal("binary tree of 8 should pass timing")
	}
	if byKey["9/binary tree"] != "false" {
		t.Fatal("9 accels should fail timing")
	}
}

func TestProvisionJobAllApps(t *testing.T) {
	s := NewSession(Options{})
	for _, app := range []string{"AES", "MD5", "SHA", "FIR", "GRN", "RSD", "SW", "GAU", "GRS", "SBL", "SSSP", "BTC", "MB", "LL"} {
		h, err := hv.New(hv.Config{Accels: []string{app}})
		if err != nil {
			t.Fatal(err)
		}
		tn, err := newTenant(h, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.provisionJob(tn, app, 1<<20, 1); err != nil {
			t.Fatalf("%s: %v", app, err)
		}
	}
	// Unknown app rejected.
	h, _ := hv.New(hv.Config{Accels: []string{"LL"}})
	tn, _ := newTenant(h, 0)
	if _, err := s.provisionJob(tn, "NOPE", 1<<20, 1); err == nil {
		t.Fatal("unknown app accepted")
	}
}

func TestSingleJobRunsToCompletion(t *testing.T) {
	s := NewSession(Options{})
	// Each provisioned job must actually complete under runJobsToCompletion.
	for _, app := range []string{"AES", "RSD", "LL"} {
		h, err := hv.New(hv.Config{Accels: []string{app}})
		if err != nil {
			t.Fatal(err)
		}
		tn, err := newTenant(h, 0)
		if err != nil {
			t.Fatal(err)
		}
		j, err := s.provisionJob(tn, app, 1<<20, 2)
		if err != nil {
			t.Fatal(err)
		}
		elapsed, err := runJobsToCompletion(h, []*job{j})
		if err != nil {
			t.Fatalf("%s: %v", app, err)
		}
		if elapsed[0] <= 0 {
			t.Fatalf("%s: elapsed %v", app, elapsed[0])
		}
	}
}

func TestMeasureAggregatePositive(t *testing.T) {
	s := NewSession(Options{})
	h, err := hv.New(hv.Config{Accels: []string{"GRN"}})
	if err != nil {
		t.Fatal(err)
	}
	tn, err := newTenant(h, 0)
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.provisionJob(tn, "GRN", 1<<20, 1)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := measureAggregate(h, []*job{j}, sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	// GRN writes ≈1.6 GB/s.
	if agg < 1e9 || agg > 3e9 {
		t.Fatalf("GRN aggregate = %g", agg)
	}
}

func TestFmtBytes(t *testing.T) {
	cases := map[uint64]string{
		32 << 10: "32K",
		16 << 20: "16M",
		2 << 30:  "2G",
	}
	for in, want := range cases {
		if got := fmtBytes(in); got != want {
			t.Fatalf("fmtBytes(%d) = %q, want %q", in, got, want)
		}
	}
}
