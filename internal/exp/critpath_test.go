package exp

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"optimus/internal/accel"
	"optimus/internal/ccip"
	"optimus/internal/hv"
	"optimus/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden files")

// critPathReport runs one fully-traced platform and renders its
// critical-path analysis under a label.
func critPathReport(t *testing.T, w *bytes.Buffer, label string, h *hv.Hypervisor) *obs.CritReport {
	t.Helper()
	rep := obs.AnalyzeCritPath(h.Trace().Records())
	w.WriteString("== " + label + " ==\n")
	if err := rep.WriteText(w); err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestFig4CritPathGolden pins the critical-path analyzer's report for the
// fig4 workloads: the fig4a OPTIMUS point (LinkedList on UPI — a
// read-dominated pointer chase) and a fig4b-style AES point (balanced
// read/write streaming). The simulation is deterministic, so the full
// report — per-class stage decomposition, dominant stages, tail
// contributors, and control-plane trap counts — is golden-file tested.
func TestFig4CritPathGolden(t *testing.T) {
	var out bytes.Buffer

	// fig4a OPTIMUS point: LL pointer chase behind the 8-slot tree.
	llCfg := optimusEight("LL")
	llCfg.Trace = obs.NewTracer(1 << 17)
	hLL, err := hv.New(llCfg)
	if err != nil {
		t.Fatal(err)
	}
	tn, err := newTenant(hLL, 0)
	if err != nil {
		t.Fatal(err)
	}
	const nodes = 3000
	buf, err := tn.dev.AllocDMA(nodes * 256)
	if err != nil {
		t.Fatal(err)
	}
	head, _, err := tn.dev.BuildList(buf, nodes, 1)
	if err != nil {
		t.Fatal(err)
	}
	tn.dev.RegWrite(accel.LLArgHead, head)
	hLL.Phy(0).Accel.SetChannel(ccip.VCUPI)
	if err := tn.dev.Start(); err != nil {
		t.Fatal(err)
	}
	if err := tn.dev.Wait(); err != nil {
		t.Fatal(err)
	}
	repLL := critPathReport(t, &out, "fig4a LL/UPI optimus", hLL)

	// fig4b-style point: AES streams reads and writes, so both request
	// classes appear with their own stage decomposition.
	aesCfg := optimusEight("AES")
	aesCfg.Trace = obs.NewTracer(1 << 17)
	hAES, err := hv.New(aesCfg)
	if err != nil {
		t.Fatal(err)
	}
	tnA, err := newTenant(hAES, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := NewSession(Options{}).provisionJob(tnA, appJob("AES", 256<<10, 1), NoStateBuf); err != nil {
		t.Fatal(err)
	}
	if err := tnA.dev.Start(); err != nil {
		t.Fatal(err)
	}
	if err := tnA.dev.Wait(); err != nil {
		t.Fatal(err)
	}
	repAES := critPathReport(t, &out, "fig4b AES optimus", hAES)

	// Structural acceptance before byte-level pinning: every populated
	// request class names a dominant stage, and the AES point covers both
	// classes.
	for _, rep := range []*obs.CritReport{repLL, repAES} {
		if len(rep.Reqs) == 0 {
			t.Fatal("no completed request chains")
		}
		for i := range rep.Classes {
			c := &rep.Classes[i]
			if c.Count == 0 {
				continue
			}
			if d := c.Dominant(); d < 0 || d >= obs.NumStages {
				t.Fatalf("class %s has no dominant stage", c.Name)
			}
		}
	}
	classes := map[string]bool{}
	for i := range repAES.Classes {
		if repAES.Classes[i].Count > 0 {
			classes[repAES.Classes[i].Name] = true
		}
	}
	if !classes["rd"] || !classes["wr"] {
		t.Fatalf("AES report missing a request class: %v", classes)
	}
	if n := strings.Count(out.String(), "dominant:"); n < 3 {
		t.Fatalf("report names %d dominant stages, want >= 3:\n%s", n, out.String())
	}

	golden := filepath.Join("testdata", "fig4_critpath_golden.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("critical-path report differs from golden file %s\ngot:\n%s\nwant:\n%s",
			golden, out.Bytes(), want)
	}
}
