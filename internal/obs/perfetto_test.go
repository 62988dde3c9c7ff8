package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"optimus/internal/sim"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenTracer builds a deterministic trace exercising every export shape:
// paired slices, a preemption handshake, a DMA span, instants, and one slice
// left open at the end of the window.
func goldenTracer() *Tracer {
	tr := NewTracer(64)
	us := func(n int64) sim.Time { return sim.Time(n) * sim.Microsecond }

	tr.Emit(us(1), KindSliceBegin, Sched(0), 0, 3) // va0 of vm3 scheduled
	tr.Emit(us(1), KindMMIOTrap, VM(3), 0x40, 1)
	tr.Emit(us(2), KindDMAIssue, PA(0), 0x1000, 4<<1|1)
	tr.Emit(us(2), KindIOTLBMiss, Shell(), 0x1000, 180_000)
	tr.Emit(us(3), KindIOTLBHit, Shell(), 0x1040, 0)
	tr.Emit(us(4), KindDMAComplete, PA(0), uint64(2*sim.Microsecond), 256)
	tr.Emit(us(5), KindPreemptBegin, Sched(0), 0, 0)
	tr.Emit(us(6), KindPreemptSaved, Sched(0), 0, 0)
	tr.Emit(us(6), KindSliceEnd, Sched(0), 0, 3)
	tr.Emit(us(6), KindSliceBegin, Sched(0), 1, 5) // va1 of vm5, never ends
	tr.Emit(us(7), KindMuxStall, PA(1), 4, 12)
	tr.Emit(us(7), KindChaosFault, Shell(), 1, 0x2000)      // injected xlat fault
	tr.Emit(us(8), KindChaosFault, Shell(), 1|1<<8, 0x2000) // ... and its recovery
	tr.Emit(us(8), KindAccelReset, PA(1), 0, 0)
	return tr
}

func TestChromeTraceGolden(t *testing.T) {
	c := NewCollector()
	c.Add("MB jobs=2", goldenTracer(), nil)

	var buf bytes.Buffer
	if err := c.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "trace_golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("trace output differs from golden file %s\ngot:\n%s\nwant:\n%s",
			golden, buf.Bytes(), want)
	}
}

// TestChromeTraceWellFormed validates the structural contract Perfetto's
// legacy-JSON importer relies on: a traceEvents array of objects that each
// carry name/ph/pid/tid, with X events carrying ts and dur.
func TestChromeTraceWellFormed(t *testing.T) {
	var buf bytes.Buffer
	c := NewCollector()
	c.Add("platform", goldenTracer(), nil)
	if err := c.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var top struct {
		TraceEvents     []map[string]any `json:"traceEvents"`
		DisplayTimeUnit string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &top); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if len(top.TraceEvents) == 0 {
		t.Fatal("no trace events exported")
	}
	phs := map[string]int{}
	lanes := map[string]bool{}
	for i, ev := range top.TraceEvents {
		for _, key := range []string{"name", "ph", "pid", "tid"} {
			if _, ok := ev[key]; !ok {
				t.Fatalf("event %d missing %q: %v", i, key, ev)
			}
		}
		ph := ev["ph"].(string)
		phs[ph]++
		switch ph {
		case "X":
			if _, ok := ev["dur"]; !ok {
				t.Fatalf("complete event %d missing dur: %v", i, ev)
			}
			fallthrough
		case "B", "i":
			if _, ok := ev["ts"]; !ok {
				t.Fatalf("event %d missing ts: %v", i, ev)
			}
		case "M":
			if ev["name"] == "thread_name" {
				lanes[ev["args"].(map[string]any)["name"].(string)] = true
			}
		}
	}
	// One lane per accelerator, scheduler, VM, and the shell.
	for _, lane := range []string{"pa0", "pa1", "sched0", "vm3", "shell/iommu"} {
		if !lanes[lane] {
			t.Errorf("missing lane %q (got %v)", lane, lanes)
		}
	}
	if phs["M"] == 0 || phs["X"] == 0 || phs["i"] == 0 {
		t.Errorf("expected metadata, complete, and instant events, got %v", phs)
	}
	if phs["B"] != 1 {
		t.Errorf("expected exactly 1 unfinished-span B event, got %d", phs["B"])
	}
	// The slice span must cover us(1)..us(6): ts=1 dur=5 in trace microseconds.
	found := false
	for _, ev := range top.TraceEvents {
		if ev["ph"] == "X" && ev["name"] == "slice va0" {
			found = true
			if ev["ts"].(float64) != 1 || ev["dur"].(float64) != 5 {
				t.Errorf("slice va0 span ts=%v dur=%v, want 1/5", ev["ts"], ev["dur"])
			}
		}
	}
	if !found {
		t.Error("paired scheduler slice did not export as an X span")
	}
}

// TestChromeTraceWraparound drives a small ring far past capacity and checks
// the export contract still holds: Records() is oldest-first over only the
// surviving window, the drop counter accounts for everything overwritten, and
// the Chrome export of a wrapped ring is valid JSON whose timestamps all come
// from the surviving suffix.
func TestChromeTraceWraparound(t *testing.T) {
	const cap, emits = 8, 30
	tr := NewTracer(cap)
	us := func(n int64) sim.Time { return sim.Time(n) * sim.Microsecond }
	for i := int64(0); i < emits; i++ {
		if i%2 == 0 {
			tr.Emit(us(i), KindSliceBegin, Sched(0), 0, 3)
		} else {
			tr.Emit(us(i), KindSliceEnd, Sched(0), 0, 3)
		}
	}
	if got := tr.Dropped(); got != emits-cap {
		t.Fatalf("Dropped() = %d, want %d", got, emits-cap)
	}
	recs := tr.Records()
	if len(recs) != cap {
		t.Fatalf("ring holds %d records, want %d", len(recs), cap)
	}
	for i, r := range recs {
		if want := us(int64(emits - cap + i)); r.At != want {
			t.Fatalf("record %d at %v, want %v (ring not oldest-first after wrap)", i, r.At, want)
		}
	}

	var buf bytes.Buffer
	c := NewCollector()
	c.Add("platform", tr, nil)
	if err := c.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var top struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &top); err != nil {
		t.Fatalf("wrapped-ring export is not valid JSON: %v", err)
	}
	oldest := float64(emits - cap) // trace ts is in microseconds
	spans := 0
	for i, ev := range top.TraceEvents {
		ts, ok := ev["ts"].(float64)
		if !ok {
			continue // metadata events carry no ts
		}
		if ts < oldest {
			t.Fatalf("event %d has ts %v predating the surviving window (oldest %v): %v",
				i, ts, oldest, ev)
		}
		if ev["ph"] == "X" || ev["ph"] == "B" {
			spans++
		}
	}
	if spans == 0 {
		t.Fatal("wrapped export produced no slice spans")
	}
}

func TestChromeTraceMultiPlatform(t *testing.T) {
	c := NewCollector()
	c.Add("point A", goldenTracer(), nil)
	c.Add("metrics only", nil, NewRegistry()) // must be skipped, not crash
	c.Add("point B", goldenTracer(), nil)

	var buf bytes.Buffer
	if err := c.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var top struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &top); err != nil {
		t.Fatal(err)
	}
	pids := map[float64]bool{}
	names := map[float64]string{}
	for _, ev := range top.TraceEvents {
		pid := ev["pid"].(float64)
		pids[pid] = true
		if ev["ph"] == "M" && ev["name"] == "process_name" {
			names[pid] = ev["args"].(map[string]any)["name"].(string)
		}
	}
	if len(pids) != 2 {
		t.Fatalf("expected 2 process groups, got pids %v", pids)
	}
	if names[1] != "point A" || names[3] != "point B" {
		t.Fatalf("process names = %v", names)
	}
}
