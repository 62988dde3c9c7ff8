package accel

import (
	"fmt"
	"reflect"
	"testing"

	"optimus/internal/ccip"
	"optimus/internal/chaos"
	"optimus/internal/obs"
	"optimus/internal/sim"
)

// readStream is a test logic issuing a seeded stream of multi-line reads,
// one in eight aimed past the slicing window so the auditor's fault path is
// in the stream too (runStream also unmaps part of the window, for the
// shell's translation faults). It reads through Read (data-carrying) or ReadDiscard
// (timing-only) and records every completion.
type readStream struct {
	discard bool
	size    uint64
	rng     *sim.Rand
	left    int

	a    *Accel
	done []streamDone
}

type streamDone struct {
	at   sim.Time
	fail bool
}

const streamLines = 4

func (s *readStream) Name() string                   { return "RS" }
func (s *readStream) FreqMHz() int                   { return 400 }
func (s *readStream) StateBytes() int                { return 0 }
func (s *readStream) SaveState() []byte              { return nil }
func (s *readStream) RestoreState(data []byte) error { return nil }
func (s *readStream) ResetLogic()                    {}

func (s *readStream) Start(a *Accel) {
	s.a = a
	s.rng = sim.NewRand(0x5eed)
	s.left = 2000
	a.SetWindow(16)
}

func (s *readStream) Pump(a *Accel) {
	for a.CanIssue() {
		if s.left == 0 {
			a.JobDone()
			return
		}
		s.left--
		slots := (s.size - streamLines*ccip.LineSize) / ccip.LineSize
		addr := s.rng.Uint64n(slots+1) * ccip.LineSize
		if s.rng.Uint64n(8) == 0 {
			addr += s.size // outside the window: the auditor discards it
		}
		if s.discard {
			a.ReadDiscard(addr, streamLines, s.note)
			continue
		}
		a.Read(addr, streamLines, func(data []byte, err error) {
			if err == nil && len(data) != streamLines*ccip.LineSize {
				panic(fmt.Sprintf("data-carrying read returned %d bytes", len(data)))
			}
			s.note(err)
		})
	}
}

func (s *readStream) note(err error) {
	s.done = append(s.done, streamDone{at: s.a.Kernel().Now(), fail: err != nil})
}

// streamRun is everything a request stream's reads are observable by.
type streamRun struct {
	accelRead, auditorRead uint64
	shell                  ccip.ShellStats
	trace                  []obs.Rec
	done                   []streamDone
	chaos                  chaos.Stats
}

func runStream(t *testing.T, discard bool, plan *chaos.Plan) streamRun {
	t.Helper()
	const size = 4 << 20
	logic := &readStream{discard: discard, size: size}
	tb, err := NewTestBench(logic, size)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.shell.IOMMU.Table().Unmap(size / 2); err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer(1 << 17)
	tb.mon.SetTracer(tr)
	tb.shell.SetTracer(tr)
	tb.shell.SetTagged(true)
	if plan != nil {
		tb.shell.SetChaos(plan)
	}
	if err := tb.Run(); err != nil {
		t.Fatal(err)
	}
	if tr.Dropped() != 0 {
		t.Fatalf("trace ring overflowed (%d records dropped)", tr.Dropped())
	}
	r := streamRun{
		accelRead:   tb.Accel.BytesRead(),
		auditorRead: tb.mon.Auditor(0).BytesRead(),
		shell:       tb.shell.Stats(),
		trace:       tr.Records(),
		done:        logic.done,
	}
	if plan != nil {
		r.chaos = plan.Stats()
	}
	return r
}

// TestTimingOnlyReadsMatchDataReads: a timing-only read is a data-carrying
// read minus the copy. The same request stream run both ways gives the same
// byte counters (accelerator, auditor, shell), the same trace — DMA-complete
// payloads included — and the same completion times and errors, with and
// without wire faults injected.
func TestTimingOnlyReadsMatchDataReads(t *testing.T) {
	for _, tc := range []struct {
		name string
		plan func() *chaos.Plan
	}{
		{"clean", func() *chaos.Plan { return nil }},
		{"chaos", func() *chaos.Plan {
			return chaos.NewPlan(chaos.Config{Seed: 9, XlatPPM: 20_000,
				CorruptPPM: 50_000, DropPPM: 50_000, DupPPM: 50_000})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data := runStream(t, false, tc.plan())
			timing := runStream(t, true, tc.plan())

			fails := 0
			for _, d := range data.done {
				if d.fail {
					fails++
				}
			}
			if len(data.done) != 2000 || fails == 0 || fails == len(data.done) {
				t.Fatalf("stream completed %d reads, %d failed: want 2000 with some failures", len(data.done), fails)
			}
			if data.accelRead == 0 || data.accelRead != data.auditorRead {
				t.Fatalf("data-carrying run: accel read %d bytes, auditor %d", data.accelRead, data.auditorRead)
			}
			if tc.name == "chaos" && data.chaos.TotalInjected() == 0 {
				t.Fatal("chaos plan injected nothing")
			}
			if timing.accelRead != data.accelRead || timing.auditorRead != data.auditorRead {
				t.Errorf("BytesRead: timing-only accel %d auditor %d, data-carrying accel %d auditor %d",
					timing.accelRead, timing.auditorRead, data.accelRead, data.auditorRead)
			}
			if !reflect.DeepEqual(timing.shell, data.shell) {
				t.Errorf("ShellStats: timing-only %+v, data-carrying %+v", timing.shell, data.shell)
			}
			if timing.chaos != data.chaos {
				t.Errorf("chaos stats: timing-only %+v, data-carrying %+v", timing.chaos, data.chaos)
			}
			if !reflect.DeepEqual(timing.done, data.done) {
				t.Error("completion times or errors differ between timing-only and data-carrying reads")
			}
			if len(timing.trace) != len(data.trace) {
				t.Fatalf("trace: %d records timing-only, %d data-carrying", len(timing.trace), len(data.trace))
			}
			completes, traced := 0, uint64(0)
			for i := range data.trace {
				if timing.trace[i] != data.trace[i] {
					t.Fatalf("trace record %d: timing-only %+v, data-carrying %+v", i, timing.trace[i], data.trace[i])
				}
				if data.trace[i].Kind == obs.KindDMAComplete {
					completes++
					traced += data.trace[i].B
				}
			}
			// DMA-complete payloads carry the bytes delivered: a read that
			// faulted in translation reports none.
			if completes == 0 || traced != data.auditorRead {
				t.Fatalf("%d DMA-complete records carry %d bytes, auditor read %d", completes, traced, data.auditorRead)
			}
		})
	}
}
