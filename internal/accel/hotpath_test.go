package accel

import (
	"testing"

	"optimus/internal/mem"
	"optimus/internal/sim"
)

// steadyAllocs runs tb's job for warm microseconds, so every pool (DMA
// records, write payloads, the monitor's in-flight records, the shell's
// completion records, the event heap) reaches its working size, and then
// reports the heap allocations per further microsecond of simulated time.
func steadyAllocs(t *testing.T, tb *TestBench, warm sim.Time) float64 {
	t.Helper()
	tb.Start()
	tb.K.RunFor(warm)
	if st := tb.Accel.Status(); st != StatusRunning {
		t.Fatalf("job left running state during warm-up: %s (%v)", StatusName(st), tb.Accel.LastErr())
	}
	before := tb.Accel.WorkDone()
	allocs := testing.AllocsPerRun(200, func() { tb.K.RunFor(sim.Microsecond) })
	if tb.Accel.WorkDone() == before {
		t.Fatal("no progress in the measured window")
	}
	return allocs
}

// TestMemBenchSteadyStateZeroAlloc is the dynamic half of MemBench's
// zero-alloc gate (hotalloc is the static half): with the working set
// resident, a 70/30 read/write run allocates nothing per burst — reads are
// timing-only and writes draw their payloads from the logic's pool.
func TestMemBenchSteadyStateZeroAlloc(t *testing.T) {
	const ws = 1 << 20
	tb, err := NewTestBench(NewMemBench(), 2<<20)
	if err != nil {
		t.Fatal(err)
	}
	tb.WriteMem(0, make([]byte, ws)) // materialize every frame the writes land in
	tb.SetArg(MBArgBase, 0)
	tb.SetArg(MBArgSize, ws)
	tb.SetArg(MBArgBursts, 0) // run until stopped
	tb.SetArg(MBArgWritePct, 30)
	tb.SetArg(MBArgSeed, 7)
	if avg := steadyAllocs(t, tb, 50*sim.Microsecond); avg != 0 {
		t.Fatalf("steady-state MemBench allocates %.2f objects per simulated µs, want 0", avg)
	}
}

// TestLinkedListSteadyStateZeroAlloc: a pointer chase around a cyclic list
// reads every node into the logic's one node buffer and allocates nothing.
func TestLinkedListSteadyStateZeroAlloc(t *testing.T) {
	const nodes = 64
	tb, err := NewTestBench(NewLinkedList(), 2<<20)
	if err != nil {
		t.Fatal(err)
	}
	perm := sim.NewRand(3).Perm(nodes)
	addr := func(i int) uint64 { return 0x10000 + uint64(perm[i%nodes])*256 }
	node := make([]byte, 64)
	for i := 0; i < nodes; i++ {
		putU64(node[LLNextOffset:], addr(i+1)) // the last node links back to the first
		putU64(node[LLPayloadOffset:], uint64(i))
		tb.WriteMem(mem.HPA(addr(i)), node)
	}
	tb.SetArg(LLArgHead, addr(0))
	if avg := steadyAllocs(t, tb, 20*sim.Microsecond); avg != 0 {
		t.Fatalf("steady-state LinkedList allocates %.2f objects per simulated µs, want 0", avg)
	}
}
