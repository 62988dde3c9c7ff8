// Multitenant: oversubscription with preemptive temporal multiplexing.
// Six tenants share two physical MemBench accelerators (three virtual
// accelerators each); the run is repeated under the round-robin, weighted,
// and priority schedulers to show the policies' occupancy shares (§6.8).
package main

import (
	"fmt"
	"log"

	"optimus"
	"optimus/internal/exp"
	"optimus/internal/hv"
	"optimus/internal/sim"
)

func main() {
	cases := []struct {
		name   string
		policy hv.Policy
	}{
		{"round-robin (equal slices)", optimus.PolicyRR},
		{"weighted round-robin (4:2:1)", optimus.PolicyWRR},
		{"priority (pair 0 > pair 1 > pair 2)", optimus.PolicyPriority},
	}
	for _, c := range cases {
		run(c.name, c.policy)
	}
}

func run(name string, policy hv.Policy) {
	// The whole run is one declarative scenario: every tenant gets a VM, a
	// process and a vaccel on its slot, a preemption state buffer, and a
	// MemBench job that runs until preempted.
	sc := exp.Scenario{
		Config: optimus.Config{Accels: []string{"MB", "MB"}, TimeSlice: 1 * sim.Millisecond},
		Policy: policy,
	}
	weights := []int{4, 2, 1}
	for i := 0; i < 6; i++ {
		sc.Tenants = append(sc.Tenants, exp.Tenant{
			Slot:     i % 2,
			Job:      exp.Job{App: "MB", Size: 16 << 20, WritePct: 20, Seed: uint64(i)},
			Weight:   weights[i/2],
			Priority: 3 - i/2,
			StateBuf: exp.StateBufFirst,
		})
	}
	p, err := exp.NewSession(exp.Options{}).Launch(sc)
	if err != nil {
		log.Fatal(err)
	}
	h := p.H

	const window = 30 * sim.Millisecond
	h.K.RunFor(window)

	fmt.Printf("\n=== %s ===\n", name)
	fmt.Printf("(30 ms window, 1 ms slices, 2 physical x 3 virtual accelerators)\n")
	fmt.Printf("%-10s %-5s %-10s %-7s %-12s %-7s\n", "tenant", "slot", "weight", "prio", "work (MB)", "share")
	for i, t := range sc.Tenants {
		va := p.VAccel(i)
		share := 100 * float64(va.Runtime()) / float64(window)
		fmt.Printf("tenant-%-3d %-5d %-10d %-7d %-12.1f %5.1f%%\n",
			i, t.Slot, t.Weight, t.Priority, float64(va.WorkDone())/1e6, share)
	}
	fmt.Printf("context switches: slot0=%d slot1=%d, forced resets: %d\n",
		h.Scheduler(0).Switches(), h.Scheduler(1).Switches(), h.Stats().ForcedResets)
}
