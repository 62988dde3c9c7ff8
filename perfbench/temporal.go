package main

import (
	"encoding/binary"
	"fmt"

	"optimus/internal/accel"
	"optimus/internal/guest"
	"optimus/internal/hv"
	"optimus/internal/sim"
)

// The temporal workload: many tenants time-share one physical slot with
// short slices on 2 MB pages, in the shape of the paper's Fig. 8. Each
// point runs every tenant's job to completion, so the outputs can be
// checked: MemBench jobs must report exactly their burst count's bytes and
// LinkedList jobs the payload sum the benchmark computed while building
// their lists.
type temporalPoint struct {
	name    string
	app     string // "MB" or "LL"
	tenants int
	pad     int // bytes added to the preemption state
	slice   sim.Time
}

var temporalPoints = []temporalPoint{
	{"membench", "MB", 8, 0, 100 * sim.Microsecond},
	{"linkedlist", "LL", 8, 0, 100 * sim.Microsecond},
	// MD5 worst case: every resource the design occupies is saved on each
	// switch (a 2.5 MB state DMA). Its slice must outlast the state
	// restore: an accelerator ignores a preemption request while it is
	// still loading state, and the scheduler then resets it when the
	// preemption times out.
	{"md5-worst-case", "MB", 4, 5 << 19, 500 * sim.Microsecond},
}

const (
	mbWorkingSet = 2 << 20 // per tenant
	mbBursts     = 12000   // per tenant, 4 lines each
	mbBurstBytes = 4 * 64
	mbWindow     = 64 // MemBench's outstanding-request window
	mbWritePct   = 30
	llNodes      = 1500 // per tenant
	llSpread     = 4    // buffer slots per node
)

type llList struct {
	slots    []int    // buffer slot of node i
	payloads []uint64 // payload of node i
	sum      uint64
}

type temporal struct {
	platformSeeds []uint64
	block         []byte     // MemBench working-set contents
	mbSeeds       [][]uint64 // [point][tenant]
	lists         [][]llList // [point][tenant]
}

func newTemporal(seed uint64) *temporal {
	rng := sim.NewRand(seed ^ 0x7e3a)
	w := &temporal{block: make([]byte, mbWorkingSet)}
	rng.Fill(w.block)
	for _, p := range temporalPoints {
		w.platformSeeds = append(w.platformSeeds, rng.Uint64())
		seeds := make([]uint64, p.tenants)
		lists := make([]llList, p.tenants)
		for i := range seeds {
			seeds[i] = rng.Uint64()
			if p.app == "LL" {
				l := llList{slots: rng.Sample(llNodes*llSpread, llNodes), payloads: make([]uint64, llNodes)}
				for j := range l.payloads {
					l.payloads[j] = rng.Uint64()
					l.sum += l.payloads[j]
				}
				lists[i] = l
			}
		}
		w.mbSeeds = append(w.mbSeeds, seeds)
		w.lists = append(w.lists, lists)
	}
	return w
}

func (w *temporal) pageSize() uint64 { return 2 << 20 }

func (w *temporal) pass(r *runner) []outcome {
	outs := make([]outcome, len(temporalPoints))
	for i, p := range temporalPoints {
		outs[i] = w.point(r, i, p)
	}
	return outs
}

// build assembles and provisions one point's template platform.
func (w *temporal) build(r *runner, pi int, p temporalPoint) (*hv.Hypervisor, []*guest.Device, error) {
	h, err := newPlatform(r, hv.Config{Accels: []string{p.app}, TimeSlice: p.slice, Seed: w.platformSeeds[pi]})
	if err != nil {
		return nil, nil, err
	}
	if p.pad > 0 {
		accel.PadState(h.Phy(0).Accel, p.pad)
	}
	devs := make([]*guest.Device, p.tenants)
	for i := range devs {
		dev, err := openTenant(r, h, 0, fmt.Sprintf("%s-%d", p.name, i))
		if err != nil {
			return nil, nil, err
		}
		devs[i] = dev
		if p.app == "MB" {
			buf, err := alloc(r, dev, mbWorkingSet)
			if err != nil {
				return nil, nil, err
			}
			if err := write(r, dev, buf, 0, w.block); err != nil {
				return nil, nil, err
			}
			if err := regs(r, dev,
				reg{accel.MBArgBase, uint64(buf.Addr)}, reg{accel.MBArgSize, mbWorkingSet},
				reg{accel.MBArgBursts, mbBursts}, reg{accel.MBArgWritePct, mbWritePct},
				reg{accel.MBArgSeed, w.mbSeeds[pi][i]}); err != nil {
				return nil, nil, err
			}
		} else {
			head, err := w.writeList(r, dev, w.lists[pi][i])
			if err != nil {
				return nil, nil, err
			}
			if err := regs(r, dev, reg{accel.LLArgHead, head}); err != nil {
				return nil, nil, err
			}
		}
		end := r.span("hv.provision")
		_, err = dev.SetupStateBuffer()
		end()
		if err != nil {
			return nil, nil, err
		}
	}
	return h, devs, nil
}

// writeList lays l's nodes across a fresh buffer and returns the head GVA.
func (w *temporal) writeList(r *runner, dev *guest.Device, l llList) (uint64, error) {
	buf, err := alloc(r, dev, llNodes*llSpread*64)
	if err != nil {
		return 0, err
	}
	end := r.span("guest.Write")
	defer end()
	node := make([]byte, 64)
	for j, s := range l.slots {
		var next uint64
		if j+1 < len(l.slots) {
			next = uint64(buf.Addr) + uint64(l.slots[j+1])*64
		}
		binary.LittleEndian.PutUint64(node[accel.LLNextOffset:], next)
		binary.LittleEndian.PutUint64(node[accel.LLPayloadOffset:], l.payloads[j])
		if err := dev.Write(buf, uint64(s)*64, node); err != nil {
			return 0, err
		}
	}
	return uint64(buf.Addr) + uint64(l.slots[0])*64, nil
}

func (w *temporal) point(r *runner, pi int, p temporalPoint) outcome {
	out := r.newPoint(p.name)
	var h *hv.Hypervisor
	var devs []*guest.Device
	out.err = r.timed("setup", true, func() error {
		tmpl, tdevs, err := w.build(r, pi, p)
		if err != nil {
			return err
		}
		h, devs, err = cloneTenants(r, tmpl, tdevs)
		if err != nil {
			return err
		}
		if p.pad > 0 {
			accel.PadState(h.Phy(0).Accel, p.pad)
		}
		return r.instrument(h)
	})
	if out.err != nil {
		return out
	}
	out.acquired(h)
	out.err = r.simulate(h.K, func() error { return runToCompletion(h, devs) })
	out.finish(h)
	if out.err == nil {
		out.err = w.check(p, pi, devs, out.digest)
	}
	r.end(h)
	return out
}

func (w *temporal) check(p temporalPoint, pi int, devs []*guest.Device, d digest) error {
	for i, dev := range devs {
		if err := dev.VAccel().Failed(); err != nil {
			return fmt.Errorf("%s tenant %d failed: %w", p.name, i, err)
		}
		done := dev.VAccel().WorkDone()
		d.add(done)
		if p.app == "MB" {
			// MemBench reports done once its last burst is issued; the
			// scheduler's reset at completion drops the completions of the
			// at most window-1 bursts still in flight.
			lo, hi := uint64(mbBursts-mbWindow+1)*mbBurstBytes, uint64(mbBursts)*mbBurstBytes
			if done < lo || done > hi || done%mbBurstBytes != 0 {
				return fmt.Errorf("%s tenant %d moved %d bytes, want whole bursts in [%d, %d]", p.name, i, done, lo, hi)
			}
			continue
		}
		sum, err := dev.RegRead(accel.LLArgChecksum)
		if err != nil {
			return err
		}
		d.add(sum)
		if want := w.lists[pi][i].sum; sum != want || done != llNodes {
			return fmt.Errorf("%s tenant %d: checksum %#x over %d nodes, want %#x over %d", p.name, i, sum, done, want, llNodes)
		}
	}
	return nil
}

func (w *temporal) simMetrics(outs []outcome) []metric { return []metric{simGBps(outs)} }
