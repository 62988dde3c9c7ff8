package exp

import (
	"encoding/binary"
	"fmt"
	"sync"

	"optimus/internal/accel"
	"optimus/internal/algo/graph"
	"optimus/internal/algo/reedsolomon"
	"optimus/internal/guest"
	"optimus/internal/hv"
	"optimus/internal/sim"
)

var (
	rsOnce sync.Once
	//optimus:global-ok single-flight immutable encoder; rsOnce guards the only write
	rsShared *reedsolomon.Code
)

// rsCode returns the shared RS(255,223) encoder used for provisioning.
func rsCode() *reedsolomon.Code {
	rsOnce.Do(func() {
		c, err := reedsolomon.New(255, 223)
		if err != nil {
			panic(err)
		}
		rsShared = c
	})
	return rsShared
}

// graph returns the session's single-flight copy of a generated graph;
// sweep workers asking for the same graph share one generation.
func (s *Session) graph(vertices, edges int, seed uint64) *graph.CSR {
	g, _ := memo(s, fmt.Sprintf("graph/%d/%d/%d", vertices, edges, seed), func() (*graph.CSR, error) {
		return graph.Uniform(vertices, edges, 64, seed), nil
	})
	return g
}

// layoutSSSPJob writes g (CSR + descriptor + initialized distances) into
// the tenant's DMA region and programs the SSSP descriptor register.
func layoutSSSPJob(tn *tenant, g *graph.CSR, source int) error {
	d := tn.dev
	align := func(n uint64) uint64 { return (n + 63) &^ 63 }
	rowBytes := align(uint64(len(g.RowPtr)) * 4)
	edgeBytes := align(uint64(len(g.Col)) * 4)
	distBytes := align(uint64(g.NumVertices) * 8)
	desc, err := d.AllocDMA(64)
	if err != nil {
		return err
	}
	rowBuf, err := d.AllocDMA(rowBytes)
	if err != nil {
		return err
	}
	colBuf, err := d.AllocDMA(edgeBytes)
	if err != nil {
		return err
	}
	wBuf, err := d.AllocDMA(edgeBytes)
	if err != nil {
		return err
	}
	distBuf, err := d.AllocDMA(distBytes)
	if err != nil {
		return err
	}
	put32s := func(buf guest.Buffer, vals []uint32) error {
		b := make([]byte, align(uint64(len(vals))*4))
		for i, v := range vals {
			binary.LittleEndian.PutUint32(b[4*i:], v)
		}
		return d.Write(buf, 0, b)
	}
	if err := put32s(rowBuf, g.RowPtr); err != nil {
		return err
	}
	if err := put32s(colBuf, g.Col); err != nil {
		return err
	}
	if err := put32s(wBuf, g.Weight); err != nil {
		return err
	}
	dist := make([]byte, distBytes)
	for v := 0; v < g.NumVertices; v++ {
		val := accel.SSSPInf
		if v == source {
			val = 0
		}
		binary.LittleEndian.PutUint64(dist[8*v:], val)
	}
	if err := d.Write(distBuf, 0, dist); err != nil {
		return err
	}
	descBytes := make([]byte, 64)
	fields := []struct {
		off int
		v   uint64
	}{
		{0x00, uint64(g.NumVertices)}, {0x08, uint64(g.NumEdges())},
		{0x10, uint64(rowBuf.Addr)}, {0x18, uint64(colBuf.Addr)}, {0x20, uint64(wBuf.Addr)},
		{0x28, uint64(distBuf.Addr)}, {0x30, uint64(source)},
	}
	for _, f := range fields {
		binary.LittleEndian.PutUint64(descBytes[f.off:], f.v)
	}
	if err := d.Write(desc, 0, descBytes); err != nil {
		return err
	}
	return d.RegWrite(accel.SSSPArgDesc, uint64(desc.Addr))
}

// runJobsToCompletion starts every job and runs the simulation until all
// complete, returning each job's elapsed time.
func runJobsToCompletion(h *hv.Hypervisor, jobs []*job) ([]sim.Time, error) {
	elapsed := make([]sim.Time, len(jobs))
	remaining := len(jobs)
	starts := make([]sim.Time, len(jobs))
	for i, j := range jobs {
		i, j := i, j
		starts[i] = h.K.Now()
		if err := j.dev.dev.Start(); err != nil {
			return nil, err
		}
		// Register after Start: OnDone on an inactive job fires immediately.
		j.dev.dev.OnDone(func() {
			elapsed[i] = h.K.Now() - starts[i]
			remaining--
		})
	}
	h.K.RunWhile(func() bool { return remaining > 0 })
	if remaining > 0 {
		return nil, fmt.Errorf("exp: %d jobs never finished", remaining)
	}
	for i, j := range jobs {
		if err := j.dev.dev.VAccel().Failed(); err != nil {
			return nil, fmt.Errorf("exp: job %d failed: %w", i, err)
		}
	}
	return elapsed, nil
}

// repeatRunner restarts a tenant's job every time it completes, until the
// deadline; jobs in flight at the deadline contribute their partial work.
// It returns a function reporting the total work completed.
func repeatRunner(h *hv.Hypervisor, tn *tenant, workPerJob uint64, deadline sim.Time) func() uint64 {
	var completed uint64
	running := false
	var restart func()
	restart = func() {
		if h.K.Now() >= deadline {
			running = false
			return
		}
		if err := tn.dev.Start(); err != nil {
			running = false
			return
		}
		running = true
		tn.dev.OnDone(func() {
			completed += workPerJob
			restart()
		})
	}
	restart()
	return func() uint64 {
		total := completed
		if running {
			// Credit the in-flight job's progress (WorkDone counts the
			// same units the job reports at completion).
			total += tn.dev.VAccel().WorkDone()
		}
		return total
	}
}

// measureAggregate runs jobs repeatedly for the window and returns the
// aggregate work/second across tenants. Jobs marked completeOnly are
// instead run once to completion, with throughput work/makespan.
func measureAggregate(h *hv.Hypervisor, jobs []*job, window sim.Time) (float64, error) {
	if len(jobs) > 0 && jobs[0].completeOnly {
		start := h.K.Now()
		if _, err := runJobsToCompletion(h, jobs); err != nil {
			return 0, err
		}
		makespan := h.K.Now() - start
		var total float64
		for _, j := range jobs {
			total += float64(j.work)
		}
		return total / makespan.Seconds(), nil
	}
	deadline := h.K.Now() + window
	start := h.K.Now()
	totals := make([]func() uint64, len(jobs))
	for i, j := range jobs {
		if j.work == 0 {
			// Free-running accelerator (MB): just start it once.
			if err := j.dev.dev.Start(); err != nil {
				return 0, err
			}
			dev := j.dev.dev
			totals[i] = func() uint64 {
				w, _ := dev.WorkDone()
				return w
			}
			continue
		}
		totals[i] = repeatRunner(h, j.dev, j.work, deadline)
	}
	h.K.RunUntil(deadline)
	var sum float64
	for i, j := range jobs {
		if err := j.dev.dev.VAccel().Failed(); err != nil {
			return 0, fmt.Errorf("exp: job %d failed: %w", i, err)
		}
		sum += float64(totals[i]())
	}
	return sum / (h.K.Now() - start).Seconds(), nil
}
