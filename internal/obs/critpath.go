package obs

import (
	"fmt"
	"io"
	"sort"

	"optimus/internal/sim"
)

// Critical-path analysis: a causal span index over the trace ring. Every
// audited DMA carries its transaction's span id (MkSpan) on the records the
// packet path already emits — KindDMAIssue at the auditor boundary, one
// KindIOTLB* classification per line at the shell, KindDMAComplete at
// delivery — so joining the ring on span reconstructs each request's
// MMIO trap → translation → DMA issue → completion chain without any extra
// instrumentation. The analyzer decomposes each completed chain into three
// stages:
//
//   - queue+tree: auditor issue → first shell translation (injection
//     pacing, upstream multiplexer-tree crossing, mux stalls);
//   - translate: the summed IOTLB walk delays of the request's lines;
//   - link+mem: everything after translation — link occupancy, functional
//     memory access, the downstream tree crossing back to the accelerator.
//
// Per request class (read/write) it reports the latency distribution, each
// stage's share of total latency, and the dominant stage; the top
// tail-latency requests get an individual breakdown — the direct feed for
// ROADMAP item 2's SLO work.

// CritStage indexes the stage decomposition of a request chain.
const (
	StageQueue = iota // auditor issue -> first translation
	StageXlat         // summed IOTLB walk delays
	StageLink         // link occupancy + memory + downstream crossing
	NumStages
)

var stageNames = [NumStages]string{"queue+tree", "translate", "link+mem"}

// CritReq is one completed request chain.
type CritReq struct {
	Span     uint32
	Actor    Actor // the issuing accelerator's PA lane
	Write    bool
	Lines    int
	Issue    sim.Time // auditor issue time
	Complete sim.Time // delivery time
	Latency  sim.Time // measured round trip (complete record's payload)
	Stages   [NumStages]sim.Time
	XlatRecs int // IOTLB classification records joined (lines seen)
}

// Dominant returns the index of the chain's largest stage.
func (r *CritReq) Dominant() int {
	d := 0
	for i := 1; i < NumStages; i++ {
		if r.Stages[i] > r.Stages[d] {
			d = i
		}
	}
	return d
}

// CritClass aggregates one request class.
type CritClass struct {
	Name     string
	Count    int
	Total    sim.Time
	Max      sim.Time
	P50, P99 sim.Time
	Stages   [NumStages]sim.Time
	lats     []sim.Time
}

// Dominant returns the index of the class's largest aggregate stage.
func (c *CritClass) Dominant() int {
	d := 0
	for i := 1; i < NumStages; i++ {
		if c.Stages[i] > c.Stages[d] {
			d = i
		}
	}
	return d
}

// Mean returns the class's mean latency.
func (c *CritClass) Mean() sim.Time {
	if c.Count == 0 {
		return 0
	}
	return c.Total / sim.Time(c.Count)
}

// CritReport is the result of AnalyzeCritPath.
type CritReport struct {
	Reqs       []CritReq // completed chains, completion order
	Classes    []CritClass
	Incomplete int // chains missing their issue or completion (ring wraparound)
	Traps      []TrapCount
}

// TrapCount summarizes one VM's trapped control-plane MMIO accesses — the
// "MMIO trap" head of the request chain, grouped per tenant.
type TrapCount struct {
	Actor Actor
	Count int
	Spans int // distinct vaccel slices the traps touched
}

// openChain is a chain under construction during the ring walk.
type openChain struct {
	req       CritReq
	xlatAt    sim.Time // first translation record's time
	xlat      sim.Time // summed walk delays
	haveXlat  bool
	haveIssue bool
}

// AnalyzeCritPath joins recs (oldest-first, e.g. Tracer.Records) on their
// span ids into per-request critical paths. Chains whose issue or completion
// fell outside the ring's window are dropped and counted as Incomplete.
func AnalyzeCritPath(recs []Rec) *CritReport {
	rep := &CritReport{}
	open := map[uint32]*openChain{}
	type trapKey struct {
		spans map[uint32]bool
		n     int
	}
	traps := map[Actor]*trapKey{}

	for i := range recs {
		r := &recs[i]
		if r.Kind == KindMMIOTrap {
			t := traps[r.Actor]
			if t == nil {
				t = &trapKey{spans: map[uint32]bool{}}
				traps[r.Actor] = t
			}
			t.n++
			t.spans[r.Span] = true
			continue
		}
		if r.Span == 0 {
			continue
		}
		switch r.Kind {
		case KindDMAIssue:
			// A span can recur when a range-faulted request never consumed
			// its transaction number; the stale chain is incomplete.
			if open[r.Span] != nil {
				rep.Incomplete++
			}
			open[r.Span] = &openChain{
				req: CritReq{
					Span: r.Span, Actor: r.Actor,
					Write: r.B&1 == 1, Lines: int(r.B >> 1),
					Issue: r.At,
				},
				haveIssue: true,
			}
		case KindIOTLBHit, KindIOTLBSpecHit, KindIOTLBMiss, KindIOTLBFault:
			c := open[r.Span]
			if c == nil || !c.haveIssue {
				rep.Incomplete++
				continue
			}
			if !c.haveXlat {
				c.haveXlat = true
				c.xlatAt = r.At
			}
			c.xlat += sim.Time(r.B)
			c.req.XlatRecs++
		case KindDMAComplete:
			c := open[r.Span]
			if c == nil || !c.haveIssue {
				rep.Incomplete++
				continue
			}
			delete(open, r.Span)
			c.req.Complete = r.At
			c.req.Latency = sim.Time(r.A)
			if c.haveXlat {
				if q := c.xlatAt - c.req.Issue; q > 0 {
					c.req.Stages[StageQueue] = q
				}
				c.req.Stages[StageXlat] = c.xlat
				if l := (c.req.Complete - c.req.Issue) - c.req.Stages[StageQueue] - c.xlat; l > 0 {
					c.req.Stages[StageLink] = l
				}
			} else if l := c.req.Complete - c.req.Issue; l > 0 {
				// Translation records wrapped out of the ring: attribute the
				// whole chain downstream of the issue.
				c.req.Stages[StageLink] = l
			}
			rep.Reqs = append(rep.Reqs, c.req)
		}
	}
	rep.Incomplete += len(open)

	// Class aggregation, fixed order: reads then writes.
	classes := [2]CritClass{{Name: "rd"}, {Name: "wr"}}
	for i := range rep.Reqs {
		r := &rep.Reqs[i]
		ci := 0
		if r.Write {
			ci = 1
		}
		c := &classes[ci]
		c.Count++
		c.Total += r.Latency
		if r.Latency > c.Max {
			c.Max = r.Latency
		}
		for s := 0; s < NumStages; s++ {
			c.Stages[s] += r.Stages[s]
		}
		c.lats = append(c.lats, r.Latency)
	}
	for i := range classes {
		c := &classes[i]
		if c.Count == 0 {
			continue
		}
		sort.Slice(c.lats, func(a, b int) bool { return c.lats[a] < c.lats[b] })
		c.P50 = c.lats[c.Count/2]
		c.P99 = c.lats[(c.Count*99)/100]
		rep.Classes = append(rep.Classes, *c)
	}

	for a, t := range traps {
		rep.Traps = append(rep.Traps, TrapCount{Actor: a, Count: t.n, Spans: len(t.spans)})
	}
	sort.Slice(rep.Traps, func(i, j int) bool { return rep.Traps[i].Actor < rep.Traps[j].Actor })
	return rep
}

// TailContributors returns the top-k completed chains by latency (ties
// broken by span for determinism).
func (rep *CritReport) TailContributors(k int) []CritReq {
	out := make([]CritReq, len(rep.Reqs))
	copy(out, rep.Reqs)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Latency != out[j].Latency {
			return out[i].Latency > out[j].Latency
		}
		if out[i].Complete != out[j].Complete {
			return out[i].Complete < out[j].Complete
		}
		return out[i].Span < out[j].Span
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// pct renders share as a percentage of total.
func pct(share, total sim.Time) float64 {
	if total <= 0 {
		return 0
	}
	return 100 * float64(share) / float64(total)
}

// WriteText renders the report: per-class latency distribution and stage
// decomposition with the dominant stage named, then the top tail-latency
// contributors, then the control-plane trap summary.
func (rep *CritReport) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "critical-path analysis: %d completed request chains, %d incomplete (outside ring window)\n",
		len(rep.Reqs), rep.Incomplete); err != nil {
		return err
	}
	for i := range rep.Classes {
		c := &rep.Classes[i]
		total := c.Stages[0] + c.Stages[1] + c.Stages[2]
		if _, err := fmt.Fprintf(w, "class %s: n=%d mean=%v p50=%v p99=%v max=%v\n",
			c.Name, c.Count, c.Mean(), c.P50, c.P99, c.Max); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "  stages: %s %.1f%% | %s %.1f%% | %s %.1f%% -> dominant: %s\n",
			stageNames[StageQueue], pct(c.Stages[StageQueue], total),
			stageNames[StageXlat], pct(c.Stages[StageXlat], total),
			stageNames[StageLink], pct(c.Stages[StageLink], total),
			stageNames[c.Dominant()]); err != nil {
			return err
		}
	}
	if tail := rep.TailContributors(5); len(tail) > 0 {
		if _, err := fmt.Fprintln(w, "top tail-latency contributors:"); err != nil {
			return err
		}
		for i := range tail {
			r := &tail[i]
			cls := "rd"
			if r.Write {
				cls = "wr"
			}
			if _, err := fmt.Fprintf(w, "  %s %s lines=%d lat=%v  %s=%v %s=%v %s=%v -> %s\n",
				laneName(r.Actor), cls, r.Lines, r.Latency,
				stageNames[StageQueue], r.Stages[StageQueue],
				stageNames[StageXlat], r.Stages[StageXlat],
				stageNames[StageLink], r.Stages[StageLink],
				stageNames[r.Dominant()]); err != nil {
				return err
			}
		}
	}
	for i := range rep.Traps {
		t := &rep.Traps[i]
		if _, err := fmt.Fprintf(w, "control plane: %s %d mmio traps across %d vaccel slices\n",
			laneName(t.Actor), t.Count, t.Spans); err != nil {
			return err
		}
	}
	return nil
}

// WriteCritPaths analyzes and renders every collected platform's trace ring,
// labelled, skipping platforms without a tracer.
func (c *Collector) WriteCritPaths(w io.Writer) error {
	for _, p := range c.Platforms() {
		if p.Trace == nil {
			continue
		}
		if _, err := fmt.Fprintf(w, "== %s ==\n", p.Label); err != nil {
			return err
		}
		if err := AnalyzeCritPath(p.Trace.Records()).WriteText(w); err != nil {
			return err
		}
	}
	return nil
}
