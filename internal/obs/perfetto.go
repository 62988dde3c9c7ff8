package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// This file renders trace rings as Chrome trace-event JSON (the "JSON Array
// Format" flavor with a traceEvents envelope), which ui.perfetto.dev and
// chrome://tracing both open directly. Each collected platform becomes one
// "process" (pid); each actor — physical accelerator, scheduler slot, VM,
// shell — becomes one "thread" (tid), i.e. one timeline lane. Paired
// records (scheduler slices, preemption handshakes) export as complete "X"
// spans; DMA completions become spans stretching back over their measured
// latency; everything else is an instant event.
//
// Timestamps: the trace-event format's ts/dur unit is microseconds.
// Simulated time is integer picoseconds, so ts = At * 1e-6 keeps full
// precision in the float (sub-nanosecond resolution survives).

// chromeEvent is one trace-event object. Field order is fixed by the struct,
// and args maps marshal with sorted keys, so output is deterministic.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur,omitempty"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	S    string            `json:"s,omitempty"`
	Args map[string]uint64 `json:"args,omitempty"`
}

// metaEvent is a metadata record (process/thread naming).
type metaEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args"`
}

type chromeTrace struct {
	TraceEvents     []json.RawMessage `json:"traceEvents"`
	DisplayTimeUnit string            `json:"displayTimeUnit"`
}

// usec converts picoseconds to trace-event microseconds.
func usec(ps int64) float64 { return float64(ps) * 1e-6 }

// laneName renders an actor as a Perfetto lane label.
func laneName(a Actor) string {
	switch a.Class() {
	case ClassPA:
		return fmt.Sprintf("pa%d", a.ID())
	case ClassSched:
		return fmt.Sprintf("sched%d", a.ID())
	case ClassVM:
		return fmt.Sprintf("vm%d", a.ID())
	case ClassShell:
		return "shell/iommu"
	default:
		return "platform"
	}
}

// WriteChromeTrace exports every collected platform's ring into one trace,
// one process group per platform.
func (c *Collector) WriteChromeTrace(w io.Writer) error {
	platforms := c.Platforms()
	var raw []json.RawMessage
	add := func(v any) error {
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		raw = append(raw, b)
		return nil
	}
	for pi, p := range platforms {
		if p.Trace == nil {
			continue
		}
		pid := pi + 1
		recs := p.Trace.Records()

		// Assign one tid per actor, ordered by (class, id) so lane layout is
		// stable regardless of event arrival order.
		seen := map[Actor]bool{}
		var actors []Actor
		for _, r := range recs {
			if !seen[r.Actor] {
				seen[r.Actor] = true
				actors = append(actors, r.Actor)
			}
		}
		sort.Slice(actors, func(i, j int) bool { return actors[i] < actors[j] })
		tids := make(map[Actor]int, len(actors))
		for i, a := range actors {
			tids[a] = i + 1
		}

		if err := add(metaEvent{Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]string{"name": p.Label}}); err != nil {
			return err
		}
		for _, a := range actors {
			if err := add(metaEvent{Name: "thread_name", Ph: "M", Pid: pid, Tid: tids[a],
				Args: map[string]string{"name": laneName(a)}}); err != nil {
				return err
			}
		}

		// Pair begin/end kinds per actor into complete spans.
		openSlice := map[Actor]Rec{}
		openPreempt := map[Actor]Rec{}
		for _, r := range recs {
			tid := tids[r.Actor]
			cat := r.Actor.Class().String()
			switch r.Kind {
			case KindSliceBegin:
				openSlice[r.Actor] = r
			case KindSliceEnd:
				b, ok := openSlice[r.Actor]
				if !ok {
					continue // slice began before the ring's window
				}
				delete(openSlice, r.Actor)
				if err := add(chromeEvent{
					Name: fmt.Sprintf("slice va%d", b.A), Cat: cat, Ph: "X",
					Ts: usec(int64(b.At)), Dur: usec(int64(r.At - b.At)),
					Pid: pid, Tid: tid,
					Args: map[string]uint64{"vaccel": b.A, "vm": b.B},
				}); err != nil {
					return err
				}
			case KindPreemptBegin:
				openPreempt[r.Actor] = r
			case KindPreemptSaved:
				b, ok := openPreempt[r.Actor]
				if !ok {
					continue
				}
				delete(openPreempt, r.Actor)
				if err := add(chromeEvent{
					Name: fmt.Sprintf("preempt va%d", b.A), Cat: cat, Ph: "X",
					Ts: usec(int64(b.At)), Dur: usec(int64(r.At - b.At)),
					Pid: pid, Tid: tid,
					Args: map[string]uint64{"vaccel": b.A},
				}); err != nil {
					return err
				}
			case KindDMAComplete:
				if err := add(chromeEvent{
					Name: "dma", Cat: cat, Ph: "X",
					Ts: usec(int64(r.At) - int64(r.A)), Dur: usec(int64(r.A)),
					Pid: pid, Tid: tid,
					Args: map[string]uint64{"latency_ps": r.A, "bytes": r.B},
				}); err != nil {
					return err
				}
			default:
				if err := add(chromeEvent{
					Name: r.Kind.String(), Cat: cat, Ph: "i",
					Ts: usec(int64(r.At)), Pid: pid, Tid: tid, S: "t",
					Args: map[string]uint64{"a": r.A, "b": r.B},
				}); err != nil {
					return err
				}
			}
		}
		// Spans still open at the end of the window render as begin events;
		// Perfetto draws them as unfinished slices.
		flushOpen := func(open map[Actor]Rec, what string) error {
			keys := make([]Actor, 0, len(open))
			for a := range open {
				keys = append(keys, a)
			}
			sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
			for _, a := range keys {
				b := open[a]
				if err := add(chromeEvent{
					Name: fmt.Sprintf("%s va%d", what, b.A), Cat: a.Class().String(),
					Ph: "B", Ts: usec(int64(b.At)), Pid: pid, Tid: tids[a],
					Args: map[string]uint64{"vaccel": b.A},
				}); err != nil {
					return err
				}
			}
			return nil
		}
		if err := flushOpen(openSlice, "slice"); err != nil {
			return err
		}
		if err := flushOpen(openPreempt, "preempt"); err != nil {
			return err
		}
	}

	enc := json.NewEncoder(w)
	return enc.Encode(chromeTrace{TraceEvents: raw, DisplayTimeUnit: "ns"})
}
