package exp

import (
	"fmt"
	"io"
	"sort"

	"optimus/internal/ccip"
	"optimus/internal/mem"
)

// Runner produces one or more artifact tables within a run's session.
type Runner func(*Session) ([]*Table, error)

func one(t *Table, err error) ([]*Table, error) {
	if err != nil {
		return nil, err
	}
	return []*Table{t}, nil
}

// Experiments maps experiment IDs to runners, one per table/figure of the
// paper plus the extensions (see DESIGN.md §3 for the index).
//
//optimus:global-ok experiment registry, sealed at init; drivers only read it
var Experiments = map[string]Runner{
	"fig1": func(s *Session) ([]*Table, error) { return one(s.Fig1()) },
	"table1": func(*Session) ([]*Table, error) {
		return []*Table{Table1()}, nil
	},
	"table2": func(*Session) ([]*Table, error) { return one(Table2()) },
	"fig4": func(s *Session) ([]*Table, error) {
		a, err := s.Fig4a()
		if err != nil {
			return nil, err
		}
		b, err := s.Fig4b()
		if err != nil {
			return nil, err
		}
		return []*Table{a, b}, nil
	},
	"fig5": func(s *Session) ([]*Table, error) {
		var out []*Table
		for _, ps := range []uint64{mem.PageSize2M, mem.PageSize4K} {
			for _, ch := range []ccip.Channel{ccip.VCUPI, ccip.VCPCIe0} {
				t, err := s.Fig5(ps, ch)
				if err != nil {
					return nil, err
				}
				out = append(out, t)
			}
		}
		return out, nil
	},
	"fig6": func(s *Session) ([]*Table, error) {
		var out []*Table
		for _, ps := range []uint64{mem.PageSize2M, mem.PageSize4K} {
			for _, wr := range []bool{false, true} {
				t, err := s.Fig6(ps, wr)
				if err != nil {
					return nil, err
				}
				out = append(out, t)
			}
		}
		return out, nil
	},
	"fig7":     func(s *Session) ([]*Table, error) { return one(s.Fig7()) },
	"fig8":     func(s *Session) ([]*Table, error) { return one(s.Fig8()) },
	"table3":   func(s *Session) ([]*Table, error) { return one(s.Table3()) },
	"table4":   func(s *Session) ([]*Table, error) { return one(s.Table4()) },
	"sched":    func(s *Session) ([]*Table, error) { return one(s.SchedFairness()) },
	"timing":   func(*Session) ([]*Table, error) { return one(TimingAblation()) },
	"serve":    func(s *Session) ([]*Table, error) { return one(s.ServeCurve()) },
	"chaos":    func(s *Session) ([]*Table, error) { return one(s.ChaosSweep()) },
	"guard":    func(s *Session) ([]*Table, error) { return one(s.GuardAblation()) },
	"iommu":    func(s *Session) ([]*Table, error) { return one(s.IOMMUAblation()) },
	"muxarity": func(s *Session) ([]*Table, error) { return one(s.MuxArityAblation()) },
}

// IDs returns the experiment identifiers, sorted.
func IDs() []string {
	out := make([]string, 0, len(Experiments))
	for id := range Experiments {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Run executes one experiment in a fresh session configured by o and
// renders its tables to w. Sweep points fan out across o.Par workers;
// results are collected in declaration order, so the rendered tables are
// byte-identical at every parallelism level. The session (and its warm
// templates) ends with the run.
func Run(id string, o Options, w io.Writer) (Result, error) {
	r, ok := Experiments[id]
	if !ok {
		return Result{}, fmt.Errorf("exp: unknown experiment %q (have %v)", id, IDs())
	}
	s := NewSession(o)
	tables, err := r(s)
	if err != nil {
		return Result{}, err
	}
	for _, t := range tables {
		t.Render(w)
	}
	return s.Result(), nil
}
