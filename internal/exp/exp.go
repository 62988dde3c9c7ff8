// Package exp contains the experiment harness: one runner per table and
// figure in the paper's evaluation (§6), producing the same rows/series the
// paper reports. Each runner builds a fresh simulated platform, provisions
// guests and jobs through the public guest API, and measures with the
// platform's own counters.
//
// Runners are methods of a run's Session, whose Options carry a Scale so
// the benchmark suite can regenerate every artifact quickly while the CLI
// can run closer to paper-sized workloads.
// Absolute numbers are not expected to match the authors' testbed — the
// substrate is a simulator — but the shape (who wins, by what factor,
// where crossovers and cliffs fall) is the reproduction target; see
// EXPERIMENTS.md.
package exp

import (
	"fmt"
	"io"
	"strings"

	"optimus/internal/accel"
	"optimus/internal/guest"
	"optimus/internal/hv"
	"optimus/internal/sim"
)

// Scale selects workload sizes.
type Scale int

// Scales.
const (
	// ScaleQuick sizes runs for the test/benchmark suite (seconds).
	ScaleQuick Scale = iota
	// ScaleFull sizes runs closer to the paper (minutes).
	ScaleFull
)

// Table is a rendered experiment artifact.
type Table struct {
	ID     string // e.g. "fig1", "table2"
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render writes the table as aligned ASCII.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// tenant is one guest VM and its device (in a process of its own) bound to
// a physical slot, plus what provisionJob recorded about the device's job.
type tenant struct {
	vm      *hv.VM
	dev     *guest.Device
	standby *guest.Device // elastic standby (Tenant.Standby), or nil
	// work is the job's useful work per run (for throughput metrics); 0
	// marks a free-running job measured through WorkDone.
	work uint64
	// completeOnly marks jobs whose progress counter uses different units
	// than work (SSSP counts relaxations): they are measured by running to
	// completion rather than by windowed sampling.
	completeOnly bool
}

func newTenant(h *hv.Hypervisor, slot int) (*tenant, error) {
	vm, err := h.NewVM(fmt.Sprintf("vm-slot%d", slot), 10<<30)
	if err != nil {
		return nil, err
	}
	proc := vm.NewProcess()
	va, err := h.NewVAccel(proc, slot)
	if err != nil {
		return nil, err
	}
	dev, err := guest.Open(proc, va)
	if err != nil {
		return nil, err
	}
	return &tenant{vm: vm, dev: dev}, nil
}

// appJob is the representative job for app over size input bytes: at least
// 1 MB of MemBench working set, one LinkedList node per 256 bytes, and the
// other applications sized by provisionJob.
func appJob(app string, size, seed uint64) Job {
	j := Job{App: app, Size: size, Seed: seed}
	switch app {
	case "MB":
		j.Size = max(size, 1<<20)
	case "LL":
		j.Nodes = int(size / 256)
	}
	return j
}

// provisionJob prepares j on the tenant's device — inputs written,
// registers programmed, the state buffer set up where sb places it — and
// records the job's work on the tenant.
func (s *Session) provisionJob(tn *tenant, j Job, sb StateBuf) error {
	d := tn.dev
	inputBytes, seed := j.Size, j.Seed
	rng := sim.NewRand(seed ^ 0xbead)
	tn.work = inputBytes
	fill := func(buf guest.Buffer, n uint64) error {
		data := make([]byte, n)
		rng.Fill(data)
		return d.Write(buf, 0, data)
	}
	var err error
	switch j.App {
	case "":
		tn.work = 0
		return nil
	case "MB", "LL":
		tn.work = uint64(j.Nodes) // MB: 0, measured via WorkDone
		return programJob(d, j, sb)
	case "AES", "MD5", "SHA", "FIR":
		var src, dst guest.Buffer
		if src, err = d.AllocDMA(inputBytes); err != nil {
			return err
		}
		if dst, err = d.AllocDMA(inputBytes); err != nil {
			return err
		}
		if err := fill(src, inputBytes); err != nil {
			return err
		}
		if err := writeRegs(d, reg{accel.XFArgSrc, uint64(src.Addr)}, reg{accel.XFArgDst, uint64(dst.Addr)},
			reg{accel.XFArgLen, inputBytes}); err != nil {
			return err
		}
		switch j.App {
		case "AES":
			var key guest.Buffer
			if key, err = d.AllocDMA(64); err != nil {
				return err
			}
			if err := fill(key, 64); err != nil {
				return err
			}
			err = d.RegWrite(accel.XFArgParam, uint64(key.Addr))
		case "FIR":
			err = d.RegWrite(accel.XFArgParam, 16)
		}
	case "GRN":
		var dst guest.Buffer
		if dst, err = d.AllocDMA(inputBytes); err != nil {
			return err
		}
		err = writeRegs(d, reg{accel.GRNArgDst, uint64(dst.Addr)}, reg{accel.GRNArgBytes, inputBytes},
			reg{accel.GRNArgSeed, seed}, reg{accel.GRNArgStddev, 1 << 12})
	case "RSD":
		count := max(inputBytes/accel.RSDSlot, 1)
		var src, dst guest.Buffer
		if src, err = d.AllocDMA(count * accel.RSDSlot); err != nil {
			return err
		}
		if dst, err = d.AllocDMA(count * accel.RSDSlot); err != nil {
			return err
		}
		// Valid codewords with correctable corruption.
		if err := writeCodewords(d, src, int(count), rng); err != nil {
			return err
		}
		err = writeRegs(d, reg{accel.RSDArgSrc, uint64(src.Addr)}, reg{accel.RSDArgDst, uint64(dst.Addr)},
			reg{accel.RSDArgCount, count})
		tn.work = count * accel.RSDSlot
	case "SW":
		const seqLen = 2048
		pairs := max(inputBytes/(2*seqLen), 1)
		var a, b guest.Buffer
		if a, err = d.AllocDMA(pairs * seqLen); err != nil {
			return err
		}
		if b, err = d.AllocDMA(pairs * seqLen); err != nil {
			return err
		}
		if err := fill(a, pairs*seqLen); err != nil {
			return err
		}
		if err := fill(b, pairs*seqLen); err != nil {
			return err
		}
		err = writeRegs(d, reg{accel.SWArgSeqA, uint64(a.Addr)}, reg{accel.SWArgLenA, seqLen},
			reg{accel.SWArgSeqB, uint64(b.Addr)}, reg{accel.SWArgLenB, seqLen}, reg{accel.SWArgPairs, pairs})
		tn.work = pairs // alignments
	case "GAU", "SBL", "GRS":
		width := uint64(1024)
		chans := uint64(1)
		if j.App == "GRS" {
			chans = 3
		}
		height := max(inputBytes/(width*chans), 8)
		var src, dst guest.Buffer
		if src, err = d.AllocDMA(width * chans * height); err != nil {
			return err
		}
		if dst, err = d.AllocDMA(width * height); err != nil {
			return err
		}
		if err := fill(src, width*chans*height); err != nil {
			return err
		}
		err = writeRegs(d, reg{accel.ImgArgSrc, uint64(src.Addr)}, reg{accel.ImgArgDst, uint64(dst.Addr)},
			reg{accel.ImgArgWidth, width}, reg{accel.ImgArgHeight, height})
		tn.work = width * chans * height
	case "SSSP":
		vertices := max(int(inputBytes/256), 256)
		edges := vertices * 8
		err = layoutSSSPJob(tn, s.graph(vertices, edges, seed), 0)
		tn.work = uint64(edges) * 8
		tn.completeOnly = true
	case "BTC":
		var header, target guest.Buffer
		if header, err = d.AllocDMA(128); err != nil {
			return err
		}
		if target, err = d.AllocDMA(64); err != nil {
			return err
		}
		if err := fill(header, 128); err != nil {
			return err
		}
		// Impossible target: scans the whole range (fixed work).
		if err := d.Write(target, 0, make([]byte, 64)); err != nil {
			return err
		}
		nonces := max(inputBytes/8, 4096)
		err = writeRegs(d, reg{accel.BTCArgHeader, uint64(header.Addr)}, reg{accel.BTCArgTarget, uint64(target.Addr)},
			reg{accel.BTCArgStart, 0}, reg{accel.BTCArgCount, nonces})
		tn.work = nonces // hashes
	default:
		return fmt.Errorf("exp: no job template for %q", j.App)
	}
	if err != nil || sb == NoStateBuf {
		return err
	}
	_, err = d.SetupStateBuffer()
	return err
}

// writeCodewords fills src with encoded-and-corrupted RS(255,223) slots.
func writeCodewords(d *guest.Device, src guest.Buffer, count int, rng *sim.Rand) error {
	code := rsCode()
	for i := 0; i < count; i++ {
		msg := make([]byte, 223)
		rng.Fill(msg)
		cw, err := code.Encode(msg)
		if err != nil {
			return err
		}
		slot := make([]byte, accel.RSDSlot)
		copy(slot, cw)
		for _, p := range rng.Perm(255)[:rng.Intn(8)] {
			slot[p] ^= byte(1 + rng.Intn(255))
		}
		if err := d.Write(src, uint64(i*accel.RSDSlot), slot); err != nil {
			return err
		}
	}
	return nil
}

func fmtGBps(v float64) string  { return fmt.Sprintf("%.2f", v) }
func fmtPct(v float64) string   { return fmt.Sprintf("%.1f", v) }
func fmtRatio(v float64) string { return fmt.Sprintf("%.2fx", v) }
