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
// a physical slot.
type tenant struct {
	vm  *hv.VM
	dev *guest.Device
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

// job provisions one accelerator job: inputs written, registers programmed.
// work reports the job's useful bytes (for throughput metrics).
type job struct {
	dev  *tenant
	work uint64
	// completeOnly marks jobs whose progress counter uses different units
	// than work (SSSP counts relaxations): they are measured by running to
	// completion rather than by windowed sampling.
	completeOnly bool
}

// provisionJob prepares a representative job for app on the tenant, sized
// by inputBytes (line-aligned). It returns the job descriptor.
func (s *Session) provisionJob(tn *tenant, app string, inputBytes uint64, seed uint64) (*job, error) {
	d := tn.dev
	rng := sim.NewRand(seed ^ 0xbead)
	j := &job{dev: tn, work: inputBytes}
	fill := func(buf guest.Buffer, n uint64) error {
		data := make([]byte, n)
		rng.Fill(data)
		return d.Write(buf, 0, data)
	}
	switch app {
	case "AES", "MD5", "SHA", "FIR":
		src, err := d.AllocDMA(inputBytes)
		if err != nil {
			return nil, err
		}
		dst, err := d.AllocDMA(inputBytes)
		if err != nil {
			return nil, err
		}
		if err := fill(src, inputBytes); err != nil {
			return nil, err
		}
		d.RegWrite(accel.XFArgSrc, uint64(src.Addr))
		d.RegWrite(accel.XFArgDst, uint64(dst.Addr))
		d.RegWrite(accel.XFArgLen, inputBytes)
		switch app {
		case "AES":
			key, err := d.AllocDMA(64)
			if err != nil {
				return nil, err
			}
			fill(key, 64)
			d.RegWrite(accel.XFArgParam, uint64(key.Addr))
		case "FIR":
			d.RegWrite(accel.XFArgParam, 16)
		}
	case "GRN":
		dst, err := d.AllocDMA(inputBytes)
		if err != nil {
			return nil, err
		}
		d.RegWrite(accel.GRNArgDst, uint64(dst.Addr))
		d.RegWrite(accel.GRNArgBytes, inputBytes)
		d.RegWrite(accel.GRNArgSeed, seed)
		d.RegWrite(accel.GRNArgStddev, 1<<12)
	case "RSD":
		count := inputBytes / accel.RSDSlot
		if count == 0 {
			count = 1
		}
		src, err := d.AllocDMA(count * accel.RSDSlot)
		if err != nil {
			return nil, err
		}
		dst, err := d.AllocDMA(count * accel.RSDSlot)
		if err != nil {
			return nil, err
		}
		// Valid codewords with correctable corruption.
		if err := writeCodewords(d, src, int(count), rng); err != nil {
			return nil, err
		}
		d.RegWrite(accel.RSDArgSrc, uint64(src.Addr))
		d.RegWrite(accel.RSDArgDst, uint64(dst.Addr))
		d.RegWrite(accel.RSDArgCount, count)
		j.work = count * accel.RSDSlot
	case "SW":
		const seqLen = 2048
		pairs := inputBytes / (2 * seqLen)
		if pairs == 0 {
			pairs = 1
		}
		a, err := d.AllocDMA(pairs * seqLen)
		if err != nil {
			return nil, err
		}
		b, err := d.AllocDMA(pairs * seqLen)
		if err != nil {
			return nil, err
		}
		fill(a, pairs*seqLen)
		fill(b, pairs*seqLen)
		d.RegWrite(accel.SWArgSeqA, uint64(a.Addr))
		d.RegWrite(accel.SWArgLenA, seqLen)
		d.RegWrite(accel.SWArgSeqB, uint64(b.Addr))
		d.RegWrite(accel.SWArgLenB, seqLen)
		d.RegWrite(accel.SWArgPairs, pairs)
		j.work = pairs // alignments
	case "GAU", "SBL", "GRS":
		width := uint64(1024)
		chans := uint64(1)
		if app == "GRS" {
			chans = 3
		}
		height := inputBytes / (width * chans)
		if height < 8 {
			height = 8
		}
		src, err := d.AllocDMA(width * chans * height)
		if err != nil {
			return nil, err
		}
		dst, err := d.AllocDMA(width * height)
		if err != nil {
			return nil, err
		}
		fill(src, width*chans*height)
		d.RegWrite(accel.ImgArgSrc, uint64(src.Addr))
		d.RegWrite(accel.ImgArgDst, uint64(dst.Addr))
		d.RegWrite(accel.ImgArgWidth, width)
		d.RegWrite(accel.ImgArgHeight, height)
		j.work = width * chans * height
	case "SSSP":
		vertices := int(inputBytes / 256)
		if vertices < 256 {
			vertices = 256
		}
		edges := vertices * 8
		if err := layoutSSSPJob(tn, s.graph(vertices, edges, seed), 0); err != nil {
			return nil, err
		}
		j.work = uint64(edges) * 8
		j.completeOnly = true
	case "BTC":
		header, err := d.AllocDMA(128)
		if err != nil {
			return nil, err
		}
		target, err := d.AllocDMA(64)
		if err != nil {
			return nil, err
		}
		fill(header, 128)
		// Impossible target: scans the whole range (fixed work).
		zero := make([]byte, 64)
		d.Write(target, 0, zero)
		d.RegWrite(accel.BTCArgHeader, uint64(header.Addr))
		d.RegWrite(accel.BTCArgTarget, uint64(target.Addr))
		d.RegWrite(accel.BTCArgStart, 0)
		nonces := inputBytes / 8
		if nonces < 4096 {
			nonces = 4096
		}
		d.RegWrite(accel.BTCArgCount, nonces)
		j.work = nonces // hashes
	case "MB":
		ws := inputBytes
		if ws < 1<<20 {
			ws = 1 << 20
		}
		buf, err := d.AllocDMA(ws)
		if err != nil {
			return nil, err
		}
		d.RegWrite(accel.MBArgBase, uint64(buf.Addr))
		d.RegWrite(accel.MBArgSize, ws)
		d.RegWrite(accel.MBArgBursts, 0) // until stopped
		d.RegWrite(accel.MBArgWritePct, 0)
		d.RegWrite(accel.MBArgSeed, seed)
		j.work = 0 // measured via WorkDone
	case "LL":
		buf, err := d.AllocDMA(inputBytes)
		if err != nil {
			return nil, err
		}
		head, _, err := d.BuildList(buf, int(inputBytes/256), seed)
		if err != nil {
			return nil, err
		}
		d.RegWrite(accel.LLArgHead, head)
		j.work = inputBytes / 256
	default:
		return nil, fmt.Errorf("exp: no job template for %q", app)
	}
	return j, nil
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
