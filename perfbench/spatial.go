package main

import (
	"bytes"
	stdaes "crypto/aes"
	"crypto/md5"
	"crypto/sha256"
	"crypto/sha512"
	"encoding/binary"
	"fmt"

	"optimus/internal/accel"
	"optimus/internal/algo/bitcoin"
	"optimus/internal/algo/fir"
	"optimus/internal/algo/graph"
	"optimus/internal/algo/grn"
	"optimus/internal/algo/imgfilter"
	"optimus/internal/algo/reedsolomon"
	"optimus/internal/algo/smithwaterman"
	"optimus/internal/guest"
	"optimus/internal/hv"
	"optimus/internal/sim"
)

// The spatial workload: eight slots, each running a different real
// accelerator to completion on seeded inputs, in the shape of the paper's
// Fig. 7. Two points cover the ten designs; each is provisioned as a
// template and run on a clone, so output writes break copy-on-write
// sharing. Every output is compared with a Go reference.
var spatialMixes = [][]string{
	{"AES", "MD5", "SHA", "FIR", "GRN", "RSD", "SW", "GAU"},
	{"SBL", "SSSP", "BTC", "AES", "MD5", "SHA", "FIR", "RSD"},
}

// Input sizes per job.
const (
	xfBytes       = 1 << 20 // AES, MD5, SHA, FIR input; GRN output
	firTaps       = 16
	grnStddev     = 1 << 12
	grnChunk      = 128 // samples the accelerator generates per burst
	rsdCount      = 2048
	swPairs       = 24
	swLen         = 256
	imgWidth      = 1024
	imgHeight     = 512
	ssspVertices  = 4096
	ssspEdges     = 8 * ssspVertices
	ssspMaxWeight = 64
	btcCount      = 1 << 12 // the scan stops at the first solution: kept short, so seeds vary the work little
	btcDifficulty = 10
)

// spatialJob is one slot's seeded inputs and the reference outputs.
type spatialJob struct {
	app   string
	seed  uint64
	in    []byte // primary input (codewords for RSD, sequence A for SW, header for BTC)
	in2   []byte // AES key, SW sequence B, BTC target
	graph *graph.CSR

	want      []byte // expected output buffer contents
	wantScore uint64 // SW
	wantFound bool   // BTC
	wantNonce uint32 // BTC
}

type spatial struct {
	platformSeeds []uint64
	jobs          [][]*spatialJob // [point][slot]
}

func newSpatial(seed uint64) *spatial {
	rng := sim.NewRand(seed ^ 0x5a7a)
	w := &spatial{}
	for _, mix := range spatialMixes {
		w.platformSeeds = append(w.platformSeeds, rng.Uint64())
		jobs := make([]*spatialJob, len(mix))
		for i, app := range mix {
			jobs[i] = newSpatialJob(app, rng)
		}
		w.jobs = append(w.jobs, jobs)
	}
	return w
}

func fill(rng *sim.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Fill(b)
	return b
}

func le32(vals []int32) []byte {
	b := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(b[4*i:], uint32(v))
	}
	return b
}

// newSpatialJob generates app's inputs and computes its reference outputs.
func newSpatialJob(app string, rng *sim.Rand) *spatialJob {
	j := &spatialJob{app: app, seed: rng.Uint64()}
	switch app {
	case "AES":
		j.in, j.in2 = fill(rng, xfBytes), fill(rng, 16)
		c, _ := stdaes.NewCipher(j.in2) // a 16-byte key is always valid
		j.want = make([]byte, xfBytes)
		for i := 0; i < xfBytes; i += 16 {
			c.Encrypt(j.want[i:i+16], j.in[i:i+16])
		}
	case "MD5":
		j.in = fill(rng, xfBytes)
		s := md5.Sum(j.in)
		j.want = s[:]
	case "SHA":
		j.in = fill(rng, xfBytes)
		s := sha512.Sum512(j.in)
		j.want = s[:]
	case "FIR":
		samples := make([]int32, xfBytes/4)
		for i := range samples {
			samples[i] = int32(rng.Uint64()) >> 12
		}
		j.in = le32(samples)
		f, _ := fir.New(fir.LowPass(firTaps)) // a fixed, valid tap count
		out := make([]int32, len(samples))
		f.Process(out, samples) // equal lengths: cannot fail
		j.want = le32(out)
	case "GRN":
		// The accelerator seeds its generator from the register value
		// mixed with a design constant and fills one burst at a time.
		g := grn.New(j.seed ^ 0x62e)
		out := make([]int32, xfBytes/4)
		for i := 0; i < len(out); i += grnChunk {
			g.FillQ15(out[i:i+grnChunk], grnStddev)
		}
		j.want = le32(out)
	case "RSD":
		code, _ := reedsolomon.New(255, 223) // the accelerator's code: valid
		j.in = make([]byte, rsdCount*accel.RSDSlot)
		j.want = make([]byte, rsdCount*accel.RSDSlot)
		for i := 0; i < rsdCount; i++ {
			msg := fill(rng, 223)
			copy(j.want[i*accel.RSDSlot:], msg)
			cw, _ := code.Encode(msg) // msg has exactly k bytes
			slot := j.in[i*accel.RSDSlot : (i+1)*accel.RSDSlot]
			copy(slot, cw)
			for _, p := range rng.Perm(255)[:rng.Intn(code.T()+1)] {
				slot[p] ^= byte(1 + rng.Intn(255))
			}
		}
	case "SW":
		j.in, j.in2 = fill(rng, swPairs*swLen), fill(rng, swPairs*swLen)
		for i := range j.in {
			j.in[i] = "ACGT"[j.in[i]&3]
			j.in2[i] = "ACGT"[j.in2[i]&3]
		}
		for p := 0; p < swPairs; p++ {
			a, b := j.in[p*swLen:(p+1)*swLen], j.in2[p*swLen:(p+1)*swLen]
			j.wantScore += uint64(smithwaterman.Score(a, b, smithwaterman.DefaultScoring()))
		}
	case "GAU", "SBL":
		j.in = fill(rng, imgWidth*imgHeight)
		src := &imgfilter.Gray{W: imgWidth, H: imgHeight, Pix: j.in}
		if app == "GAU" {
			j.want = imgfilter.Gaussian(src).Pix
		} else {
			j.want = imgfilter.Sobel(src).Pix
		}
	case "SSSP":
		j.graph = graph.Uniform(ssspVertices, ssspEdges, ssspMaxWeight, j.seed)
		dist := graph.Dijkstra(j.graph, 0)
		j.want = make([]byte, 8*len(dist))
		for v, d := range dist {
			u := uint64(d)
			if d == graph.Inf {
				u = accel.SSSPInf
			}
			binary.LittleEndian.PutUint64(j.want[8*v:], u)
		}
	case "BTC":
		j.in = fill(rng, bitcoin.HeaderSize)
		t := bitcoin.TargetWithDifficulty(btcDifficulty)
		j.in2 = t[:]
		j.wantNonce, j.wantFound, _ = bitcoin.Mine(j.in, t, 0, btcCount)
	}
	return j
}

func (w *spatial) pageSize() uint64 { return 2 << 20 }

func (w *spatial) pass(r *runner) []outcome {
	outs := make([]outcome, len(spatialMixes))
	for i := range spatialMixes {
		outs[i] = w.point(r, i)
	}
	return outs
}

// build assembles the point's eight-slot template with every job
// provisioned.
func (w *spatial) build(r *runner, pi int) (*hv.Hypervisor, []*guest.Device, []guest.Buffer, error) {
	mix := spatialMixes[pi]
	h, err := newPlatform(r, hv.Config{Accels: mix, Seed: w.platformSeeds[pi]})
	if err != nil {
		return nil, nil, nil, err
	}
	devs := make([]*guest.Device, len(mix))
	outs := make([]guest.Buffer, len(mix))
	for slot, j := range w.jobs[pi] {
		dev, err := openTenant(r, h, slot, fmt.Sprintf("%s-%d", j.app, slot))
		if err != nil {
			return nil, nil, nil, err
		}
		devs[slot] = dev
		if outs[slot], err = j.provision(r, dev); err != nil {
			return nil, nil, nil, fmt.Errorf("%s: %w", j.app, err)
		}
	}
	return h, devs, outs, nil
}

// output allocates an n-byte output buffer and fills it with a poison
// pattern, as a guest initializes memory it hands to a device: the
// accelerator's writes then break copy-on-write sharing on the clone, and
// an output it never writes cannot match the reference.
func output(r *runner, dev *guest.Device, n uint64) (guest.Buffer, error) {
	return input(r, dev, bytes.Repeat([]byte{0xa5}, int(n)))
}

// input allocates a buffer for data and writes it.
func input(r *runner, dev *guest.Device, data []byte) (guest.Buffer, error) {
	buf, err := alloc(r, dev, uint64((len(data)+63)&^63))
	if err != nil {
		return buf, err
	}
	return buf, write(r, dev, buf, 0, data)
}

// provision writes the job's inputs, programs its registers and returns
// the buffer its output lands in.
func (j *spatialJob) provision(r *runner, dev *guest.Device) (guest.Buffer, error) {
	var out guest.Buffer
	var err error
	switch j.app {
	case "AES", "MD5", "SHA", "FIR":
		src, err := input(r, dev, j.in)
		if err != nil {
			return out, err
		}
		if out, err = output(r, dev, uint64(len(j.want))); err != nil {
			return out, err
		}
		param := uint64(firTaps)
		if j.app == "AES" {
			key, err := input(r, dev, j.in2)
			if err != nil {
				return out, err
			}
			param = uint64(key.Addr)
		}
		err = regs(r, dev, reg{accel.XFArgSrc, uint64(src.Addr)}, reg{accel.XFArgDst, uint64(out.Addr)},
			reg{accel.XFArgLen, uint64(len(j.in))}, reg{accel.XFArgParam, param})
		return out, err
	case "GRN":
		if out, err = output(r, dev, xfBytes); err != nil {
			return out, err
		}
		return out, regs(r, dev, reg{accel.GRNArgDst, uint64(out.Addr)}, reg{accel.GRNArgBytes, xfBytes},
			reg{accel.GRNArgSeed, j.seed}, reg{accel.GRNArgStddev, grnStddev})
	case "RSD":
		src, err := input(r, dev, j.in)
		if err != nil {
			return out, err
		}
		if out, err = output(r, dev, uint64(len(j.want))); err != nil {
			return out, err
		}
		return out, regs(r, dev, reg{accel.RSDArgSrc, uint64(src.Addr)}, reg{accel.RSDArgDst, uint64(out.Addr)},
			reg{accel.RSDArgCount, rsdCount})
	case "SW":
		a, err := input(r, dev, j.in)
		if err != nil {
			return out, err
		}
		b, err := input(r, dev, j.in2)
		if err != nil {
			return out, err
		}
		return out, regs(r, dev, reg{accel.SWArgSeqA, uint64(a.Addr)}, reg{accel.SWArgLenA, swLen},
			reg{accel.SWArgSeqB, uint64(b.Addr)}, reg{accel.SWArgLenB, swLen}, reg{accel.SWArgPairs, swPairs})
	case "GAU", "SBL":
		src, err := input(r, dev, j.in)
		if err != nil {
			return out, err
		}
		if out, err = output(r, dev, uint64(len(j.want))); err != nil {
			return out, err
		}
		return out, regs(r, dev, reg{accel.ImgArgSrc, uint64(src.Addr)}, reg{accel.ImgArgDst, uint64(out.Addr)},
			reg{accel.ImgArgWidth, imgWidth}, reg{accel.ImgArgHeight, imgHeight})
	case "SSSP":
		return j.provisionGraph(r, dev)
	case "BTC":
		header, err := input(r, dev, j.in)
		if err != nil {
			return out, err
		}
		target, err := input(r, dev, j.in2)
		if err != nil {
			return out, err
		}
		return out, regs(r, dev, reg{accel.BTCArgHeader, uint64(header.Addr)}, reg{accel.BTCArgTarget, uint64(target.Addr)},
			reg{accel.BTCArgStart, 0}, reg{accel.BTCArgCount, btcCount})
	}
	return out, fmt.Errorf("no job template for %s", j.app)
}

// provisionGraph lays out the CSR arrays, the distance array and the
// descriptor the SSSP accelerator reads (layout of accel.SSSPArgDesc).
func (j *spatialJob) provisionGraph(r *runner, dev *guest.Device) (guest.Buffer, error) {
	g := j.graph
	u32 := func(vals []uint32) []byte {
		b := make([]byte, 4*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint32(b[4*i:], v)
		}
		return b
	}
	var bufs [3]guest.Buffer
	for i, vals := range [][]uint32{g.RowPtr, g.Col, g.Weight} {
		b, err := input(r, dev, u32(vals))
		if err != nil {
			return b, err
		}
		bufs[i] = b
	}
	dist := make([]byte, 8*g.NumVertices)
	for v := 1; v < g.NumVertices; v++ {
		binary.LittleEndian.PutUint64(dist[8*v:], accel.SSSPInf)
	}
	out, err := input(r, dev, dist)
	if err != nil {
		return out, err
	}
	desc := make([]byte, 64)
	for i, v := range []uint64{uint64(g.NumVertices), uint64(g.NumEdges()),
		uint64(bufs[0].Addr), uint64(bufs[1].Addr), uint64(bufs[2].Addr), uint64(out.Addr), 0} {
		binary.LittleEndian.PutUint64(desc[8*i:], v)
	}
	d, err := input(r, dev, desc)
	if err != nil {
		return out, err
	}
	return out, regs(r, dev, reg{accel.SSSPArgDesc, uint64(d.Addr)})
}

func (w *spatial) point(r *runner, pi int) outcome {
	out := r.newPoint(fmt.Sprintf("mix%d", pi))
	var h *hv.Hypervisor
	var devs []*guest.Device
	var bufs []guest.Buffer
	out.err = r.timed("setup", true, func() error {
		tmpl, tdevs, tbufs, err := w.build(r, pi)
		if err != nil {
			return err
		}
		bufs = tbufs
		if h, devs, err = cloneTenants(r, tmpl, tdevs); err != nil {
			return err
		}
		return r.instrument(h)
	})
	if out.err != nil {
		return out
	}
	out.acquired(h)
	out.err = r.simulate(h.K, func() error { return runToCompletion(h, devs) })
	out.finish(h)
	for slot, j := range w.jobs[pi] {
		if out.err != nil {
			break
		}
		out.err = j.check(devs[slot], bufs[slot], out.digest)
	}
	r.end(h)
	return out
}

// check compares the job's outputs with the reference.
func (j *spatialJob) check(dev *guest.Device, buf guest.Buffer, d digest) error {
	if err := dev.VAccel().Failed(); err != nil {
		return fmt.Errorf("%s failed: %w", j.app, err)
	}
	d.add(dev.VAccel().WorkDone())
	switch j.app {
	case "SW":
		score, err := dev.RegRead(accel.SWArgScore)
		if err != nil {
			return err
		}
		d.add(score)
		if score != j.wantScore {
			return fmt.Errorf("SW score %d, want %d", score, j.wantScore)
		}
		return nil
	case "BTC":
		found, err := dev.RegRead(accel.BTCArgFound)
		if err != nil {
			return err
		}
		nonce, err := dev.RegRead(accel.BTCArgNonce)
		if err != nil {
			return err
		}
		d.add(found, nonce)
		if (found == 1) != j.wantFound || (j.wantFound && uint32(nonce) != j.wantNonce) {
			return fmt.Errorf("BTC found=%d nonce=%d, want %v/%d", found, nonce, j.wantFound, j.wantNonce)
		}
		if j.wantFound && !meetsTarget(j.in, uint32(nonce), j.in2) {
			return fmt.Errorf("BTC nonce %d does not meet the target", nonce)
		}
		return nil
	}
	got := make([]byte, len(j.want))
	if err := dev.Read(buf, 0, got); err != nil {
		return err
	}
	d.bytes(got)
	if !bytes.Equal(got, j.want) {
		return fmt.Errorf("%s output differs from the reference", j.app)
	}
	if j.app == "RSD" {
		if fails, err := dev.RegRead(accel.RSDArgFailures); err != nil || fails != 0 {
			return fmt.Errorf("RSD reported %d uncorrectable codewords (%v)", fails, err)
		}
	}
	return nil
}

// meetsTarget re-checks a mined nonce with crypto/sha256: the double hash
// of the header carrying it must lie below the target.
func meetsTarget(header []byte, nonce uint32, target []byte) bool {
	h := append([]byte(nil), header...)
	binary.LittleEndian.PutUint32(h[bitcoin.NonceOffset:], nonce)
	first := sha256.Sum256(h)
	digest := sha256.Sum256(first[:])
	var t [32]byte
	copy(t[:], target)
	return bitcoin.MeetsTarget(digest, t)
}

func (w *spatial) simMetrics(outs []outcome) []metric { return []metric{simGBps(outs)} }
