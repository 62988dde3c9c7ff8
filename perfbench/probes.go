package main

import (
	"encoding/binary"
	"math"
	"time"

	"optimus/internal/algo/aes"
	"optimus/internal/algo/bitcoin"
	"optimus/internal/algo/fir"
	"optimus/internal/algo/grn"
	"optimus/internal/algo/imgfilter"
	"optimus/internal/algo/md5"
	"optimus/internal/algo/reedsolomon"
	"optimus/internal/algo/sha512"
	"optimus/internal/algo/smithwaterman"
	"optimus/internal/ccip"
	"optimus/internal/hwmon"
	"optimus/internal/iommu"
	"optimus/internal/mem"
	"optimus/internal/pagetable"
	"optimus/internal/sim"
)

// Probes time one layer in isolation, on a private instance, with
// parameters read from the workload's own traced pass: page size, resident
// footprint, read/write mix, burst length, pending depth and clock. Each
// probe reports the median of probeReps repetitions.
const (
	probeReps = 5
	probeOps  = 1 << 17 // operations per repetition
)

// probeParams are the workload properties the probes replay.
type probeParams struct {
	pageSize   uint64
	footprint  uint64 // bytes: the largest resident footprint of a point
	burst      int    // bytes per DMA request
	writeShare float64
	pending    int // mean kernel pending depth
	clock      sim.Time
}

func paramsOf(w workload, ps passStats) probeParams {
	var c platformCounts
	for i := range ps.outs {
		ps.outs[i].counts.addTo(&c)
	}
	p := probeParams{
		pageSize:   w.pageSize(),
		footprint:  c.resident,
		burst:      ccip.LineSize,
		writeShare: float64(c.writes) / float64(c.reads+c.writes),
		pending:    int(math.Round(ps.layers["sim.pending_mean"])),
		clock:      ps.outs[0].clock,
	}
	if n := c.reads + c.writes; n > 0 {
		p.burst = int(c.bytes/n) / ccip.LineSize * ccip.LineSize
	}
	p.burst = max(p.burst, ccip.LineSize)
	p.footprint = max(p.footprint, 1<<20)
	p.footprint = (p.footprint + p.pageSize - 1) / p.pageSize * p.pageSize
	p.pending = max(p.pending, 1)
	return p
}

// timeReps returns the median over probeReps runs of fn's host time divided
// by the operations it reports.
func timeReps(fn func() int) float64 {
	xs := make([]float64, probeReps)
	for i := range xs {
		t0 := time.Now()
		n := fn()
		xs[i] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return median(xs)
}

func runProbes(w workload, seed uint64, ps passStats) map[string]float64 {
	p := paramsOf(w, ps)
	m := map[string]float64{
		"sim.probe_ns_per_event": probeKernel(p),
	}
	m["mem.probe_read_ns"], m["mem.probe_write_ns"] = probeMem(p)
	m["pagetable.probe_map_ns"], m["pagetable.probe_lookup_ns"], m["iommu.probe_translate_ns"] = probeTables(p)
	m["ccip.probe_req_ns"] = probePacket(p, false)
	m["hwmon.probe_req_ns"] = probePacket(p, true)
	for k, v := range probeAlgo(newSpatial(seed)) {
		m[k] = v
	}
	return m
}

// probeKernel keeps the workload's pending depth of events in a private
// kernel, each rescheduling itself a few clock edges ahead, and times At
// plus dispatch per event.
func probeKernel(p probeParams) float64 {
	return timeReps(func() int {
		k := sim.NewKernel()
		rng := sim.NewRand(1)
		left := probeOps
		var fire func()
		fire = func() {
			if left--; left > 0 {
				k.At(k.Now()+p.clock*sim.Time(1+rng.Uint64n(16)), fire)
			}
		}
		for i := 0; i < p.pending; i++ {
			k.At(p.clock*sim.Time(1+rng.Uint64n(16)), fire)
		}
		k.Run()
		return probeOps + p.pending
	})
}

// probeMem times burst-sized reads and writes at random line-aligned
// addresses across a resident footprint of the workload's size.
func probeMem(p probeParams) (readNs, writeNs float64) {
	pm := mem.NewPhysMem(p.footprint)
	page := make([]byte, 4096)
	for a := uint64(0); a < p.footprint; a += uint64(len(page)) {
		pm.Write(mem.HPA(a), page)
	}
	buf := make([]byte, p.burst)
	lines := (p.footprint - uint64(p.burst)) / ccip.LineSize
	access := func(write bool) func() int {
		return func() int {
			rng := sim.NewRand(2)
			for i := 0; i < probeOps; i++ {
				a := mem.HPA(rng.Uint64n(lines+1) * ccip.LineSize)
				if write {
					pm.Write(a, buf)
				} else {
					pm.Read(a, buf)
				}
			}
			return probeOps
		}
	}
	return timeReps(access(false)), timeReps(access(true))
}

func tableLevels(pageSize uint64) int {
	if pageSize == mem.PageSize4K {
		return 4
	}
	return 3
}

// mapFootprint maps the footprint's pages into t, one page per frame.
func mapFootprint(t *pagetable.Table[mem.IOVA, mem.HPA], p probeParams) int {
	n := int(p.footprint / p.pageSize)
	for i := 0; i < n; i++ {
		a := uint64(i) * p.pageSize
		if err := t.Map(mem.IOVA(a), mem.HPA(a), pagetable.PermRW); err != nil {
			panic(err)
		}
	}
	return n
}

// probeTables times page mapping (whole footprints, repeated), lookups and
// IOMMU translations at random lines of the footprint: the IOTLB then hits
// and misses as the workload's working set makes it.
func probeTables(p probeParams) (mapNs, lookupNs, translateNs float64) {
	mapNs = timeReps(func() int {
		n := 0
		for n < probeOps/8 {
			n += mapFootprint(pagetable.New[mem.IOVA, mem.HPA](p.pageSize, tableLevels(p.pageSize)), p)
		}
		return n
	})
	t := pagetable.New[mem.IOVA, mem.HPA](p.pageSize, tableLevels(p.pageSize))
	mapFootprint(t, p)
	lines := p.footprint / ccip.LineSize
	lookupNs = timeReps(func() int {
		rng := sim.NewRand(3)
		for i := 0; i < probeOps; i++ {
			if _, ok := t.Lookup(mem.IOVA(rng.Uint64n(lines) * ccip.LineSize)); !ok {
				panic("probe: unmapped lookup")
			}
		}
		return probeOps
	})
	u := iommu.New(iommu.Config{}, t)
	translateNs = timeReps(func() int {
		rng := sim.NewRand(4)
		for i := 0; i < probeOps; i++ {
			if _, _, _, err := u.Translate(mem.IOVA(rng.Uint64n(lines)*ccip.LineSize), pagetable.PermRead); err != nil {
				panic(err)
			}
		}
		return probeOps
	})
	return mapNs, lookupNs, translateNs
}

// issuer keeps a window of burst-sized requests in flight through a port,
// in the workload's read/write mix, until its quota is spent.
type issuer struct {
	k     *sim.Kernel
	port  ccip.Port
	rng   *sim.Rand
	lines uint64 // address range in lines
	burst int    // lines per request
	share uint64 // writes per 1024 requests
	left  int
	rbuf  []byte
	wbuf  []byte
}

func (is *issuer) issue() {
	if is.left <= 0 {
		return
	}
	is.left--
	req := ccip.Request{
		Addr:  is.rng.Uint64n(is.lines-uint64(is.burst)+1) * ccip.LineSize,
		Lines: is.burst, VC: ccip.VCAuto, Issued: is.k.Now(), Comp: is,
	}
	if is.rng.Uint64n(1024) < is.share {
		req.Kind, req.Data = ccip.WrLine, is.wbuf
	} else {
		req.Kind, req.Dst = ccip.RdLine, is.rbuf
	}
	is.port.Issue(req)
}

// Complete implements ccip.Completer.
func (is *issuer) Complete(r ccip.Response) {
	if r.Err != nil {
		panic(r.Err)
	}
	is.issue()
}

// probePacket times requests from issue to completion on a private kernel
// and shell, through an auditor and the monitor tree when monitored.
func probePacket(p probeParams, monitored bool) float64 {
	const window = 8
	return timeReps(func() int {
		k := sim.NewKernel()
		cfg := ccip.DefaultConfig()
		cfg.PageSize = p.pageSize
		shell := ccip.NewShell(k, mem.NewPhysMem(p.footprint), cfg)
		mapFootprint(shell.IOMMU.Table(), p)
		var port ccip.Port = shell
		if monitored {
			mon, err := hwmon.New(k, shell, hwmon.Config{NumAccels: 1})
			if err != nil {
				panic(err)
			}
			if err := mon.SetWindow(0, 0, 0, p.footprint); err != nil {
				panic(err)
			}
			port = mon.AccelPort(0)
		}
		n := probeOps
		is := &issuer{
			k: k, port: port, rng: sim.NewRand(5), lines: p.footprint / ccip.LineSize,
			burst: p.burst / ccip.LineSize, share: uint64(p.writeShare * 1024), left: n,
			rbuf: make([]byte, p.burst), wbuf: make([]byte, p.burst),
		}
		for i := 0; i < window; i++ {
			is.issue()
		}
		k.Run()
		return n
	})
}

// probeAlgo calls each algorithm kernel the spatial accelerators use
// directly on the spatial workload's inputs for the seed.
func probeAlgo(w *spatial) map[string]float64 {
	first := map[string]*spatialJob{}
	for _, jobs := range w.jobs {
		for _, j := range jobs {
			if first[j.app] == nil {
				first[j.app] = j
			}
		}
	}
	perByte := func(bytes int, fn func()) float64 {
		return timeReps(func() int { fn(); return 1 }) / float64(bytes)
	}
	m := map[string]float64{}

	j := first["AES"]
	c, err := aes.New(j.in2)
	if err != nil {
		panic(err)
	}
	buf := make([]byte, len(j.in))
	m["algo.aes.ns_per_byte"] = perByte(len(j.in), func() {
		copy(buf, j.in)
		if err := c.EncryptECB(buf); err != nil {
			panic(err)
		}
	})
	j = first["MD5"]
	m["algo.md5.ns_per_byte"] = perByte(len(j.in), func() { md5.Sum(j.in) })
	j = first["SHA"]
	m["algo.sha512.ns_per_byte"] = perByte(len(j.in), func() { sha512.Sum(j.in) })

	j = first["FIR"]
	in := make([]int32, len(j.in)/4)
	for i := range in {
		in[i] = int32(binary.LittleEndian.Uint32(j.in[4*i:]))
	}
	out := make([]int32, len(in))
	m["algo.fir.ns_per_byte"] = perByte(len(j.in), func() {
		f, err := fir.New(fir.LowPass(firTaps))
		if err != nil {
			panic(err)
		}
		if err := f.Process(out, in); err != nil {
			panic(err)
		}
	})
	j = first["GRN"]
	m["algo.grn.ns_per_byte"] = perByte(4*len(out), func() {
		g := grn.New(j.seed)
		for i := 0; i < len(out); i += grnChunk {
			g.FillQ15(out[i:i+grnChunk], grnStddev)
		}
	})

	j = first["RSD"]
	code, err := reedsolomon.New(255, 223)
	if err != nil {
		panic(err)
	}
	m["algo.reedsolomon.ns_per_byte"] = perByte(len(j.in), func() {
		for off := 0; off < len(j.in); off += 256 {
			if _, _, err := code.Decode(append([]byte(nil), j.in[off:off+255]...)); err != nil {
				panic(err)
			}
		}
	})
	j = first["SW"]
	m["algo.smithwaterman.ns_per_byte"] = perByte(2*len(j.in), func() {
		for p := 0; p < swPairs; p++ {
			smithwaterman.Score(j.in[p*swLen:(p+1)*swLen], j.in2[p*swLen:(p+1)*swLen], smithwaterman.DefaultScoring())
		}
	})
	gau, sbl := first["GAU"], first["SBL"]
	m["algo.imgfilter.ns_per_byte"] = perByte(len(gau.in)+len(sbl.in), func() {
		imgfilter.Gaussian(&imgfilter.Gray{W: imgWidth, H: imgHeight, Pix: gau.in})
		imgfilter.Sobel(&imgfilter.Gray{W: imgWidth, H: imgHeight, Pix: sbl.in})
	})
	j = first["BTC"]
	var target [32]byte
	copy(target[:], j.in2)
	_, _, hashes := bitcoin.Mine(j.in, target, 0, btcCount)
	m["algo.bitcoin.ns_per_byte"] = perByte(int(hashes)*bitcoin.HeaderSize, func() { bitcoin.Mine(j.in, target, 0, btcCount) })
	return m
}
