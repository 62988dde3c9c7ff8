package ccip

import (
	"errors"

	"optimus/internal/chaos"
	"optimus/internal/iommu"
	"optimus/internal/mem"
	"optimus/internal/obs"
	"optimus/internal/pagetable"
	"optimus/internal/sim"
)

// ErrInjectedFault is the terminal error of an injected translation fault
// whose bounded retries were all re-faulted (chaos.Config.MaxRetries).
var ErrInjectedFault = errors.New("ccip: translation failed after injected-fault retries")

// LinkConfig describes one physical link.
type LinkConfig struct {
	Name string
	// ReadLatency is the unloaded round-trip latency of a line read
	// (request out, data back, including DRAM access).
	ReadLatency sim.Time
	// WriteLatency is the unloaded completion latency of a posted write.
	WriteLatency sim.Time
	// ReadGBps / WriteGBps are the link's sustainable data bandwidths in
	// decimal GB/s per direction.
	ReadGBps  float64
	WriteGBps float64
}

// Config describes the shell's link set and IOMMU.
//
// The default values are calibrated (see DESIGN.md §4) so that the
// reproduction lands in the paper's reported ranges: LinkedList pass-through
// latency ≈ 410 ns on UPI and ≈ 900 ns on PCIe (so the +100 ns multiplexer
// tree yields Fig. 4a's 124%/111%), and aggregate read bandwidth ≈ 14.2 GB/s
// (so OPTIMUS's 12.8 GB/s injection ceiling yields Fig. 4b's 90.1% for
// MemBench).
type Config struct {
	UPI, PCIe0, PCIe1 LinkConfig
	IOMMU             iommu.Config
	// PageSize selects 4 KB or 2 MB IO page tables (default 2 MB).
	PageSize uint64
	// Seed drives the channel selector's tie-breaking.
	Seed uint64
}

// DefaultConfig returns the calibrated HARP-like configuration.
func DefaultConfig() Config {
	return Config{
		UPI: LinkConfig{
			Name:        "UPI",
			ReadLatency: 410 * sim.Nanosecond, WriteLatency: 320 * sim.Nanosecond,
			ReadGBps: 6.2, WriteGBps: 5.6,
		},
		PCIe0: LinkConfig{
			Name:        "PCIe0",
			ReadLatency: 900 * sim.Nanosecond, WriteLatency: 650 * sim.Nanosecond,
			ReadGBps: 4.0, WriteGBps: 3.2,
		},
		PCIe1: LinkConfig{
			Name:        "PCIe1",
			ReadLatency: 900 * sim.Nanosecond, WriteLatency: 650 * sim.Nanosecond,
			ReadGBps: 4.0, WriteGBps: 3.2,
		},
		IOMMU:    iommu.Config{SpeculativeRegion: true},
		PageSize: mem.PageSize2M,
	}
}

// link is a single physical link with independent read and write servers.
type link struct {
	cfg LinkConfig
	// nextFreeRd/Wr are the times the directional servers become free.
	nextFreeRd, nextFreeWr sim.Time
	perLineRd, perLineWr   sim.Time
	bytesRd, bytesWr       uint64
}

func newLink(cfg LinkConfig) *link {
	return &link{
		cfg:       cfg,
		perLineRd: sim.Time(float64(LineSize) / (cfg.ReadGBps * 1e9) * float64(sim.Second)),
		perLineWr: sim.Time(float64(LineSize) / (cfg.WriteGBps * 1e9) * float64(sim.Second)),
	}
}

// queueDepth estimates the link's backlog for the selector, in time.
func (l *link) queueDepth(now sim.Time, kind Kind) sim.Time {
	nf := l.nextFreeRd
	if kind == WrLine {
		nf = l.nextFreeWr
	}
	if nf < now {
		return 0
	}
	return nf - now
}

// serve occupies the directional server for lines data lines plus walkLines
// of page-walk traffic, returning the completion time of the transfer.
func (l *link) serve(now sim.Time, kind Kind, lines, walkLines int) (completion sim.Time) {
	switch kind {
	case RdLine:
		per := l.perLineRd
		start := now
		if l.nextFreeRd > start {
			start = l.nextFreeRd
		}
		busy := per * sim.Time(lines+walkLines)
		l.nextFreeRd = start + busy
		l.bytesRd += uint64(lines) * LineSize
		return start + busy + l.cfg.ReadLatency
	default:
		per := l.perLineWr
		start := now
		if l.nextFreeWr > start {
			start = l.nextFreeWr
		}
		busy := per * sim.Time(lines+walkLines)
		l.nextFreeWr = start + busy
		l.bytesWr += uint64(lines) * LineSize
		return start + busy + l.cfg.WriteLatency
	}
}

// ShellStats aggregates shell-level counters.
type ShellStats struct {
	Reads, Writes     uint64 // completed requests
	BytesRead         uint64
	BytesWritten      uint64
	Faults            uint64
	PerChannelRdBytes map[string]uint64
	PerChannelWrBytes map[string]uint64
}

// Shell is the manufacturer-provided IO interface of the FPGA: it owns the
// links, the channel selector, and the (soft) IOMMU, and it fronts host
// physical memory. FPGA-side logic issues requests through Port.
type Shell struct {
	K     *sim.Kernel
	Mem   *mem.PhysMem
	IOMMU *iommu.IOMMU

	cfg   Config
	links [3]*link // indexed by Channel-1
	rng   *sim.Rand
	stats ShellStats
	tr    *obs.Tracer // nil = tracing disabled
	chaos *chaos.Plan // nil = fault injection disabled

	// tagged marks that requests reaching the shell carry auditor-assigned
	// transaction tags, enabling span ids on IOTLB trace records. Left unset
	// on pass-through platforms, whose zero-value tags are indistinguishable
	// from slot 0's real ones — their records stay unlinked (span 0).
	tagged bool

	// opFree is the completion-record freelist: records cycle from Issue to
	// their scheduled completion event and back, so the steady-state packet
	// path performs no heap allocation (hotalloc enforces this statically,
	// BenchmarkPacketPath dynamically).
	opFree []*shellOp
}

// hpaSeg is one physically-contiguous run of a request's cache lines:
// lines [firstLine, nextSeg.firstLine) live at base + (i-firstLine)*64.
// Contiguous bursts touch at most two pages, so two inline segments cover
// every ordinary request; scattered multi-page DMAs (preemption state)
// spill into a retained slice.
type hpaSeg struct {
	firstLine int
	base      mem.HPA
}

// shellOp is the pooled per-request completion record: the state the old
// completion closure captured, carried by value, plus a fire closure built
// once per record (it captures only the record pointer) and reused across
// recycles.
type shellOp struct {
	s    *Shell
	fire func()

	kind   Kind
	addr   uint64
	tag    Tag
	vc     Channel
	lines  int
	issued sim.Time
	data   []byte // write payload, borrowed from the request until completion
	dst    []byte // caller-provided read destination (zero-copy opt-in)
	// discard marks a timing-only read: bounds-check, copy nothing.
	discard bool
	done    func(Response)
	comp    Completer
	err     error // translation fault: deliver an error response, skip memory

	segs     [2]hpaSeg
	nsegs    int
	segSpill []hpaSeg

	// Chaos state, zero on every clean request. seq is the record's recycle
	// generation: putOp bumps it, so a stale event holding (record, seq) can
	// detect that the record has moved on — the guard that makes injected
	// duplicate completions suppressible by construction.
	chaosClass chaos.Class
	chaosDone  bool     // wire fault already taken; next fire is the redelivery
	attempt    uint8    // injected-translation-fault retries performed
	delay      sim.Time // extra latency accumulated recovering injected faults
	seq        uint64
}

func (s *Shell) getOp() *shellOp {
	if n := len(s.opFree); n > 0 {
		op := s.opFree[n-1]
		s.opFree[n-1] = nil
		s.opFree = s.opFree[:n-1]
		return op
	}
	op := &shellOp{s: s}
	op.fire = op.run
	return op
}

func (s *Shell) putOp(op *shellOp) {
	op.data, op.dst = nil, nil
	op.discard = false
	op.done, op.comp = nil, nil
	op.err = nil
	op.nsegs = 0
	op.segSpill = op.segSpill[:0]
	op.chaosClass = chaos.ClassNone
	op.chaosDone = false
	op.attempt = 0
	op.delay = 0
	op.seq++
	s.opFree = append(s.opFree, op)
}

// addSeg records that the physically-contiguous run starting at line i is
// based at hpa.
func (op *shellOp) addSeg(i int, hpa mem.HPA) {
	if op.nsegs < len(op.segs) {
		op.segs[op.nsegs] = hpaSeg{firstLine: i, base: hpa}
	} else {
		op.segSpill = append(op.segSpill, hpaSeg{firstLine: i, base: hpa})
	}
	op.nsegs++
}

// seg returns segment i, transparently crossing from the inline array into
// the spill slice.
func (op *shellOp) seg(i int) hpaSeg {
	if i < len(op.segs) {
		return op.segs[i]
	}
	return op.segSpill[i-len(op.segs)]
}

// run is the completion event: perform the functional memory access,
// assemble the response, recycle the record, and deliver. The record is
// returned to the pool before delivery so a completion target that issues
// a new request synchronously reuses it immediately.
//
//optimus:hotpath
func (op *shellOp) run() {
	s := op.s
	if op.chaosClass != chaos.ClassNone && s.chaosIntercept(op) {
		return
	}
	resp := Response{Kind: op.kind, Addr: op.addr, Tag: op.tag, VC: op.vc,
		Err: op.err, Latency: s.K.Now() - op.issued}
	if op.err == nil {
		switch op.kind {
		case RdLine:
			if op.discard {
				op.readLines(nil)
			} else {
				resp.Data = op.readInto(op.dst)
			}
			s.stats.Reads++
			s.stats.BytesRead += uint64(op.lines) * LineSize
		case WrLine:
			op.writeLines()
			s.stats.Writes++
			s.stats.BytesWritten += uint64(op.lines) * LineSize
		}
	}
	done, comp := op.done, op.comp
	s.putOp(op)
	if comp != nil {
		comp.Complete(resp)
	} else {
		done(resp)
	}
}

// readInto performs the functional line reads into dst (allocating a fresh
// buffer when the issuer did not opt into zero-copy) and returns the filled
// payload.
func (op *shellOp) readInto(dst []byte) []byte {
	n := op.lines * LineSize
	if dst == nil {
		dst = make([]byte, n)
	} else {
		dst = dst[:n]
	}
	op.readLines(dst)
	return dst
}

// readLines reads every line of the request into dst. With dst nil (a
// timing-only read) it makes only the bounds check each line's Read would
// make, so an out-of-range read panics exactly as a data-carrying one does.
//
//optimus:hotpath
func (op *shellOp) readLines(dst []byte) {
	for si := 0; si < op.nsegs; si++ {
		seg := op.seg(si)
		end := op.lines
		if si+1 < op.nsegs {
			end = op.seg(si + 1).firstLine
		}
		for i := seg.firstLine; i < end; i++ {
			hpa := seg.base + mem.HPA(i-seg.firstLine)*LineSize
			if dst == nil {
				op.s.Mem.Touch(hpa, LineSize)
			} else {
				op.s.Mem.Read(hpa, dst[i*LineSize:(i+1)*LineSize])
			}
		}
	}
}

// writeLines performs the functional line writes of the request payload.
//
//optimus:hotpath
func (op *shellOp) writeLines() {
	for si := 0; si < op.nsegs; si++ {
		seg := op.seg(si)
		end := op.lines
		if si+1 < op.nsegs {
			end = op.seg(si + 1).firstLine
		}
		for i := seg.firstLine; i < end; i++ {
			hpa := seg.base + mem.HPA(i-seg.firstLine)*LineSize
			op.s.Mem.Write(hpa, op.data[i*LineSize:(i+1)*LineSize])
		}
	}
}

// NewShell builds a shell over the given kernel and memory. The IO page
// table is created here — there is exactly one per platform, which is the
// constraint page table slicing works around.
func NewShell(k *sim.Kernel, m *mem.PhysMem, cfg Config) *Shell {
	if cfg.PageSize == 0 {
		cfg.PageSize = mem.PageSize2M
	}
	iopt := pagetable.New[mem.IOVA, mem.HPA](cfg.PageSize, pagetable.Levels(cfg.PageSize))
	s := &Shell{
		K:     k,
		Mem:   m,
		IOMMU: iommu.New(cfg.IOMMU, iopt),
		cfg:   cfg,
		rng:   sim.NewRand(cfg.Seed ^ 0x5e11),
	}
	s.links[VCUPI-1] = newLink(cfg.UPI)
	s.links[VCPCIe0-1] = newLink(cfg.PCIe0)
	s.links[VCPCIe1-1] = newLink(cfg.PCIe1)
	s.stats.PerChannelRdBytes = make(map[string]uint64)
	s.stats.PerChannelWrBytes = make(map[string]uint64)
	return s
}

// Config returns the shell configuration.
func (s *Shell) Config() Config { return s.cfg }

// SetTracer attaches tr to the shell's IOTLB classification path (nil
// disables tracing).
func (s *Shell) SetTracer(tr *obs.Tracer) { s.tr = tr }

// SetTagged declares whether requests carry auditor-assigned tags (see the
// tagged field). The hypervisor sets it when assembling a monitored
// platform.
func (s *Shell) SetTagged(on bool) { s.tagged = on }

// SetChaos arms fault injection on the shell's DMA path (nil disables it).
// Like the tracer, the disabled path costs one branch per request and
// allocates nothing; injection paths are allowed to allocate.
func (s *Shell) SetChaos(p *chaos.Plan) { s.chaos = p }

// Chaos returns the armed fault-injection plan, or nil.
func (s *Shell) Chaos() *chaos.Plan { return s.chaos }

// Stats returns a copy of the shell counters.
func (s *Shell) Stats() ShellStats {
	st := s.stats
	st.PerChannelRdBytes = make(map[string]uint64, len(s.links))
	st.PerChannelWrBytes = make(map[string]uint64, len(s.links))
	for _, l := range s.links {
		st.PerChannelRdBytes[l.cfg.Name] = l.bytesRd
		st.PerChannelWrBytes[l.cfg.Name] = l.bytesWr
	}
	return st
}

// selectChannel implements the throughput-optimized automatic selector: it
// weights links by bandwidth and prefers the one with the shortest backlog,
// breaking near-ties pseudo-randomly. Latency is not considered — which is
// exactly why latency-sensitive workloads pin the channel. The jitter draw
// comes from the shell's own xorshift generator (sim.Rand, seeded from
// Config.Seed at construction): one inlined xoshiro256** step per link, no
// global RNG, no locking, no allocation.
//
//optimus:hotpath
func (s *Shell) selectChannel(kind Kind, want Channel) Channel {
	if want != VCAuto {
		return want
	}
	now := s.K.Now()
	best := VCUPI
	bestScore := float64(0)
	for vc := VCUPI; vc <= VCPCIe1; vc++ {
		l := s.links[vc-1]
		bw := l.cfg.ReadGBps
		if kind == WrLine {
			bw = l.cfg.WriteGBps
		}
		backlog := l.queueDepth(now, kind).Seconds()
		// Score: bandwidth discounted by backlog, with jitter so unloaded
		// links are picked in bandwidth proportion rather than fixed order.
		score := bw / (1 + backlog*bw*1e9/LineSize) * (0.75 + 0.5*s.rng.Float64())
		if score > bestScore {
			bestScore = score
			best = vc
		}
	}
	return best
}

// Issue accepts a request at the shell boundary. Addr must already be an IO
// virtual address (the hardware monitor's auditors rewrite GVAs before the
// shell sees them; in pass-through mode GVA == IOVA).
//
// The lifecycle runs off a pooled completion record: translation results
// are stored as contiguous-HPA segments on the record (no per-request hpas
// slice), the single completion event is the record's pre-built fire
// closure, and the fault path reuses the same record with err set — nothing
// on this path captures variables or allocates in steady state.
//
//optimus:hotpath
func (s *Shell) Issue(req Request) {
	if err := req.Validate(); err != nil {
		panic(err)
	}
	now := s.K.Now()
	vc := s.selectChannel(req.Kind, req.VC)

	op := s.getOp()
	op.kind, op.addr, op.tag, op.vc = req.Kind, req.Addr, req.Tag, vc
	op.lines, op.issued = req.Lines, req.Issued
	op.data, op.dst, op.discard = req.Data, req.Dst, req.Discard
	op.done, op.comp = req.Done, req.Comp

	if s.chaos != nil && s.chaosArm(op, now) {
		return
	}
	s.translateAndServe(op, now)
}

// translateAndServe translates the request line by line and occupies the
// selected link. It is re-entered by the chaos translation-retry path, so it
// resets the record's segment state first.
//
//optimus:hotpath
func (s *Shell) translateAndServe(op *shellOp, now sim.Time) {
	op.nsegs = 0
	op.segSpill = op.segSpill[:0]
	l := s.links[op.vc-1]

	// Translate each line; contiguous bursts touch at most two pages.
	var xlat sim.Time
	walkLines := 0
	perm := pagetable.PermRead
	if op.kind == WrLine {
		perm = pagetable.PermWrite
	}
	prev := mem.HPA(0)
	tr := s.tr // hoisted: one load, not one per translated line
	var span uint32
	if tr != nil && s.tagged {
		span = obs.MkSpan(op.tag.AccelID, op.tag.Txn)
	}
	for i := 0; i < op.lines; i++ {
		iova := mem.IOVA(op.addr) + mem.IOVA(i)*LineSize
		hpa, d, spec, err := s.IOMMU.Translate(iova, perm)
		if err != nil {
			s.stats.Faults++
			tr.EmitSpan(now, obs.KindIOTLBFault, obs.Shell(), span, uint64(iova), 0)
			op.err = err
			s.K.After(d, op.fire)
			return
		}
		if tr != nil {
			// One classification record per line: the same hit/spec-hit/miss
			// taxonomy the IOMMU counts, with the walk delay as payload.
			k := obs.KindIOTLBHit
			if spec {
				k = obs.KindIOTLBSpecHit
			} else if d > 0 {
				k = obs.KindIOTLBMiss
			}
			tr.EmitSpan(now, k, obs.Shell(), span, uint64(iova), uint64(d))
		}
		if d > 0 {
			xlat += d
			if !s.IOMMU.Integrated() {
				// A soft-IOMMU walk fetches IOPT levels across the link,
				// consuming data bandwidth (§6.4).
				walkLines += s.IOMMU.Table().WalkLevels()
			}
		}
		if i == 0 || hpa != prev+LineSize {
			op.addSeg(i, hpa)
		}
		prev = hpa
	}

	// Occupy the link, then access memory functionally at completion.
	completion := l.serve(now+xlat, op.kind, op.lines, walkLines)
	s.K.At(completion, op.fire)
}

// chaosArm draws the fault plan for one request and, for translation
// faults, takes over the issue path. It reports whether the request was
// consumed. Injection paths may allocate — only the chaos-disabled path is
// held to the packet path's zero-alloc contract.
func (s *Shell) chaosArm(op *shellOp, now sim.Time) bool {
	c := s.chaos.DrawDMA()
	if c == chaos.ClassNone {
		return false
	}
	op.chaosClass = c
	s.chaos.NoteInjected(c)
	s.tr.Emit(now, obs.KindChaosFault, obs.Shell(), chaos.FaultPayload(c, false), op.addr)
	if c == chaos.ClassXlat {
		s.injectXlatFault(op)
		return true
	}
	return false
}

// injectXlatFault models a transient IOTLB/translation fault, hardened by
// bounded retry: the shell backs off exponentially and re-walks; each retry
// may fault again (plan.Repeat) until the budget is exhausted, at which
// point the request completes with ErrInjectedFault exactly like a real
// translation fault would.
func (s *Shell) injectXlatFault(op *shellOp) {
	s.stats.Faults++
	p := s.chaos
	d := p.Backoff(int(op.attempt))
	op.delay += d
	if int(op.attempt) >= p.MaxRetries() {
		p.NoteExhausted()
		op.err = ErrInjectedFault
		s.K.After(d, op.fire)
		return
	}
	op.attempt++
	p.NoteXlatRetry()
	s.K.After(d, func() { s.retryXlat(op) })
}

// retryXlat is one translation retry: it either faults again or proceeds
// down the normal translate-and-serve path.
func (s *Shell) retryXlat(op *shellOp) {
	if s.chaos.Repeat() {
		s.injectXlatFault(op)
		return
	}
	s.translateAndServe(op, s.K.Now())
}

// dupLag is how long after the real completion an injected duplicate fires.
const dupLag = 50 * sim.Nanosecond

// chaosIntercept runs at the completion event of a chaos-marked request.
// Wire faults (payload corruption caught by CRC, packets lost on the link)
// consume the first completion and schedule a retransmission over the same
// link; recovered requests are accounted against the plan, and duplicate
// completions are scheduled so the generation guard can suppress them. It
// reports whether delivery was deferred to a retransmission.
func (s *Shell) chaosIntercept(op *shellOp) bool {
	now := s.K.Now()
	p := s.chaos
	switch op.chaosClass {
	case chaos.ClassCorrupt, chaos.ClassDrop:
		if !op.chaosDone && op.err == nil {
			op.chaosDone = true
			p.NoteRetransmit()
			start := now
			if op.chaosClass == chaos.ClassDrop {
				// A drop is only noticed after the loss-detection timeout;
				// a corruption is caught on arrival and retransmitted at once.
				start += p.DropTimeout()
			}
			l := s.links[op.vc-1]
			completion := l.serve(start, op.kind, op.lines, 0)
			op.delay += completion - now
			s.K.At(completion, op.fire)
			return true
		}
	case chaos.ClassDup:
		if op.err == nil {
			s.scheduleDup(op)
		}
	}
	if op.err == nil {
		p.NoteRecovered(op.delay)
		s.tr.Emit(now, obs.KindChaosFault, obs.Shell(),
			chaos.FaultPayload(op.chaosClass, true), op.addr)
	}
	return false
}

// scheduleDup models a duplicated completion: the response event fires a
// second time shortly after the real delivery. The primary delivery recycles
// the record first — putOp bumps op.seq — so the stale event's captured seq
// never matches and the duplicate is suppressed by construction; issuers can
// never observe a request completing twice.
func (s *Shell) scheduleDup(op *shellOp) {
	seq := op.seq
	p := s.chaos
	s.K.After(dupLag, func() {
		if op.seq != seq {
			p.NoteDupSuppressed()
			return
		}
		panic("ccip: duplicated completion escaped the generation guard")
	})
}
