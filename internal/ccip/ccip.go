// Package ccip models the Core Cache Interface (CCI-P), the request/response
// memory interface that the HARP shell exposes to FPGA logic. CCI-P
// encapsulates one UPI link and two PCIe 3.0 links behind a single
// cache-line-granular read/write protocol: an accelerator sends a request
// packet and later receives a response packet, keeping multiple requests in
// flight to saturate bandwidth (§5, "FPGA Interface").
package ccip

import (
	"fmt"

	"optimus/internal/sim"
)

// LineSize is the CCI-P transfer granularity in bytes.
const LineSize = 64

// Kind distinguishes request types.
type Kind uint8

// Request kinds.
const (
	RdLine Kind = iota
	WrLine
)

func (k Kind) String() string {
	switch k {
	case RdLine:
		return "RdLine"
	case WrLine:
		return "WrLine"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Channel selects the physical link used for a request. VCAuto lets the
// shell's channel selector decide (optimized for throughput, not latency —
// the cause of LinkedList's unstable performance under automatic selection,
// §6.1).
type Channel uint8

// Channels.
const (
	VCAuto Channel = iota
	VCUPI
	VCPCIe0
	VCPCIe1
)

func (c Channel) String() string {
	switch c {
	case VCAuto:
		return "auto"
	case VCUPI:
		return "UPI"
	case VCPCIe0:
		return "PCIe0"
	case VCPCIe1:
		return "PCIe1"
	default:
		return fmt.Sprintf("Channel(%d)", uint8(c))
	}
}

// Tag identifies the issuing physical accelerator and transaction. The
// auditors stamp AccelID on outgoing requests and verify it on responses
// (§4.1, "Auditors"); a response whose AccelID does not match the auditor's
// accelerator is discarded.
type Tag struct {
	AccelID int
	Txn     uint64
}

// Completer receives a request's response without a per-request closure.
// Implementations are long-lived records (typically pooled): the pointer
// travels with the request through the auditor, the multiplexer tree, and
// the shell, and Complete is invoked exactly once when the response is
// delivered. This is the allocation-free alternative to Done — the record
// carries by value the state a Done closure would have captured.
type Completer interface {
	Complete(Response)
}

// Request is a DMA request packet. Addr is a virtual address: a guest
// virtual address when leaving the accelerator, rewritten to an IO virtual
// address by its auditor (page table slicing), and translated to a host
// physical address by the IOMMU inside the shell.
type Request struct {
	Kind  Kind
	Addr  uint64
	Lines int    // burst length in cache lines (>= 1)
	Data  []byte // write payload (Lines*LineSize bytes); nil for reads
	// Dst, if non-nil on a read, receives the read payload in place of a
	// freshly allocated buffer (it must hold Lines*LineSize bytes). The
	// response's Data aliases it, so the issuer must not reuse the buffer
	// until the completion fires. Zero-copy opt-in for pooled issuers.
	Dst []byte
	VC  Channel
	// Discard, on a read, marks the payload as unwanted: a timing-only
	// read. It is audited, translated, timed on the link and bounds-checked
	// against physical memory exactly like a data-carrying read, but no
	// bytes are copied and the response's Data is nil. For issuers that
	// throw the read data away (MemBench's bandwidth reads).
	Discard bool
	Tag     Tag
	// Issued is stamped by the issuing engine for latency accounting.
	Issued sim.Time
	// Done receives the response. Exactly one completion target — Done or
	// Comp — must be set.
	Done func(Response)
	// Comp receives the response when Done is nil (the pooled path).
	Comp Completer
}

// Response is a DMA response packet.
type Response struct {
	Kind Kind
	Addr uint64
	Tag  Tag
	Data []byte // read payload
	Err  error  // translation/protection fault, if any
	// Latency is the request's total round-trip time.
	Latency sim.Time
	// VC is the channel the request actually used.
	VC Channel
}

// Port is anything that accepts CCI-P requests: the shell itself
// (pass-through), an auditor, or a multiplexer tree node.
type Port interface {
	Issue(req Request)
}

// Bytes returns the size of the request's data transfer.
func (r Request) Bytes() uint64 { return uint64(r.Lines) * LineSize }

// Validate checks structural invariants of a request.
func (r Request) Validate() error {
	if r.Lines <= 0 {
		return fmt.Errorf("ccip: request with %d lines", r.Lines)
	}
	if r.Addr%LineSize != 0 {
		return fmt.Errorf("ccip: request address %#x not line-aligned", r.Addr)
	}
	if r.Kind == WrLine && len(r.Data) != int(r.Bytes()) {
		return fmt.Errorf("ccip: write with %d data bytes, want %d", len(r.Data), r.Bytes())
	}
	if r.Kind == RdLine && r.Dst != nil && len(r.Dst) < int(r.Bytes()) {
		return fmt.Errorf("ccip: read destination holds %d bytes, want %d", len(r.Dst), r.Bytes())
	}
	if r.Discard && (r.Kind != RdLine || r.Dst != nil) {
		return fmt.Errorf("ccip: discarding %v with destination %t", r.Kind, r.Dst != nil)
	}
	if r.Done == nil && r.Comp == nil {
		return fmt.Errorf("ccip: request without completion target")
	}
	return nil
}
