// Package iommu models the HARP platform's IO memory management unit: the
// single IO page table available to the FPGA, and the IO translation
// lookaside buffer (IOTLB) whose geometry drives several of the paper's
// headline results.
//
// Per §5 ("IOTLB Conflict Mitigation") the IOTLB is modelled as a
// direct-mapped cache of 512 sets indexed by the 9 virtual-address bits
// immediately above the page offset: bits 21–29 for 2 MB pages, bits 12–20
// for 4 KB pages. Two pages p1, p2 conflict iff p1 ≡ p2 (mod 2^9) in page
// numbers. With 2 MB pages the TLB therefore reaches 512 × 2 MB = 1 GB of
// conflict-free address space — the cliff visible in Figures 5 and 6.
//
// The HARP IOMMU is soft IP in the FPGA shell, not integrated into the CPU,
// so a miss walks the IO page table across the system interconnect; the
// walk penalty here is correspondingly large and configurable.
package iommu

import (
	"fmt"

	"optimus/internal/mem"
	"optimus/internal/pagetable"
	"optimus/internal/sim"
)

// DefaultSets is the number of IOTLB sets on HARP (one entry per set).
const DefaultSets = 512

// regionBits is log2 of the speculative region's size (2 MB).
const regionBits = 21

// Config parameterizes the IOMMU model.
type Config struct {
	// Sets is the number of direct-mapped IOTLB sets (default 512).
	Sets int
	// WalkLatency is the penalty of an IOTLB miss: the soft IOMMU fetches
	// the IO page table entry from host memory over the interconnect.
	WalkLatency sim.Time
	// Integrated models the paper's proposed fix (§6.4): a CPU-integrated
	// IOMMU whose walker does not cross the interconnect. It divides the
	// walk latency by 4.
	Integrated bool
	// SpeculativeRegion enables the observed IOTLB pipeline optimization
	// (§6.5): accesses that stay within the same 2 MB region as the
	// previous access bypass the translation pipeline.
	SpeculativeRegion bool
}

func (c Config) withDefaults() Config {
	if c.Sets == 0 {
		c.Sets = DefaultSets
	}
	if c.WalkLatency == 0 {
		c.WalkLatency = 500 * sim.Nanosecond
	}
	return c
}

type tlbEntry struct {
	valid bool
	vpn   uint64                   // full virtual page number (tag includes set index bits)
	pte   pagetable.Entry[mem.HPA] // physical page base and permissions
}

// Stats counts IOMMU events.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64 // misses that displaced a valid, different entry
	SpecHits  uint64 // speculative same-region fast-path hits
	Faults    uint64 // translation faults (unmapped / permission)
}

// HitRate returns hits / (hits + misses), counting speculative hits as hits.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses + s.SpecHits
	if total == 0 {
		return 0
	}
	return float64(s.Hits+s.SpecHits) / float64(total)
}

// IOMMU translates IO virtual addresses for device DMAs using one IO page
// table — the platform constraint that motivates page table slicing.
type IOMMU struct {
	cfg   Config
	iopt  *pagetable.Table[mem.IOVA, mem.HPA]
	sets  []tlbEntry
	stats Stats

	lastRegion    uint64 // last translated 2 MB region number + 1 (0 = none)
	lastRegionPTE pagetable.Entry[mem.HPA]
}

// New returns an IOMMU using the given IO page table.
func New(cfg Config, iopt *pagetable.Table[mem.IOVA, mem.HPA]) *IOMMU {
	cfg = cfg.withDefaults()
	return &IOMMU{cfg: cfg, iopt: iopt, sets: make([]tlbEntry, cfg.Sets)}
}

// Table returns the active IO page table.
func (u *IOMMU) Table() *pagetable.Table[mem.IOVA, mem.HPA] { return u.iopt }

// Integrated reports whether the IOMMU walker is CPU-integrated — its page
// walks then use the CPU cache hierarchy instead of crossing the system
// interconnect, so they consume no FPGA link bandwidth.
func (u *IOMMU) Integrated() bool { return u.cfg.Integrated }

// Stats returns a copy of the accumulated statistics.
func (u *IOMMU) Stats() Stats { return u.stats }

// setIndex computes the direct-mapped set for a virtual page number.
func (u *IOMMU) setIndex(vpn uint64) int { return int(vpn % uint64(len(u.sets))) }

// walkCost is the simulated duration of one page-table walk.
func (u *IOMMU) walkCost() sim.Time {
	// A walk touches WalkLevels() table levels; the dominant cost on HARP is
	// crossing the interconnect, charged once per level for a soft IOMMU.
	levels := sim.Time(u.iopt.WalkLevels())
	lat := u.cfg.WalkLatency * levels / 3 // calibrated so a 3-level walk costs WalkLatency
	if u.cfg.Integrated {
		lat /= 4
	}
	return lat
}

// Translate translates iova for an access requiring perm. It returns the
// host physical address, the added translation latency (zero on a TLB hit),
// and whether the speculative same-region fast path applied. A miss probes
// the IO page table once; a fault installs no IOTLB entry.
//
//optimus:hotpath
func (u *IOMMU) Translate(iova mem.IOVA, perm pagetable.Perm) (hpa mem.HPA, delay sim.Time, spec bool, err error) {
	ps := u.iopt.PageSize()
	// Same 2 MB region as the previous access: the pipeline's speculation
	// holds and translation costs nothing. Only exact when a page covers
	// the whole region, so 4 KB pages never take the fast path.
	if u.cfg.SpeculativeRegion && ps >= 1<<regionBits &&
		uint64(iova)>>regionBits+1 == u.lastRegion && u.lastRegionPTE.Perm&perm == perm {
		u.stats.SpecHits++
		return u.lastRegionPTE.PA + mem.HPA(mem.PageOff(iova, ps)), 0, true, nil
	}

	vpn := uint64(iova) / ps
	e := &u.sets[u.setIndex(vpn)]
	hit := e.valid && e.vpn == vpn
	pte, mapped := e.pte, hit
	if !hit {
		// Miss: walk the IO page table across the interconnect.
		u.stats.Misses++
		delay = u.walkCost()
		pte, mapped = u.iopt.Lookup(iova)
	}
	if !mapped || pte.Perm&perm != perm {
		return 0, delay, false, u.fault(iova, perm, pte.Perm, mapped, hit)
	}
	if hit {
		u.stats.Hits++
	} else {
		if e.valid {
			u.stats.Evictions++
		}
		*e = tlbEntry{valid: true, vpn: vpn, pte: pte}
	}
	u.lastRegion = uint64(iova)>>regionBits + 1
	u.lastRegionPTE = pte
	return pte.PA + mem.HPA(mem.PageOff(iova, ps)), delay, false, nil
}

// fault counts a translation fault and builds its error: a permission
// fault on an IOTLB hit, or an unmapped page or a permission fault found
// by the walk. Faults are the error path, not the hot path, so the
// formatted error may allocate.
func (u *IOMMU) fault(iova mem.IOVA, want, have pagetable.Perm, mapped, hit bool) error {
	u.stats.Faults++
	switch {
	case hit:
		return fmt.Errorf("iommu: %w at iova %#x", pagetable.ErrPermission, iova)
	case !mapped:
		return fmt.Errorf("iommu: %w: va=%#x", pagetable.ErrNotMapped, iova)
	default:
		return fmt.Errorf("iommu: %w: va=%#x have=%v want=%v", pagetable.ErrPermission, iova, have, want)
	}
}

// Invalidate drops any IOTLB entry covering iova; the hypervisor issues it
// after unmapping or remapping an IOPT entry. The speculative region
// register is also cleared.
func (u *IOMMU) Invalidate(iova mem.IOVA) {
	vpn := uint64(iova) / u.iopt.PageSize()
	e := &u.sets[u.setIndex(vpn)]
	if e.valid && e.vpn == vpn {
		e.valid = false
	}
	u.lastRegion = 0
}

// FlushAll invalidates the entire IOTLB (VM context switch, table swap).
func (u *IOMMU) FlushAll() {
	for i := range u.sets {
		u.sets[i].valid = false
	}
	u.lastRegion = 0
}

// Conflicts reports whether two IO virtual addresses map to the same IOTLB
// set — the predicate behind the paper's slice-gap mitigation (two pages
// conflict iff their page numbers are congruent mod 2^9).
func (u *IOMMU) Conflicts(iovaA, iovaB mem.IOVA) bool {
	ps := u.iopt.PageSize()
	return u.setIndex(uint64(iovaA)/ps) == u.setIndex(uint64(iovaB)/ps)
}

// Reach returns the bytes of address space the IOTLB can hold without
// conflicts (sets × page size): 1 GB for 2 MB pages, 2 MB for 4 KB pages.
func (u *IOMMU) Reach() uint64 { return uint64(len(u.sets)) * u.iopt.PageSize() }
