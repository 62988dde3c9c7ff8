// Package pagetable implements the address-translation structures used by
// the platform: guest MMU page tables (GVA→GPA), extended page tables
// (GPA→HPA), and the single IO page table (IOVA→HPA) that OPTIMUS slices
// among virtual accelerators.
//
// Tables are modelled as radix translations keyed by virtual page number
// with an explicit walk-depth cost, rather than as bytes in simulated
// memory: what the evaluation depends on is mapping semantics, permission
// checks, and the number of memory references a hardware walker performs.
// Entries carry no accessed/dirty bits, since nothing in the model reads
// them, so translation never writes the table.
//
// Every table is owned by the one goroutine that drives its platform's
// event kernel, so it has no lock. The only cross-goroutine access is
// read-only: clones of a published template copy its tables concurrently.
//
// A Table is generic over the address space it translates from (V) and to
// (P): the guest MMU is a Table[mem.GVA, mem.GPA], the EPT a
// Table[mem.GPA, mem.HPA], and the IO page table a Table[mem.IOVA,
// mem.HPA]. The type parameters make it a compile error to walk a table
// with an address from the wrong space — the property the addrspace
// analyzer extends to raw-uint64 leakage.
package pagetable

import (
	"errors"
	"fmt"
	"maps"

	"optimus/internal/mem"
)

// Perm is a page permission bitmask.
type Perm uint8

// Permission bits.
const (
	PermRead Perm = 1 << iota
	PermWrite
	PermExec
	PermRW = PermRead | PermWrite
)

// String renders the permission set as e.g. "rw-".
func (p Perm) String() string {
	b := []byte("---")
	if p&PermRead != 0 {
		b[0] = 'r'
	}
	if p&PermWrite != 0 {
		b[1] = 'w'
	}
	if p&PermExec != 0 {
		b[2] = 'x'
	}
	return string(b)
}

// Translation errors.
var (
	ErrNotMapped  = errors.New("pagetable: address not mapped")
	ErrPermission = errors.New("pagetable: permission denied")
	ErrExists     = errors.New("pagetable: page already mapped")
	ErrMisaligned = errors.New("pagetable: misaligned address")
)

// Entry is one page mapping into the P address space.
type Entry[P mem.Addr] struct {
	PA   P
	Perm Perm
}

// Levels returns the radix depth a hardware walker traverses for the given
// page size: 3 for 2 MB (and larger) pages, 4 for 4 KB pages, as on x86-64.
func Levels(pageSize uint64) int {
	if pageSize >= mem.PageSize2M {
		return 3
	}
	return 4
}

// Table maps virtual page numbers in the V space to Entries in the P space
// for a single page size. It has no lock and translation is read-only (see
// the package comment).
//
//optimus:state
type Table[V, P mem.Addr] struct {
	pageSize uint64
	levels   int
	entries  map[uint64]Entry[P]
}

// New returns a table for the given page size. levels is the radix depth a
// hardware walker traverses (see Levels); it is exposed so the IOMMU can
// charge the correct number of memory references per walk.
func New[V, P mem.Addr](pageSize uint64, levels int) *Table[V, P] {
	if pageSize == 0 || pageSize&(pageSize-1) != 0 {
		panic(fmt.Sprintf("pagetable: page size %d not a power of two", pageSize))
	}
	if levels <= 0 {
		panic("pagetable: levels must be positive")
	}
	return &Table[V, P]{pageSize: pageSize, levels: levels, entries: make(map[uint64]Entry[P])}
}

// PageSize returns the table's page size.
func (t *Table[V, P]) PageSize() uint64 { return t.pageSize }

// WalkLevels returns the radix depth of a hardware walk of this table.
func (t *Table[V, P]) WalkLevels() int { return t.levels }

// Len returns the number of mapped pages.
func (t *Table[V, P]) Len() int { return len(t.entries) }

func (t *Table[V, P]) vpn(va V) uint64 { return uint64(va) / t.pageSize }

// Map installs va→pa with the given permissions. Both addresses must be
// page-aligned. Mapping an already-mapped page returns ErrExists (callers
// that want replace semantics unmap first — matching IOMMU driver rules).
func (t *Table[V, P]) Map(va V, pa P, perm Perm) error {
	if !mem.Aligned(va, t.pageSize) || !mem.Aligned(pa, t.pageSize) {
		return fmt.Errorf("%w: va=%#x pa=%#x pagesize=%#x", ErrMisaligned, va, pa, t.pageSize)
	}
	vpn := t.vpn(va)
	if _, ok := t.entries[vpn]; ok {
		return fmt.Errorf("%w: va=%#x", ErrExists, va)
	}
	t.entries[vpn] = Entry[P]{PA: pa, Perm: perm}
	return nil
}

// Unmap removes the mapping containing va.
func (t *Table[V, P]) Unmap(va V) error {
	vpn := t.vpn(va)
	if _, ok := t.entries[vpn]; !ok {
		return fmt.Errorf("%w: va=%#x", ErrNotMapped, va)
	}
	delete(t.entries, vpn)
	return nil
}

// Lookup returns the entry for the page containing va: one map probe, the
// walk an IOTLB miss performs.
//
//optimus:hotpath
func (t *Table[V, P]) Lookup(va V) (Entry[P], bool) {
	e, ok := t.entries[t.vpn(va)]
	return e, ok
}

// Translate performs a hardware-style translation of va for an access with
// the given required permissions. It returns the physical address
// corresponding to va (page base plus offset).
func (t *Table[V, P]) Translate(va V, req Perm) (P, error) {
	e, ok := t.Lookup(va)
	if !ok {
		return 0, fmt.Errorf("%w: va=%#x", ErrNotMapped, va)
	}
	if e.Perm&req != req {
		return 0, fmt.Errorf("%w: va=%#x have=%v want=%v", ErrPermission, va, e.Perm, req)
	}
	return e.PA + P(mem.PageOff(va, t.pageSize)), nil
}

// CopyFrom replaces t's mappings with a copy of src's; src is only read.
// Both tables must have been built with the same geometry. Used by
// hypervisor cloning.
func (t *Table[V, P]) CopyFrom(src *Table[V, P]) {
	if t.pageSize != src.pageSize || t.levels != src.levels {
		panic(fmt.Sprintf("pagetable: CopyFrom geometry mismatch (%d/%d vs %d/%d)",
			t.pageSize, t.levels, src.pageSize, src.levels))
	}
	t.entries = maps.Clone(src.entries)
}
