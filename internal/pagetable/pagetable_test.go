package pagetable

import (
	"errors"
	"testing"
	"testing/quick"

	"optimus/internal/mem"
)

// newGVAGPA is the guest-MMU-shaped table used by most tests.
func newGVAGPA(pageSize uint64, levels int) *Table[mem.GVA, mem.GPA] {
	return New[mem.GVA, mem.GPA](pageSize, levels)
}

func TestMapTranslateRoundTrip(t *testing.T) {
	pt := newGVAGPA(4096, 4)
	if err := pt.Map(0x1000, 0x20000, PermRW); err != nil {
		t.Fatal(err)
	}
	pa, err := pt.Translate(0x1234, PermRead)
	if err != nil {
		t.Fatal(err)
	}
	if pa != 0x20234 {
		t.Fatalf("pa = %#x, want 0x20234", pa)
	}
}

func TestTranslateUnmapped(t *testing.T) {
	pt := newGVAGPA(4096, 4)
	if _, err := pt.Translate(0x1000, PermRead); !errors.Is(err, ErrNotMapped) {
		t.Fatalf("err = %v, want ErrNotMapped", err)
	}
}

func TestPermissionEnforcement(t *testing.T) {
	pt := newGVAGPA(4096, 4)
	pt.Map(0x1000, 0x2000, PermRead)
	if _, err := pt.Translate(0x1000, PermWrite); !errors.Is(err, ErrPermission) {
		t.Fatalf("write to read-only page: err = %v", err)
	}
	if _, err := pt.Translate(0x1000, PermRead); err != nil {
		t.Fatalf("read of read-only page failed: %v", err)
	}
	if err := pt.Unmap(0x1000); err != nil {
		t.Fatal(err)
	}
	if err := pt.Map(0x1000, 0x2000, PermRW); err != nil {
		t.Fatal(err)
	}
	if _, err := pt.Translate(0x1000, PermWrite); err != nil {
		t.Fatalf("write after remapping RW failed: %v", err)
	}
}

func TestDoubleMapRejected(t *testing.T) {
	pt := newGVAGPA(4096, 4)
	pt.Map(0x1000, 0x2000, PermRW)
	if err := pt.Map(0x1000, 0x9000, PermRW); !errors.Is(err, ErrExists) {
		t.Fatalf("err = %v, want ErrExists", err)
	}
}

func TestMisalignedMapRejected(t *testing.T) {
	pt := newGVAGPA(4096, 4)
	if err := pt.Map(0x1001, 0x2000, PermRW); !errors.Is(err, ErrMisaligned) {
		t.Fatalf("err = %v, want ErrMisaligned", err)
	}
	if err := pt.Map(0x1000, 0x2001, PermRW); !errors.Is(err, ErrMisaligned) {
		t.Fatalf("err = %v, want ErrMisaligned", err)
	}
}

func TestUnmap(t *testing.T) {
	pt := newGVAGPA(4096, 4)
	pt.Map(0x1000, 0x2000, PermRW)
	if err := pt.Unmap(0x1000); err != nil {
		t.Fatal(err)
	}
	if _, err := pt.Translate(0x1000, PermRead); !errors.Is(err, ErrNotMapped) {
		t.Fatal("mapping survived Unmap")
	}
	if err := pt.Unmap(0x1000); !errors.Is(err, ErrNotMapped) {
		t.Fatalf("double unmap: err = %v", err)
	}
}

func TestHugePageTranslation(t *testing.T) {
	pt := newGVAGPA(2<<20, 3)
	pt.Map(0, 0x40000000, PermRW)
	pa, err := pt.Translate(0x12345, PermRead)
	if err != nil {
		t.Fatal(err)
	}
	if pa != 0x40012345 {
		t.Fatalf("pa = %#x", pa)
	}
	if pt.WalkLevels() != 3 {
		t.Fatal("walk levels")
	}
}

// Property: for any set of distinct pages mapped, Translate(va) ==
// pa_of_page + offset for all offsets.
func TestTranslateProperty(t *testing.T) {
	f := func(pages []uint16, offset uint16) bool {
		pt := newGVAGPA(4096, 4)
		mapped := make(map[mem.GVA]mem.GPA)
		for i, p := range pages {
			va := mem.GVA(p) * 4096
			pa := mem.GPA(i+1) * 0x100000
			if _, ok := mapped[va]; ok {
				continue
			}
			if err := pt.Map(va, pa, PermRW); err != nil {
				return false
			}
			mapped[va] = pa
		}
		off := uint64(offset) % 4096
		for va, pa := range mapped {
			got, err := pt.Translate(va+mem.GVA(off), PermRead)
			if err != nil || got != pa+mem.GPA(off) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestForEachAndLen(t *testing.T) {
	pt := newGVAGPA(4096, 4)
	want := map[mem.GVA]mem.GPA{0x1000: 0xa000, 0x3000: 0xb000, 0x7000: 0xc000}
	for va, pa := range want {
		pt.Map(va, pa, PermRead)
	}
	if pt.Len() != 3 {
		t.Fatalf("Len = %d", pt.Len())
	}
	for va, pa := range want {
		if e, ok := pt.Lookup(va + 0x10); !ok || e.PA != pa || e.Perm != PermRead {
			t.Fatalf("Lookup(%#x) = %+v, %v; want %#x→%#x r--", va+0x10, e, ok, va, pa)
		}
	}
	if _, ok := pt.Lookup(0x2000); ok {
		t.Fatal("Lookup found an unmapped page")
	}
}

func TestPermString(t *testing.T) {
	if PermRW.String() != "rw-" {
		t.Fatalf("PermRW = %q", PermRW.String())
	}
	if (PermRead | PermExec).String() != "r-x" {
		t.Fatal("r-x")
	}
	if Perm(0).String() != "---" {
		t.Fatal("---")
	}
}

// An address anywhere in a huge page resolves to that page's entry.
func TestPageBase(t *testing.T) {
	pt := newGVAGPA(2<<20, 3)
	pt.Map(0x200000, 0x40000000, PermRW)
	if e, ok := pt.Lookup(0x212345); !ok || e.PA != 0x40000000 {
		t.Fatalf("Lookup(0x212345) = %+v, %v; want the page at 0x200000", e, ok)
	}
	if _, ok := pt.Lookup(0x1fffff); ok {
		t.Fatal("Lookup(0x1fffff) found the next page's entry")
	}
}

func TestLevels(t *testing.T) {
	if got := Levels(mem.PageSize4K); got != 4 {
		t.Fatalf("Levels(4K) = %d, want 4", got)
	}
	if got := Levels(mem.PageSize2M); got != 3 {
		t.Fatalf("Levels(2M) = %d, want 3", got)
	}
}

// CopyFrom clones the entry map in one piece: its allocations do not grow
// with the number of mapped pages.
func TestCopyFromAllocsConstant(t *testing.T) {
	src := newGVAGPA(4096, 4)
	for i := uint64(0); i < 1024; i++ {
		src.Map(mem.GVA(i*4096), mem.GPA(0x100000+i*4096), PermRW)
	}
	dst := newGVAGPA(4096, 4)
	allocs := testing.AllocsPerRun(20, func() { dst.CopyFrom(src) })
	if allocs > 16 {
		t.Fatalf("CopyFrom of 1024 entries made %v allocations, want O(1)", allocs)
	}
	if dst.Len() != src.Len() {
		t.Fatalf("copy holds %d pages, want %d", dst.Len(), src.Len())
	}
	if pa, err := dst.Translate(1023*4096+8, PermWrite); err != nil || pa != 0x100000+1023*4096+8 {
		t.Fatalf("copy translates last page to %#x, %v", pa, err)
	}
}

func BenchmarkTranslate(b *testing.B) {
	pt := newGVAGPA(4096, 4)
	for i := uint64(0); i < 1024; i++ {
		pt.Map(mem.GVA(i*4096), mem.GPA(0x100000+i*4096), PermRW)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pt.Translate(mem.GVA(i%1024)*4096, PermRead)
	}
}
