package iommu

import (
	"errors"
	"testing"
	"testing/quick"

	"optimus/internal/mem"
	"optimus/internal/pagetable"
	"optimus/internal/sim"
)

const (
	page2M = 2 << 20
	page4K = 4 << 10
)

func newIOMMU2M(cfg Config) (*IOMMU, *pagetable.Table[mem.IOVA, mem.HPA]) {
	iopt := pagetable.New[mem.IOVA, mem.HPA](page2M, 3)
	return New(cfg, iopt), iopt
}

func TestTranslateHitMiss(t *testing.T) {
	u, iopt := newIOMMU2M(Config{})
	iopt.Map(0, 0x8000_0000, pagetable.PermRW)

	_, d1, _, err := u.Translate(0x1234, pagetable.PermRead)
	if err != nil {
		t.Fatal(err)
	}
	if d1 == 0 {
		t.Fatal("first access should miss and pay walk latency")
	}
	hpa, d2, _, err := u.Translate(0x5678, pagetable.PermRead)
	if err != nil {
		t.Fatal(err)
	}
	if d2 != 0 {
		t.Fatalf("second access same page should hit, delay=%v", d2)
	}
	if hpa != 0x8000_5678 {
		t.Fatalf("hpa = %#x", hpa)
	}
	st := u.Stats()
	if st.Misses != 1 {
		t.Fatalf("misses = %d, want 1 (got %+v)", st.Misses, st)
	}
}

func TestTranslateFault(t *testing.T) {
	u, _ := newIOMMU2M(Config{})
	if _, _, _, err := u.Translate(0x10_0000_0000, pagetable.PermRead); err == nil {
		t.Fatal("unmapped IOVA should fault")
	}
	if u.Stats().Faults != 1 {
		t.Fatal("fault not counted")
	}
}

func TestPermissionFaultOnTLBHit(t *testing.T) {
	u, iopt := newIOMMU2M(Config{})
	iopt.Map(0, 0x8000_0000, pagetable.PermRead)
	u.Translate(0, pagetable.PermRead) // fill TLB
	_, d, _, err := u.Translate(0, pagetable.PermWrite)
	if !errors.Is(err, pagetable.ErrPermission) || err.Error() != "iommu: pagetable: permission denied at iova 0x0" {
		t.Fatalf("err = %v, want permission fault", err)
	}
	if st := u.Stats(); d != 0 || st.Misses != 1 || st.Faults != 1 {
		t.Fatalf("hit fault: delay %v, stats %+v; want no walk, 1 miss, 1 fault", d, st)
	}
}

// Faults on a miss are counted as one miss and one fault, keep their error
// text, and install no IOTLB entry: the next permitted access misses again.
func TestFaultOnMiss(t *testing.T) {
	for _, tc := range []struct {
		name     string
		pageSize uint64
		levels   int
		perm     pagetable.Perm // mapping permission; 0 leaves the page unmapped
		want     error
		text     string
	}{
		{"permission 2M", page2M, 3, pagetable.PermRead, pagetable.ErrPermission,
			"iommu: pagetable: permission denied: va=0x40 have=r-- want=-w-"},
		{"permission 4K", page4K, 4, pagetable.PermRead, pagetable.ErrPermission,
			"iommu: pagetable: permission denied: va=0x40 have=r-- want=-w-"},
		{"unmapped", page2M, 3, 0, pagetable.ErrNotMapped,
			"iommu: pagetable: address not mapped: va=0x40"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			iopt := pagetable.New[mem.IOVA, mem.HPA](tc.pageSize, tc.levels)
			if tc.perm != 0 {
				iopt.Map(0, 0x8000_0000, tc.perm)
			}
			u := New(Config{}, iopt)
			_, d, _, err := u.Translate(0x40, pagetable.PermWrite)
			if !errors.Is(err, tc.want) || err.Error() != tc.text {
				t.Fatalf("err = %v, want %q", err, tc.text)
			}
			if d == 0 {
				t.Fatal("a faulting miss still pays the walk")
			}
			if st := u.Stats(); st.Misses != 1 || st.Faults != 1 || st.Hits != 0 {
				t.Fatalf("stats = %+v, want 1 miss and 1 fault", st)
			}
			if tc.perm == 0 {
				return
			}
			if _, d, _, err := u.Translate(0x40, pagetable.PermRead); err != nil || d == 0 {
				t.Fatalf("permitted access after the fault: delay %v, err %v; want a miss", d, err)
			}
			if st := u.Stats(); st.Misses != 2 || st.Faults != 1 {
				t.Fatalf("stats = %+v, want 2 misses and 1 fault", st)
			}
		})
	}
}

// The speculative region fast path needs a page that covers the whole
// 2 MB region, so with 4 KB pages it never fires, even within one page.
func TestSpeculativeRegion4KNeverSpecHits(t *testing.T) {
	for _, tc := range []struct {
		name string
		seq  []mem.IOVA
	}{
		{"same page", []mem.IOVA{0, 64, 128, 4095}},
		{"same region", []mem.IOVA{0, page4K, 2 * page4K, 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			iopt := pagetable.New[mem.IOVA, mem.HPA](page4K, 4)
			for i := uint64(0); i < 4; i++ {
				iopt.Map(mem.IOVA(i*page4K), mem.HPA(0x8000_0000+i*page4K), pagetable.PermRW)
			}
			u := New(Config{SpeculativeRegion: true}, iopt)
			for _, va := range tc.seq {
				if _, _, spec, err := u.Translate(va, pagetable.PermRead); err != nil || spec {
					t.Fatalf("Translate(%#x): spec=%v err=%v", va, spec, err)
				}
			}
			if st := u.Stats(); st.SpecHits != 0 {
				t.Fatalf("4 KB IOMMU reported %d speculative hits", st.SpecHits)
			}
		})
	}
}

// The conflict predicate from §5: p1 conflicts with p2 iff p1 ≡ p2 mod 2^9.
func TestConflictPredicate(t *testing.T) {
	u, _ := newIOMMU2M(Config{})
	f := func(p1, p2 uint32) bool {
		a := mem.IOVA(p1) * page2M
		b := mem.IOVA(p2) * page2M
		want := uint64(p1)%512 == uint64(p2)%512
		return u.Conflicts(a, b) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSetIndexBits21to29(t *testing.T) {
	u, iopt := newIOMMU2M(Config{})
	// Two IOVAs whose bits 21-29 match but differ above bit 29 must evict
	// each other; two that differ in bits 21-29 must coexist.
	conflictA := mem.IOVA(0)
	conflictB := mem.IOVA(512) * page2M // bit 30 set, same set index
	disjoint := mem.IOVA(1) * page2M    // different set index
	for _, va := range []mem.IOVA{conflictA, conflictB, disjoint} {
		iopt.Map(va, 0x1_0000_0000+mem.HPA(va), pagetable.PermRW)
	}
	u.Translate(conflictA, pagetable.PermRead)
	u.Translate(disjoint, pagetable.PermRead)
	u.Translate(conflictB, pagetable.PermRead) // evicts A
	st := u.Stats()
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	// A misses again, disjoint still hits.
	_, d, _, _ := u.Translate(conflictA, pagetable.PermRead)
	if d == 0 {
		t.Fatal("A should have been evicted by B")
	}
	_, d, _, _ = u.Translate(disjoint, pagetable.PermRead)
	if d != 0 {
		t.Fatal("disjoint page should still hit")
	}
}

func TestReach(t *testing.T) {
	u2m, _ := newIOMMU2M(Config{})
	if u2m.Reach() != 1<<30 {
		t.Fatalf("2M reach = %d, want 1 GB", u2m.Reach())
	}
	iopt4k := pagetable.New[mem.IOVA, mem.HPA](page4K, 4)
	u4k := New(Config{}, iopt4k)
	if u4k.Reach() != 2<<20 {
		t.Fatalf("4K reach = %d, want 2 MB", u4k.Reach())
	}
}

// Working sets within 1 GB of 2M pages never conflict-miss after warm-up.
func TestNoThrashingWithinReach(t *testing.T) {
	u, iopt := newIOMMU2M(Config{})
	const pages = 512
	for i := uint64(0); i < pages; i++ {
		iopt.Map(mem.IOVA(i*page2M), mem.HPA(0x1_0000_0000+i*page2M), pagetable.PermRW)
	}
	for i := uint64(0); i < pages; i++ { // warm every page once
		u.Translate(mem.IOVA(i*page2M), pagetable.PermRead)
	}
	rng := sim.NewRand(1)
	warm := u.Stats()
	for i := 0; i < 10000; i++ {
		va := mem.IOVA(rng.Uint64n(pages)) * page2M
		if _, d, _, err := u.Translate(va, pagetable.PermRead); err != nil || d != 0 {
			t.Fatalf("steady-state miss at %#x (err=%v)", va, err)
		}
	}
	if st := u.Stats(); st.Hits-warm.Hits != 10000 || st.Misses != warm.Misses {
		t.Fatalf("steady state: %d hits, %d misses; want 10000 hits, 0 misses",
			st.Hits-warm.Hits, st.Misses-warm.Misses)
	}
}

// Beyond the reach the direct-mapped TLB thrashes under random access.
func TestThrashingBeyondReach(t *testing.T) {
	u, iopt := newIOMMU2M(Config{SpeculativeRegion: false})
	const pages = 2048 // 4 GB working set
	for i := uint64(0); i < pages; i++ {
		iopt.Map(mem.IOVA(i*page2M), mem.HPA(0x2_0000_0000+i*page2M), pagetable.PermRW)
	}
	rng := sim.NewRand(2)
	for i := 0; i < 20000; i++ {
		u.Translate(mem.IOVA(rng.Uint64n(pages))*page2M, pagetable.PermRead)
	}
	hr := u.Stats().HitRate()
	// 512 sets / 2048 pages → expected hit rate ~ 1/4.
	if hr > 0.35 || hr < 0.15 {
		t.Fatalf("4G working set hit rate = %v, want ~0.25", hr)
	}
}

func TestInvalidate(t *testing.T) {
	u, iopt := newIOMMU2M(Config{})
	iopt.Map(0, 0x8000_0000, pagetable.PermRW)
	u.Translate(0, pagetable.PermRead)
	u.Invalidate(0)
	_, d, _, _ := u.Translate(0, pagetable.PermRead)
	if d == 0 {
		t.Fatal("access after Invalidate should miss")
	}
}

func TestFlushAll(t *testing.T) {
	u, iopt := newIOMMU2M(Config{})
	for i := uint64(0); i < 4; i++ {
		iopt.Map(mem.IOVA(i*page2M), mem.HPA(0x8000_0000+i*page2M), pagetable.PermRW)
		u.Translate(mem.IOVA(i*page2M), pagetable.PermRead)
	}
	u.FlushAll()
	before := u.Stats()
	for i := uint64(0); i < 4; i++ {
		if _, d, _, _ := u.Translate(mem.IOVA(i*page2M), pagetable.PermRead); d == 0 {
			t.Fatal("hit after FlushAll")
		}
	}
	if st := u.Stats(); st.Misses-before.Misses != 4 || st.Hits != before.Hits {
		t.Fatalf("after FlushAll: %d misses, %d hits; want 4, 0", st.Misses-before.Misses, st.Hits-before.Hits)
	}
}

func TestSpeculativeRegionFastPath(t *testing.T) {
	u, iopt := newIOMMU2M(Config{SpeculativeRegion: true})
	iopt.Map(0, 0x8000_0000, pagetable.PermRW)
	u.Translate(0, pagetable.PermRead) // miss, fills region register
	hpa, d, spec, err := u.Translate(64, pagetable.PermRead)
	if err != nil || !spec || d != 0 {
		t.Fatalf("expected spec hit: spec=%v d=%v err=%v", spec, d, err)
	}
	if hpa != 0x8000_0040 {
		t.Fatalf("hpa = %#x", hpa)
	}
	if u.Stats().SpecHits != 1 {
		t.Fatal("spec hit not counted")
	}
}

func TestSpeculativeRegionBrokenByInterleaving(t *testing.T) {
	u, iopt := newIOMMU2M(Config{SpeculativeRegion: true})
	iopt.Map(0, 0x8000_0000, pagetable.PermRW)
	iopt.Map(page2M, 0x9000_0000, pagetable.PermRW)
	u.Translate(0, pagetable.PermRead)
	u.Translate(page2M, pagetable.PermRead) // different region
	_, _, spec, _ := u.Translate(64, pagetable.PermRead)
	if spec {
		t.Fatal("interleaved regions should defeat speculation")
	}
}

func TestIntegratedIOMMUFasterWalks(t *testing.T) {
	soft, ioptA := newIOMMU2M(Config{})
	ioptA.Map(0, 0x8000_0000, pagetable.PermRW)
	integrated := New(Config{Integrated: true}, func() *pagetable.Table[mem.IOVA, mem.HPA] {
		p := pagetable.New[mem.IOVA, mem.HPA](page2M, 3)
		p.Map(0, 0x8000_0000, pagetable.PermRW)
		return p
	}())
	_, dSoft, _, _ := soft.Translate(0, pagetable.PermRead)
	_, dInt, _, _ := integrated.Translate(0, pagetable.PermRead)
	if dInt*2 >= dSoft {
		t.Fatalf("integrated walk %v not substantially faster than soft %v", dInt, dSoft)
	}
}

func TestWalkCostScalesWithLevels(t *testing.T) {
	iopt4 := pagetable.New[mem.IOVA, mem.HPA](page4K, 4)
	iopt4.Map(0, 0x8000_0000, pagetable.PermRW)
	u4 := New(Config{}, iopt4)
	iopt3 := pagetable.New[mem.IOVA, mem.HPA](page2M, 3)
	iopt3.Map(0, 0x8000_0000, pagetable.PermRW)
	u3 := New(Config{}, iopt3)
	_, d4, _, _ := u4.Translate(0, pagetable.PermRead)
	_, d3, _, _ := u3.Translate(0, pagetable.PermRead)
	if d4 <= d3 {
		t.Fatalf("4-level walk (%v) should cost more than 3-level (%v)", d4, d3)
	}
}

func TestHitRateEmpty(t *testing.T) {
	var s Stats
	if s.HitRate() != 0 {
		t.Fatal("empty stats hit rate should be 0")
	}
}

func BenchmarkTranslateHit(b *testing.B) {
	u, iopt := newIOMMU2M(Config{})
	iopt.Map(0, 0x8000_0000, pagetable.PermRW)
	u.Translate(0, pagetable.PermRead)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u.Translate(mem.IOVA(i%1024)*64, pagetable.PermRead)
	}
}

func BenchmarkTranslateThrash(b *testing.B) {
	u, iopt := newIOMMU2M(Config{SpeculativeRegion: false})
	const pages = 2048
	for i := uint64(0); i < pages; i++ {
		iopt.Map(mem.IOVA(i*page2M), mem.HPA(0x2_0000_0000+i*page2M), pagetable.PermRW)
	}
	rng := sim.NewRand(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u.Translate(mem.IOVA(rng.Uint64n(pages))*page2M, pagetable.PermRead)
	}
}
