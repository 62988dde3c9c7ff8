package mem

// Radix frame-table geometry: a 4 KB frame is found through a 1 GB top
// level, a 2 MB middle level and a 4 KB leaf level, the split of an x86-64
// page walk below the PML4. At 188 GB the top level has 188 entries.
const (
	leafShift = 12 // log2(frameSize): a leaf slot is one 4 KB frame
	midShift  = 21 // log2(PageSize2M): a middle slot is one 2 MB leaf
	topShift  = 30 // a top slot is one 1 GB middle node
	radixBits = 9
	radixMask = 1<<radixBits - 1
)

// leaf holds the resident 4 KB frames of one 2 MB region.
type leaf [1 << radixBits]*frame

// mid holds the leaves of one 1 GB region.
type mid [1 << radixBits]*leaf

// frameTable is PhysMem's sparse frame index: a three-level radix tree
// whose interior nodes are materialized on the first frame below them.
// A lookup is three dependent loads and no hashing, and walks visit frames
// in ascending address order, so ordered views need no sort.
type frameTable struct {
	top []*mid
	n   int // resident frames
}

// newFrameTable returns an empty table covering size bytes.
func newFrameTable(size uint64) frameTable {
	return frameTable{top: make([]*mid, (size+1<<topShift-1)>>topShift)}
}

// lookup returns the frame holding pa, or nil if none is resident. pa must
// lie below the table's size (PhysMem.check guarantees it).
//
//optimus:hotpath
func (t *frameTable) lookup(pa HPA) *frame {
	md := t.top[pa>>topShift]
	if md == nil {
		return nil
	}
	lf := md[pa>>midShift&radixMask]
	if lf == nil {
		return nil
	}
	return lf[pa>>leafShift&radixMask]
}

// install makes f the frame holding base, materializing interior nodes as
// needed. f must be non-nil; the slot must be empty or hold a frame the
// caller has already released.
func (t *frameTable) install(base HPA, f *frame) {
	md := t.top[base>>topShift]
	if md == nil {
		md = new(mid)
		t.top[base>>topShift] = md
	}
	lf := md[base>>midShift&radixMask]
	if lf == nil {
		lf = new(leaf)
		md[base>>midShift&radixMask] = lf
	}
	p := &lf[base>>leafShift&radixMask]
	if *p == nil {
		t.n++
	}
	*p = f
}

// remove empties the slot of the resident frame at base. Interior nodes
// stay: a region written once is likely to be written again.
func (t *frameTable) remove(base HPA) {
	t.top[base>>topShift][base>>midShift&radixMask][base>>leafShift&radixMask] = nil
	t.n--
}

// walk calls fn for every resident frame in ascending base order. fn may
// remove the frame it is given.
//
//optimus:hotpath
func (t *frameTable) walk(fn func(base HPA, f *frame)) {
	for i, md := range t.top {
		if md == nil {
			continue
		}
		for j, lf := range md {
			if lf == nil {
				continue
			}
			for k, f := range lf {
				if f != nil {
					fn(HPA(i)<<topShift|HPA(j)<<midShift|HPA(k)<<leafShift, f)
				}
			}
		}
	}
}

// shareFrom adds a reference to every frame of src that t does not hold
// yet, installing it at the same base. Every frame t already holds must be
// src's frame at that base (PhysMem.ShareFrom drops the others first). Both
// tables must cover the same size.
func (t *frameTable) shareFrom(src *frameTable) {
	for i, sm := range src.top {
		if sm == nil {
			continue
		}
		dm := t.top[i]
		if dm == nil {
			dm = new(mid)
			t.top[i] = dm
		}
		for j, sl := range sm {
			if sl == nil {
				continue
			}
			dl := dm[j]
			if dl == nil {
				dl = new(leaf)
				dm[j] = dl
			}
			for k, f := range sl {
				if f != nil && dl[k] == nil {
					f.refs.Add(1)
					dl[k] = f
					t.n++
				}
			}
		}
	}
}
