package mem

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"testing"

	"optimus/internal/sim"
)

// refMem is the reference model of PhysMem's frame store: the same frame
// records and copy-on-write protocol, indexed by a map[HPA]*frame instead
// of the radix table. Its ordered views sort explicitly.
type refMem struct {
	size          uint64
	frames        map[HPA]*frame
	discardWrites bool
	gen           uint64
	cowBreaks     uint64
}

func newRefMem(size uint64) *refMem {
	return &refMem{size: size, frames: map[HPA]*frame{}}
}

func (m *refMem) read(pa HPA, b []byte) {
	for len(b) > 0 {
		base := pa &^ (frameSize - 1)
		off := uint64(pa - base)
		n := min(frameSize-off, uint64(len(b)))
		if f, ok := m.frames[base]; ok {
			copy(b[:n], f.data[off:off+n])
		} else {
			clear(b[:n])
		}
		b, pa = b[n:], pa+HPA(n)
	}
}

func (m *refMem) write(pa HPA, b []byte) {
	for len(b) > 0 {
		base := pa &^ (frameSize - 1)
		off := uint64(pa - base)
		n := min(frameSize-off, uint64(len(b)))
		f, ok := m.frames[base]
		switch {
		case !ok && m.discardWrites:
			b, pa = b[n:], pa+HPA(n)
			continue
		case !ok:
			f = &frame{}
			f.refs.Store(1)
			m.frames[base] = f
		case f.refs.Load() > 1:
			c := &frame{}
			c.refs.Store(1)
			c.data = f.data
			m.frames[base] = c
			f.refs.Add(-1)
			m.cowBreaks++
			f = c
		}
		f.gen = m.gen
		copy(f.data[off:off+n], b[:n])
		b, pa = b[n:], pa+HPA(n)
	}
}

func (m *refMem) drop(base HPA, f *frame) {
	f.refs.Add(-1)
	delete(m.frames, base)
}

func (m *refMem) shareFrom(src *refMem) {
	m.discardWrites = src.discardWrites
	for base, f := range m.frames {
		if src.frames[base] != f {
			m.drop(base, f)
		}
	}
	for base, f := range src.frames {
		if m.frames[base] != f {
			f.refs.Add(1)
			m.frames[base] = f
		}
	}
	if src.gen >= m.gen {
		m.gen = src.gen + 1
	}
}

func (m *refMem) copyFrom(src *refMem) {
	m.discardWrites = src.discardWrites
	for base, f := range m.frames {
		if _, ok := src.frames[base]; !ok {
			m.drop(base, f)
		}
	}
	for base, sf := range src.frames {
		df, ok := m.frames[base]
		if !ok || df.refs.Load() > 1 {
			if ok {
				m.drop(base, df)
			}
			df = &frame{}
			df.refs.Store(1)
			m.frames[base] = df
		}
		df.data, df.gen = sf.data, sf.gen
	}
	m.gen = src.gen + 1
}

func (m *refMem) bases() []HPA {
	out := make([]HPA, 0, len(m.frames))
	for base := range m.frames {
		out = append(out, base)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (m *refMem) shared() int {
	n := 0
	for _, f := range m.frames {
		if f.refs.Load() > 1 {
			n++
		}
	}
	return n
}

func (m *refMem) dirty() []HPA {
	var out []HPA
	for _, base := range m.bases() {
		if m.frames[base].gen == m.gen {
			out = append(out, base)
		}
	}
	return out
}

func (m *refMem) fingerprint() uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, base := range m.bases() {
		for i := range b {
			b[i] = byte(uint64(base) >> (8 * i))
		}
		h.Write(b[:])
		h.Write(m.frames[base].data[:])
	}
	return h.Sum64()
}

// radixProbes are the addresses the property test writes and reads around:
// the start of memory, 2 MB and 1 GB radix boundaries, and the last 4 KB of
// a 188 GB memory.
func radixProbes(size uint64) []HPA {
	var out []HPA
	for _, b := range []uint64{0, PageSize2M, 3 * PageSize2M, 1 << 30, 2<<30 - PageSize2M, 2 << 30, 100 << 30, size - PageSize2M, size} {
		for _, d := range []int64{-2 * frameSize, -frameSize, -LineSize, -3, 0, 5, LineSize, frameSize - 1, frameSize} {
			a := int64(b) + d
			if a >= 0 && uint64(a) < size {
				out = append(out, HPA(a))
			}
		}
	}
	return out
}

// TestFrameTableMatchesMapModel drives random Write/Read/ShareFrom/CopyFrom/
// ResetDirty sequences over three 188 GB memories and their map-indexed
// reference models, at addresses straddling the radix levels' boundaries,
// and requires the same resident, shared and dirty frames, fingerprints,
// CoW break counts and read-back bytes after every step.
func TestFrameTableMatchesMapModel(t *testing.T) {
	const size = 188 << 30
	probes := radixProbes(size)
	for seed := uint64(1); seed <= 8; seed++ {
		rng := sim.NewRand(seed)
		var mems [3]*PhysMem
		var refs [3]*refMem
		for i := range mems {
			mems[i], refs[i] = NewPhysMem(size), newRefMem(size)
		}
		buf := make([]byte, 3*frameSize)
		got := make([]byte, len(buf))
		want := make([]byte, len(buf))
		span := func() (HPA, int) {
			pa := probes[rng.Uint64n(uint64(len(probes)))]
			n := 1 + int(rng.Uint64n(uint64(len(buf))))
			if uint64(pa)+uint64(n) > size {
				n = int(size - uint64(pa))
			}
			return pa, n
		}
		for step := 0; step < 250; step++ {
			i, j := rng.Uint64n(3), rng.Uint64n(3)
			m, r := mems[i], refs[i]
			var op string
			switch k := rng.Uint64n(100); {
			case k < 45:
				pa, n := span()
				rng.Fill(buf[:n])
				op = fmt.Sprintf("Write(%#x, %d) on %d", pa, n, i)
				m.Write(pa, buf[:n])
				r.write(pa, buf[:n])
			case k < 65:
				pa, n := span()
				op = fmt.Sprintf("Read(%#x, %d) on %d", pa, n, i)
				m.Read(pa, got[:n])
				r.read(pa, want[:n])
				if !bytes.Equal(got[:n], want[:n]) {
					t.Fatalf("seed %d step %d: %s read back different bytes", seed, step, op)
				}
			case k < 77:
				op = fmt.Sprintf("%d.ShareFrom(%d)", i, j)
				m.ShareFrom(mems[j])
				if i != j {
					r.shareFrom(refs[j])
				}
			case k < 85:
				op = fmt.Sprintf("%d.CopyFrom(%d)", i, j)
				m.CopyFrom(mems[j])
				if i != j {
					r.copyFrom(refs[j])
				}
			case k < 95:
				op = fmt.Sprintf("ResetDirty on %d", i)
				m.ResetDirty()
				r.gen++
			default:
				on := rng.Uint64n(2) == 0
				op = fmt.Sprintf("SetDiscardWrites(%t) on %d", on, i)
				m.SetDiscardWrites(on)
				r.discardWrites = on
			}
			for x := range mems {
				m, r := mems[x], refs[x]
				if m.ResidentFrames() != len(r.frames) || m.SharedFrames() != r.shared() ||
					m.CoWBreaks() != r.cowBreaks || m.Fingerprint() != r.fingerprint() {
					t.Fatalf("seed %d step %d after %s: memory %d resident %d/%d shared %d/%d breaks %d/%d fingerprint %#x/%#x (table/model)",
						seed, step, op, x, m.ResidentFrames(), len(r.frames), m.SharedFrames(), r.shared(),
						m.CoWBreaks(), r.cowBreaks, m.Fingerprint(), r.fingerprint())
				}
				gd, wd := m.DirtyFrames(), r.dirty()
				if !slices.Equal(gd, wd) {
					t.Fatalf("seed %d step %d after %s: memory %d dirty frames %#x, model %#x", seed, step, op, x, gd, wd)
				}
				if m.DirtyFrameCount() != len(wd) {
					t.Fatalf("seed %d step %d after %s: memory %d DirtyFrameCount %d, model %d", seed, step, op, x, m.DirtyFrameCount(), len(wd))
				}
			}
		}
	}
}
