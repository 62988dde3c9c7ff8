package hv_test

import (
	"bytes"
	"fmt"
	"testing"

	"optimus/internal/guest"
	"optimus/internal/hv"
	"optimus/internal/mem"
)

// cloneOutcome is everything observable about one clone's divergence: the
// job's ciphertext, the platform counter fingerprint, and a content hash
// of its physical memory after both the run (overlapping mutations — every
// clone's job writes the same dst region) and a clone-private direct write
// (disjoint mutations).
type cloneOutcome struct {
	cipher []byte
	fp     string
	memFP  uint64
}

// TestCloneCoWDeterminism is the correctness gate for copy-on-write frame
// sharing: N clones of one template, with overlapping and disjoint
// mutations, must be byte-for-byte indistinguishable from platforms built
// and provisioned from scratch by the same call sequence — same output,
// counters, and final memory — and the template must be provably unmutated
// throughout, with every chaos class armed.
func TestCloneCoWDeterminism(t *testing.T) {
	hT, err := hv.New(cloneCfg())
	if err != nil {
		t.Fatal(err)
	}
	tnT, dstT, plain := provisionCloneJob(t, hT)
	templateFP := hT.Mem.Fingerprint()

	// finish runs the provisioned job, then applies point i's disjoint
	// mutation: a scribble on its own distinct physical frame, far outside
	// the provisioned region (every point's job overlaps on the same dst).
	finish := func(h *hv.Hypervisor, d *guest.Device, i int) cloneOutcome {
		cipher, fp := runCloneJob(t, h, d, dstT, len(plain))
		if h.Mem.DirtyFrameCount() == 0 {
			t.Fatal("running the job dirtied no frames")
		}
		private := mem.HPA(h.Mem.Size() - uint64(i+1)*mem.PageSize4K)
		h.Mem.Write(private, []byte(fmt.Sprintf("clone-%d-private", i)))
		return cloneOutcome{cipher: cipher, fp: fp, memFP: h.Mem.Fingerprint()}
	}

	const clones = 3
	var cow, fresh [clones]cloneOutcome
	for i := 0; i < clones; i++ {
		hC, err := hT.Clone()
		if err != nil {
			t.Fatal(err)
		}
		if res, shared := hC.Mem.ResidentFrames(), hC.Mem.SharedFrames(); res == 0 || float64(shared) < 0.9*float64(res) {
			t.Fatalf("CoW clone shares %d of %d frames, want >= 90%%", shared, res)
		}
		if dirty := hC.Mem.DirtyFrameCount(); dirty != 0 {
			t.Fatalf("clone starts with %d dirty frames, want 0", dirty)
		}
		vas := hC.Phy(0).VAccels()
		cow[i] = finish(hC, tnT.dev.CloneFor(vas[0].Process(), vas[0]), i)
		if hC.Mem.CoWBreaks() == 0 {
			t.Fatal("CoW clone ran a job without breaking a single share — the write path went uninterposed")
		}
		if hT.Mem.Fingerprint() != templateFP {
			t.Fatalf("template memory mutated by clone %d", i)
		}

		hF, err := hv.New(cloneCfg())
		if err != nil {
			t.Fatal(err)
		}
		tnF, _, _ := provisionCloneJob(t, hF)
		fresh[i] = finish(hF, tnF.dev, i)
	}
	for i := 0; i < clones; i++ {
		if !bytes.Equal(cow[i].cipher, fresh[i].cipher) {
			t.Fatalf("clone %d ciphertext differs from a freshly built platform", i)
		}
		if cow[i].fp != fresh[i].fp {
			t.Fatalf("clone %d counters differ:\nclone: %s\nfresh: %s", i, cow[i].fp, fresh[i].fp)
		}
		if cow[i].memFP != fresh[i].memFP {
			t.Fatalf("clone %d final memory contents differ from a freshly built platform", i)
		}
	}
	// Clones with identical inputs are deterministic replicas of each
	// other up to their disjoint private writes — which land on different
	// frames, so the memory fingerprints must differ pairwise.
	if cow[0].memFP == cow[1].memFP {
		t.Fatal("disjoint private writes did not diverge the clones")
	}
	if hT.K.Now() != 0 || hT.K.Executed() != 0 {
		t.Fatal("cloning advanced the template's kernel")
	}
}

// benchTemplate builds a quiescent platform with a resident-set of the
// given size, written directly into physical memory (direct writes
// schedule no events, so the platform stays clonable).
func benchTemplate(b *testing.B, bytes uint64) *hv.Hypervisor {
	b.Helper()
	h, err := hv.New(hv.Config{Accels: []string{"AES"}, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 1<<20)
	for i := range buf {
		buf[i] = byte(i * 31)
	}
	for off := uint64(0); off < bytes; off += uint64(len(buf)) {
		h.Mem.Write(mem.HPA(off), buf)
	}
	return h
}

// BenchmarkCloneCoW measures the clone cost of a template with a 64 MB
// resident set (the headline number in docs/PERFORMANCE.md).
func BenchmarkCloneCoW(b *testing.B) {
	h := benchTemplate(b, 64<<20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Clone(); err != nil {
			b.Fatal(err)
		}
	}
}
