package guest_test

import (
	"bytes"
	"testing"

	"optimus/internal/accel"
	"optimus/internal/guest"
	"optimus/internal/hv"
)

func openDevice(t *testing.T) (*hv.Hypervisor, *guest.Device) {
	t.Helper()
	h, err := hv.New(hv.Config{Accels: []string{"LL"}})
	if err != nil {
		t.Fatal(err)
	}
	vm, err := h.NewVM("vm", 10<<30)
	if err != nil {
		t.Fatal(err)
	}
	proc := vm.NewProcess()
	va, err := h.NewVAccel(proc, 0)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := guest.Open(proc, va)
	if err != nil {
		t.Fatal(err)
	}
	return h, dev
}

func TestDeviceBufferRoundTrip(t *testing.T) {
	_, dev := openDevice(t)
	buf, err := dev.AllocDMA(4096)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("unified address space")
	if err := dev.Write(buf, 100, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := dev.Read(buf, 100, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("round trip = %q", got)
	}
}

func TestDeviceBufferBounds(t *testing.T) {
	_, dev := openDevice(t)
	buf, _ := dev.AllocDMA(128)
	if err := dev.Write(buf, 120, make([]byte, 20)); err == nil {
		t.Fatal("out-of-bounds write accepted")
	}
	if err := dev.Read(buf, 120, make([]byte, 20)); err == nil {
		t.Fatal("out-of-bounds read accepted")
	}
	if _, err := dev.AllocDMA(0); err == nil {
		t.Fatal("zero alloc accepted")
	}
}

func TestDeviceFreeDMAReuses(t *testing.T) {
	_, dev := openDevice(t)
	a, _ := dev.AllocDMA(1 << 20)
	dev.FreeDMA(a)
	b, _ := dev.AllocDMA(1 << 20)
	if a.Addr != b.Addr {
		t.Fatalf("freed space not reused: %#x vs %#x", a.Addr, b.Addr)
	}
}

func TestDeviceRegisterRoundTrip(t *testing.T) {
	_, dev := openDevice(t)
	if err := dev.RegWrite(3, 0xfeed); err != nil {
		t.Fatal(err)
	}
	v, err := dev.RegRead(3)
	if err != nil || v != 0xfeed {
		t.Fatalf("reg = %#x err=%v", v, err)
	}
}

func TestDeviceStatusAndWorkDone(t *testing.T) {
	_, dev := openDevice(t)
	st, err := dev.Status()
	if err != nil || st != accel.StatusIdle {
		t.Fatalf("status = %v err=%v", st, err)
	}
	w, err := dev.WorkDone()
	if err != nil || w != 0 {
		t.Fatalf("work = %d err=%v", w, err)
	}
}

func TestSetupStateBufferPointsRegister(t *testing.T) {
	_, dev := openDevice(t)
	buf, err := dev.SetupStateBuffer()
	if err != nil {
		t.Fatal(err)
	}
	got, err := dev.VAccel().BAR0Read(accel.RegStateAddr)
	if err != nil || got != uint64(buf.Addr) {
		t.Fatalf("state addr = %#x, want %#x", got, buf.Addr)
	}
	size, _ := dev.VAccel().BAR0Read(accel.RegStateSize)
	if buf.Size < size {
		t.Fatalf("buffer %d smaller than state %d", buf.Size, size)
	}
}

func TestDeviceRunEndToEnd(t *testing.T) {
	h, dev := openDevice(t)
	buf, _ := dev.AllocDMA(64 * 16)
	// 16-node straight-line list.
	for j := 0; j < 16; j++ {
		node := make([]byte, 64)
		var next uint64
		if j+1 < 16 {
			next = uint64(buf.Addr) + uint64(j+1)*64
		}
		for b := 0; b < 8; b++ {
			node[b] = byte(next >> (8 * b))
		}
		if err := dev.Write(buf, uint64(j)*64, node); err != nil {
			t.Fatal(err)
		}
	}
	dev.RegWrite(accel.LLArgHead, uint64(buf.Addr))
	if err := dev.Run(); err != nil {
		t.Fatal(err)
	}
	if got := dev.VAccel().WorkDone(); got != 16 {
		t.Fatalf("visited %d", got)
	}
	_ = h
}

func TestDeviceResetAbandonsJob(t *testing.T) {
	h, dev := openDevice(t)
	buf, _ := dev.AllocDMA(64 * 4)
	// Self-looping node: the walk never terminates on its own.
	node := make([]byte, 64)
	for b := 0; b < 8; b++ {
		node[b] = byte(buf.Addr >> (8 * b))
	}
	dev.Write(buf, 0, node)
	dev.RegWrite(accel.LLArgHead, uint64(buf.Addr))
	if err := dev.Start(); err != nil {
		t.Fatal(err)
	}
	h.K.RunFor(100 * 1000 * 1000) // 100us
	if st, _ := dev.Status(); st != accel.StatusRunning {
		t.Fatalf("status = %v before reset", st)
	}
	dev.Reset()
	if st, _ := dev.Status(); st != accel.StatusIdle {
		t.Fatalf("status = %v after reset", st)
	}
	if v, _ := dev.RegRead(accel.LLArgHead); v != 0 {
		t.Fatal("registers survived reset")
	}
	// The device is reusable: run a terminating job.
	buf2, _ := dev.AllocDMA(64)
	dev.Write(buf2, 0, make([]byte, 64)) // next = 0 → 1 node
	dev.RegWrite(accel.LLArgHead, uint64(buf2.Addr))
	if err := dev.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDeviceCloseFreesSlot(t *testing.T) {
	h, dev := openDevice(t)
	dev.Close()
	// The slot accepts a new tenant afterwards.
	vm, _ := h.NewVM("vm2", 10<<30)
	proc := vm.NewProcess()
	va, err := h.NewVAccel(proc, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := guest.Open(proc, va); err != nil {
		t.Fatal(err)
	}
}

// TestBuildListWalk checks the shared LinkedList builder end to end: the
// LinkedList accelerator walking the built list reports exactly the
// payload checksum BuildList returned, the same seed rebuilds the same
// list, and n is clamped to the buffer's 64-byte slots.
func TestBuildListWalk(t *testing.T) {
	_, dev := openDevice(t)
	buf, err := dev.AllocDMA(64 << 10)
	if err != nil {
		t.Fatal(err)
	}
	head, sum, err := dev.BuildList(buf, 300, 7)
	if err != nil {
		t.Fatal(err)
	}
	if head2, sum2, _ := dev.BuildList(buf, 300, 7); head2 != head || sum2 != sum {
		t.Fatal("same seed built a different list")
	}
	dev.RegWrite(accel.LLArgHead, head)
	if err := dev.Run(); err != nil {
		t.Fatal(err)
	}
	if got, err := dev.RegRead(accel.LLArgChecksum); err != nil || got != sum {
		t.Fatalf("walk checksum %#x (err %v), BuildList returned %#x", got, err, sum)
	}

	small, err := dev.AllocDMA(256)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := dev.BuildList(small, 1000, 1); err != nil {
		t.Fatalf("n beyond the buffer's slots must clamp, got %v", err)
	}
}
