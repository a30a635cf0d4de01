package shm

import (
	"bytes"
	"testing"
	"testing/quick"

	"github.com/elisa-go/elisa/internal/cpu"
	"github.com/elisa-go/elisa/internal/ept"
	"github.com/elisa-go/elisa/internal/hv"
	"github.com/elisa-go/elisa/internal/mem"
)

// hostFixture returns a window over a fresh host region.
func hostFixture(t *testing.T, pages int) (*hv.Hypervisor, *HostWindow) {
	t.Helper()
	h, err := hv.New(hv.Config{PhysBytes: 8 * 1024 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	r, err := h.AllocHostRegion(pages * mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewHostWindow(r, nil)
	if err != nil {
		t.Fatal(err)
	}
	return h, w
}

func TestHostWindowRoundTrip(t *testing.T) {
	_, w := hostFixture(t, 2)
	if err := w.Write(100, []byte("windowed")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 8)
	if err := w.Read(100, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "windowed" {
		t.Fatalf("%q", got)
	}
	if err := w.WriteU64(8, 42); err != nil {
		t.Fatal(err)
	}
	v, _ := w.ReadU64(8)
	if v != 42 {
		t.Fatalf("u64 = %d", v)
	}
}

func TestGPAWindowGoesThroughEPT(t *testing.T) {
	h, err := hv.New(hv.Config{PhysBytes: 8 * 1024 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	vm, _ := h.CreateVM("g", 4*mem.PageSize)
	region, gpas, err := h.ShareDirect(mem.PageSize, ept.PermRW, vm)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewGPAWindow(vm.VCPU(), gpas[0], mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(0, []byte("via ept")); err != nil {
		t.Fatal(err)
	}
	// Host sees the same bytes.
	chk := make([]byte, 7)
	_ = region.Read(nil, 0, chk)
	if string(chk) != "via ept" {
		t.Fatalf("host view %q", chk)
	}
	// Bounds are window-relative.
	if err := w.Write(mem.PageSize-2, []byte("xxx")); err == nil {
		t.Fatal("overflow accepted")
	}
	if _, err := w.ReadU64(mem.PageSize); err == nil {
		t.Fatal("u64 past end accepted")
	}
}

func TestGPAWindowFaultsOutsideContext(t *testing.T) {
	h, _ := hv.New(hv.Config{PhysBytes: 8 * 1024 * 1024})
	vm, _ := h.CreateVM("g", 4*mem.PageSize)
	// Window over an unmapped GPA range: access = EPT violation = death.
	w, _ := NewGPAWindow(vm.VCPU(), 0x5000_0000, mem.PageSize)
	if err := w.Write(0, []byte("x")); err == nil {
		t.Fatal("write through hole succeeded")
	}
	var k *cpu.Killed
	if !vm.Dead() {
		t.Fatal("VM survived")
	}
	_ = k
}

func TestSubWindow(t *testing.T) {
	_, w := hostFixture(t, 2)
	sub, err := NewSubWindow(w, 256, 128)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Size() != 128 {
		t.Fatalf("size = %d", sub.Size())
	}
	if err := sub.Write(0, []byte("sub")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 3)
	_ = w.Read(256, got)
	if string(got) != "sub" {
		t.Fatalf("parent sees %q", got)
	}
	if err := sub.Write(126, []byte("abc")); err == nil {
		t.Fatal("sub overflow accepted")
	}
	if err := sub.WriteU64(8, 7); err != nil {
		t.Fatal(err)
	}
	v, _ := w.ReadU64(264)
	if v != 7 {
		t.Fatalf("u64 through sub = %d", v)
	}
	if _, err := NewSubWindow(w, -1, 10); err == nil {
		t.Fatal("negative offset accepted")
	}
	if _, err := NewSubWindow(w, 0, w.Size()+1); err == nil {
		t.Fatal("oversized sub accepted")
	}
}

func TestSeqlock(t *testing.T) {
	_, w := hostFixture(t, 1)
	s, err := NewSeqlock(w, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Writer makes an even->odd->even transition; reader sees stable data.
	if err := s.WriteLocked(func() error { return w.Write(64, []byte("v1")) }); err != nil {
		t.Fatal(err)
	}
	var got [2]byte
	if err := s.ReadConsistent(func() error { return w.Read(64, got[:]) }); err != nil {
		t.Fatal(err)
	}
	if string(got[:]) != "v1" {
		t.Fatalf("read %q", got)
	}
	// A reader observing a torn write retries: simulate by leaving the
	// sequence odd.
	_ = w.WriteU64(0, 7) // odd
	if err := s.ReadConsistent(func() error { return nil }); err == nil {
		t.Fatal("reader did not starve on a stuck writer")
	}
	if err := s.WriteLocked(func() error { return nil }); err == nil {
		t.Fatal("nested/odd write accepted")
	}
}

func TestRingBasics(t *testing.T) {
	_, w := hostFixture(t, 4)
	r, err := InitRing(w, 8, 100)
	if err != nil {
		t.Fatal(err)
	}
	if r.Slots() != 8 || r.SlotSize() != 100 {
		t.Fatalf("geometry %d/%d", r.Slots(), r.SlotSize())
	}
	ok, err := r.Push([]byte("first"))
	if err != nil || !ok {
		t.Fatalf("push: %v %v", ok, err)
	}
	if n, _ := r.Len(); n != 1 {
		t.Fatalf("len = %d", n)
	}
	if n, ok, _ := r.PeekLen(); !ok || n != 5 {
		t.Fatalf("peek = %d %v", n, ok)
	}
	buf := make([]byte, 100)
	n, ok, err := r.Pop(buf)
	if err != nil || !ok || string(buf[:n]) != "first" {
		t.Fatalf("pop: %q %v %v", buf[:n], ok, err)
	}
	if _, ok, _ := r.Pop(buf); ok {
		t.Fatal("pop from empty succeeded")
	}
}

func TestRingFullAndWrap(t *testing.T) {
	_, w := hostFixture(t, 4)
	r, _ := InitRing(w, 4, 32)
	buf := make([]byte, 32)
	for round := 0; round < 5; round++ { // force wraparound
		for i := 0; i < 4; i++ {
			ok, err := r.Push([]byte{byte(round), byte(i)})
			if err != nil || !ok {
				t.Fatalf("push %d/%d: %v %v", round, i, ok, err)
			}
		}
		if ok, _ := r.Push([]byte("overflow")); ok {
			t.Fatal("push to full ring succeeded")
		}
		for i := 0; i < 4; i++ {
			n, ok, err := r.Pop(buf)
			if err != nil || !ok || n != 2 || buf[0] != byte(round) || buf[1] != byte(i) {
				t.Fatalf("pop %d/%d: % x %v %v", round, i, buf[:n], ok, err)
			}
		}
	}
}

func TestRingValidation(t *testing.T) {
	_, w := hostFixture(t, 4)
	if _, err := InitRing(w, 3, 32); err == nil {
		t.Error("non-power-of-two slots accepted")
	}
	if _, err := InitRing(w, 4, 0); err == nil {
		t.Error("zero slot size accepted")
	}
	if _, err := InitRing(w, 1024, 4096); err == nil {
		t.Error("ring larger than window accepted")
	}
	r, _ := InitRing(w, 4, 16)
	if _, err := r.Push(make([]byte, 17)); err == nil {
		t.Error("oversized payload accepted")
	}
	if _, _, err := r.Pop(make([]byte, 4)); err != nil {
		// empty ring: ok=false, no error
		t.Errorf("empty pop error: %v", err)
	}
}

func TestRingOpenFromOtherSide(t *testing.T) {
	// Producer formats the ring via the host window; consumer opens the
	// same memory through a guest GPA window: the cross-context case.
	h, err := hv.New(hv.Config{PhysBytes: 8 * 1024 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	vm, _ := h.CreateVM("g", 4*mem.PageSize)
	region, gpas, _ := h.ShareDirect(mem.PageSize, ept.PermRW, vm)
	hw, _ := NewHostWindow(region, nil)
	prod, err := InitRing(hw, 8, 64)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = prod.Push([]byte("ping"))

	gw, _ := NewGPAWindow(vm.VCPU(), gpas[0], mem.PageSize)
	cons, err := OpenRing(gw)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	n, ok, err := cons.Pop(buf)
	if err != nil || !ok || string(buf[:n]) != "ping" {
		t.Fatalf("cross-context pop: %q %v %v", buf[:n], ok, err)
	}
	// And the reverse direction.
	_, _ = cons.Push([]byte("pong"))
	n, ok, _ = prod.Pop(buf)
	if !ok || string(buf[:n]) != "pong" {
		t.Fatalf("reverse pop: %q %v", buf[:n], ok)
	}
}

func TestOpenRingRejectsGarbage(t *testing.T) {
	_, w := hostFixture(t, 1)
	if _, err := OpenRing(w); err == nil {
		t.Fatal("opened a ring in zeroed memory")
	}
}

// Property: any sequence of pushes and pops behaves like a FIFO queue.
func TestRingFIFOProperty(t *testing.T) {
	_, w := hostFixture(t, 8)
	r, _ := InitRing(w, 16, 64)
	var model [][]byte
	buf := make([]byte, 64)
	f := func(ops []byte) bool {
		for _, op := range ops {
			if op%2 == 0 { // push
				payload := []byte{op, op + 1, op + 2}
				ok, err := r.Push(payload)
				if err != nil {
					return false
				}
				if ok {
					model = append(model, append([]byte(nil), payload...))
				} else if len(model) != 16 {
					return false // full only when model full
				}
			} else { // pop
				n, ok, err := r.Pop(buf)
				if err != nil {
					return false
				}
				if !ok {
					if len(model) != 0 {
						return false
					}
					continue
				}
				if len(model) == 0 || !bytes.Equal(buf[:n], model[0]) {
					return false
				}
				model = model[1:]
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
