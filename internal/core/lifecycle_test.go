package core

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"github.com/elisa-go/elisa/internal/ept"
	"github.com/elisa-go/elisa/internal/mem"
)

func TestCleanupGuestReclaimsEverything(t *testing.T) {
	f := newFixture(t)
	_, _ = f.mgr.CreateObject("o1", 4*mem.PageSize)
	_, _ = f.mgr.CreateObject("o2", mem.PageSize)

	baseline := f.hv.Phys().FreeFrames()
	vm, g := f.newGuest(t, "g")
	afterVM := f.hv.Phys().FreeFrames()

	h1, err := g.Attach("o1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Attach("o2"); err != nil {
		t.Fatal(err)
	}
	// Exercise every lifecycle path: one live, one detached, one revoked.
	if _, err := h1.Call(vm.VCPU(), fnNop); err != nil {
		t.Fatal(err)
	}
	if err := g.Detach("o2"); err != nil {
		t.Fatal(err)
	}
	if err := f.mgr.Revoke(vm, "o1"); err != nil {
		t.Fatal(err)
	}
	if err := f.mgr.Fsck(); err != nil {
		t.Fatal(err)
	}

	if err := f.mgr.CleanupGuest(vm); err != nil {
		t.Fatal(err)
	}
	// Cleanup returns the bulk of the ELISA frames; the remainder (the
	// EPTP list page and default-EPT table pages grown for the gate and
	// exchange windows) belongs to the VM and goes with DestroyVM.
	afterCleanup := f.hv.Phys().FreeFrames()
	if afterCleanup <= afterVM-8 {
		t.Fatalf("cleanup reclaimed too little: %d -> %d", afterVM, afterCleanup)
	}
	if err := f.hv.DestroyVM(vm); err != nil {
		t.Fatal(err)
	}
	if got := f.hv.Phys().FreeFrames(); got != baseline {
		t.Fatalf("after destroy: free=%d, want baseline %d", got, baseline)
	}
	// Cleanup is not idempotent: the state is gone.
	if err := f.mgr.CleanupGuest(vm); err == nil {
		t.Fatal("double cleanup accepted")
	}
}

func TestFsckDetectsTampering(t *testing.T) {
	f := newFixture(t)
	_, _ = f.mgr.CreateObject("obj", mem.PageSize)
	vm, g := f.newGuest(t, "g")
	h, _ := g.Attach("obj")
	if err := f.mgr.Fsck(); err != nil {
		t.Fatalf("clean state flagged: %v", err)
	}
	// Corrupt the EPTP list behind the manager's back.
	gs := f.mgr.guests[vm.ID()]
	if err := gs.list.Set(h.SubIndex(), ept.Pointer(0xdead000)); err != nil {
		t.Fatal(err)
	}
	if err := f.mgr.Fsck(); err == nil {
		t.Fatal("tampered slot not detected")
	}
	_ = gs.list.Set(h.SubIndex(), gs.attachments["obj"].subCtx.Pointer())
	if err := f.mgr.Fsck(); err != nil {
		t.Fatal(err)
	}
	// A stray extra slot is also caught: Fsck scans the whole list, so a
	// populated entry no attachment owns cannot hide anywhere.
	_ = gs.list.Set(h.SubIndex()+1, gs.gateCtx.Pointer())
	if err := f.mgr.Fsck(); err == nil {
		t.Fatal("stray slot not detected")
	}
}

// The audit: a sub context maps exactly {gate, manager code, object,
// exchange, stack} — byte-accounted, nothing else.
func TestSubContextMapsExactlyFiveWindows(t *testing.T) {
	f := newFixture(t)
	obj, _ := f.mgr.CreateObject("audited", 3*mem.PageSize)
	vm, g := f.newGuest(t, "g")
	h, _ := g.Attach("audited")

	ms, err := f.mgr.SubContextMappings(vm, "audited")
	if err != nil {
		t.Fatal(err)
	}
	gateGPA, _ := f.mgr.GateGPA(vm)
	type window struct {
		base  mem.GPA
		pages int
		perm  ept.Perm
	}
	want := []window{
		{mem.GPA(gateGPA), 1, ept.PermRX},
		{MgrCodeGPA, 1, ept.PermRX},
		{obj.GPA(), 3, ept.PermRW},
		{h.ExchangeGPA(), ExchangeBytes / mem.PageSize, ept.PermRW},
		{StackGPA, 1, ept.PermRW},
	}
	totalPages := 0
	for _, w := range want {
		totalPages += w.pages
	}
	if len(ms) != totalPages {
		t.Fatalf("sub context maps %d pages, want exactly %d:\n%+v", len(ms), totalPages, ms)
	}
	inWindow := func(m ept.Mapping) bool {
		for _, w := range want {
			if m.GPA >= w.base && m.GPA < w.base+mem.GPA(w.pages*mem.PageSize) {
				return m.Perm == w.perm
			}
		}
		return false
	}
	for _, m := range ms {
		if !inWindow(m) {
			t.Fatalf("unexpected mapping in sub context: %+v", m)
		}
	}
}

// The gate context maps exactly {gate page RX, stack RW}.
func TestGateContextMapsExactlyTwoWindows(t *testing.T) {
	f := newFixture(t)
	_, _ = f.mgr.CreateObject("obj", mem.PageSize)
	vm, g := f.newGuest(t, "g")
	_, _ = g.Attach("obj")
	ms, err := f.mgr.GateContextMappings(vm)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 {
		t.Fatalf("gate context maps %d pages, want 2: %+v", len(ms), ms)
	}
	gateGPA, _ := f.mgr.GateGPA(vm)
	for _, m := range ms {
		switch m.GPA {
		case mem.GPA(gateGPA):
			if m.Perm != ept.PermRX {
				t.Fatalf("gate page perm %v", m.Perm)
			}
		case StackGPA:
			if m.Perm != ept.PermRW {
				t.Fatalf("stack perm %v", m.Perm)
			}
		default:
			t.Fatalf("unexpected gate mapping %+v", m)
		}
	}
}

// Property: any sequence of attach/call/detach/revoke operations keeps
// the manager's bookkeeping consistent (Fsck) and ends reclaimable
// (CleanupGuest + DestroyVM restore the frame count).
func TestLifecycleProperty(t *testing.T) {
	f := newFixture(t)
	for i := 0; i < 6; i++ {
		if _, err := f.mgr.CreateObject(fmt.Sprintf("po-%d", i), mem.PageSize); err != nil {
			t.Fatal(err)
		}
	}
	seq := 0
	run := func(ops []uint8) bool {
		seq++
		baseline := f.hv.Phys().FreeFrames()
		vm, err := f.hv.CreateVM(fmt.Sprintf("pg-%d", seq), 16*mem.PageSize)
		if err != nil {
			return false
		}
		g, err := NewGuest(vm, f.mgr)
		if err != nil {
			return false
		}
		handles := map[string]*Handle{}
		for _, op := range ops {
			name := fmt.Sprintf("po-%d", int(op)%6)
			switch op % 4 {
			case 0: // attach
				h, err := g.Attach(name)
				if err == nil {
					handles[name] = h
				}
			case 1: // call
				if h, ok := handles[name]; ok {
					if _, ok := f.mgr.Attachment(vm, name); !ok {
						continue // revoked: calling would be refused, fine
					}
					if _, err := h.Call(vm.VCPU(), fnNop); err != nil {
						return false
					}
				}
			case 2: // detach
				if _, ok := handles[name]; ok {
					_ = g.Detach(name)
					delete(handles, name)
				}
			case 3: // revoke
				if _, ok := f.mgr.Attachment(vm, name); ok {
					if err := f.mgr.Revoke(vm, name); err != nil {
						return false
					}
				}
			}
			if err := f.mgr.Fsck(); err != nil {
				t.Logf("fsck: %v", err)
				return false
			}
		}
		if f.mgr.guest(vm.ID()) != nil {
			if err := f.mgr.CleanupGuest(vm); err != nil {
				t.Logf("cleanup: %v", err)
				return false
			}
		}
		if err := f.hv.DestroyVM(vm); err != nil {
			t.Logf("destroy: %v", err)
			return false
		}
		return f.hv.Phys().FreeFrames() == baseline
	}
	if err := quick.Check(run, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// CleanupGuest frees exchange buffers onto the allocator's freed-frame
// stack, so its reclaim order decides which frames the next allocation
// gets. It
// must be the same every run: attach four objects, clean up, allocate,
// and the new object's frames must come out identical on every machine.
func TestCleanupGuestFreesInDeterministicOrder(t *testing.T) {
	var first string
	for run := 0; run < 32; run++ {
		f := newFixture(t)
		vm, g := f.newGuest(t, "g")
		for i := 0; i < 4; i++ {
			name := fmt.Sprintf("o%d", i)
			if _, err := f.mgr.CreateObject(name, mem.PageSize); err != nil {
				t.Fatal(err)
			}
			if _, err := g.Attach(name); err != nil {
				t.Fatal(err)
			}
		}
		if err := f.mgr.CleanupGuest(vm); err != nil {
			t.Fatal(err)
		}
		o, err := f.mgr.CreateObject("next", 8*mem.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		layout := fmt.Sprint(o.Region().Frames())
		if run == 0 {
			first = layout
		} else if layout != first {
			t.Fatalf("run %d: frames after cleanup %s, run 0 got %s", run, layout, first)
		}
	}
}

// DescribeGuest is what elisa-inspect prints, so its rows must come out
// in one order (object name) however often it is asked.
func TestDescribeGuestIsDeterministic(t *testing.T) {
	f := newFixture(t)
	vm, g := f.newGuest(t, "g")
	for _, name := range []string{"delta", "alpha", "charlie", "bravo"} {
		if _, err := f.mgr.CreateObject(name, mem.PageSize); err != nil {
			t.Fatal(err)
		}
		if _, err := g.Attach(name); err != nil {
			t.Fatal(err)
		}
	}
	first, err := f.mgr.DescribeGuest(vm)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		if again, _ := f.mgr.DescribeGuest(vm); again != first {
			t.Fatalf("describe %d differs:\n%s\nfirst:\n%s", i, again, first)
		}
	}
	var rows []string
	for _, line := range strings.Split(strings.TrimSpace(first), "\n")[1:] {
		rows = append(rows, strings.Fields(line)[0])
	}
	if got := strings.Join(rows, ","); got != "alpha,bravo,charlie,delta" {
		t.Fatalf("rows in order %s, want object-name order", got)
	}
}

// TestDestroyObject: destroying an object drops its name, revokes every
// attachment, and frees its frames once no sub context maps them — at
// once with none attached, at the reap otherwise. A region lent through
// CreateObjectFromRegion stays with its owner, and the name can be
// created and attached afresh.
func TestDestroyObject(t *testing.T) {
	f := newFixture(t)
	pm := f.hv.Phys()
	free := pm.FreeFrames()
	if _, err := f.mgr.CreateObject("obj", 2*mem.PageSize); err != nil {
		t.Fatal(err)
	}
	if err := f.mgr.DestroyObject("obj"); err != nil {
		t.Fatal(err)
	}
	if got := pm.FreeFrames(); got != free {
		t.Fatalf("FreeFrames %d after destroying an unattached object, want %d", got, free)
	}
	if err := f.mgr.DestroyObject("obj"); err == nil {
		t.Fatal("destroyed an object twice")
	}

	region, err := f.hv.AllocHostRegion(mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.mgr.CreateObjectFromRegion("lent", region); err != nil {
		t.Fatal(err)
	}
	vm, g := f.newGuest(t, "g")
	h, err := g.Attach("lent")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.mgr.DestroyObject("lent"); err != nil {
		t.Fatal(err)
	}
	if _, ok := f.mgr.Attachment(vm, "lent"); ok {
		t.Fatal("attachment survived its object")
	}
	if _, err := h.Call(vm.VCPU(), fnNop); err == nil {
		t.Fatal("call on a destroyed object succeeded")
	}
	for _, fr := range region.Frames() {
		if !pm.InUse(fr) {
			t.Fatalf("lent frame %d freed by the manager", fr)
		}
	}
	if err := region.Free(); err != nil {
		t.Fatalf("the owner could not free its lent region: %v", err)
	}
	if _, err := f.mgr.CreateObject("lent", mem.PageSize); err != nil {
		t.Fatalf("name not free after destroy: %v", err)
	}
	h2, err := g.Attach("lent")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h2.Call(vm.VCPU(), fnNop); err != nil {
		t.Fatal(err)
	}
	if err := f.mgr.Fsck(); err != nil {
		t.Fatal(err)
	}
}

// TestCleanupGuestAfterReattachFreesRevokedBuffers: attaching a name
// again after its attachment was revoked retires the revoked one, so
// CleanupGuest releases its exchange buffer and ring with the rest.
// attach → Revoke → attach → CleanupGuest must leave exactly as many
// frames allocated as attach → CleanupGuest, with and without a ring.
func TestCleanupGuestAfterReattachFreesRevokedBuffers(t *testing.T) {
	for _, ring := range []bool{false, true} {
		kept := func(reattach bool) int {
			f := newFixture(t)
			if _, err := f.mgr.CreateObject("obj", mem.PageSize); err != nil {
				t.Fatal(err)
			}
			vm, g := f.newGuest(t, "g")
			free := f.hv.Phys().FreeFrames()
			attach := func() {
				h, err := g.Attach("obj")
				if err != nil {
					t.Fatal(err)
				}
				if ring {
					if _, err := h.Ring(vm.VCPU(), RingConfig{Depth: 8}); err != nil {
						t.Fatal(err)
					}
				}
			}
			attach()
			if reattach {
				if err := f.mgr.Revoke(vm, "obj"); err != nil {
					t.Fatal(err)
				}
				attach()
			}
			if err := f.mgr.Fsck(); err != nil {
				t.Fatal(err)
			}
			if err := f.mgr.CleanupGuest(vm); err != nil {
				t.Fatal(err)
			}
			return free - f.hv.Phys().FreeFrames()
		}
		if once, again := kept(false), kept(true); again != once {
			t.Errorf("ring=%v: %d frames still allocated after re-attach and cleanup, %d after one attach", ring, again, once)
		}
	}
}
