package core

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"github.com/elisa-go/elisa/internal/cpu"
	"github.com/elisa-go/elisa/internal/ept"
	"github.com/elisa-go/elisa/internal/gpt"
	"github.com/elisa-go/elisa/internal/mem"
)

// wantKilled asserts that err is a hypervisor kill with the given exit
// reason.
func wantKilled(t *testing.T, err error, reason cpu.ExitReason) {
	t.Helper()
	var k *cpu.Killed
	if !errors.As(err, &k) {
		t.Fatalf("want kill, got %v", err)
	}
	if k.Reason != reason {
		t.Fatalf("killed on %v, want %v", k.Reason, reason)
	}
}

// Attack 1: the default context must not translate the shared object —
// reading the object's GPA without switching contexts is an EPT violation
// and a death sentence.
func TestAttackObjectUnreachableFromDefaultContext(t *testing.T) {
	f := newFixture(t)
	obj, _ := f.mgr.CreateObject("secret", mem.PageSize)
	_ = obj.Region().Write(nil, 0, []byte("the isolated bytes"))
	vm, g := f.newGuest(t, "attacker")
	if _, err := g.Attach("secret"); err != nil {
		t.Fatal(err)
	}
	err := vm.Run(func(v *cpu.VCPU) error {
		return v.ReadGPA(obj.GPA(), make([]byte, 8))
	})
	wantKilled(t, err, cpu.ExitEPTViolation)
	if !vm.Dead() {
		t.Fatal("attacker survived")
	}
}

// Attack 2: VMFUNC straight into the sub context from the guest's own code
// (bypassing the gate). The switch itself succeeds — VMFUNC is
// unprivileged — but the very next instruction fetch faults, because the
// attacker's code page is not executable (or even mapped) in the sub
// context.
func TestAttackDirectVMFuncBypassingGate(t *testing.T) {
	f := newFixture(t)
	_, _ = f.mgr.CreateObject("obj", mem.PageSize)
	vm, g := f.newGuest(t, "attacker")
	h, _ := g.Attach("obj")

	// The attacker's own code lives in its RAM, guest-mapped executable.
	ownCode := mem.GVA(0x2000)
	_ = vm.VCPU().GPT().Map(ownCode, 0x2000, gpt.PermRWX)

	err := vm.Run(func(v *cpu.VCPU) error {
		if err := v.VMFunc(cpu.VMFuncLeafEPTPSwitch, h.SubIndex()); err != nil {
			return err
		}
		// Now in the sub context; continue executing "own" code.
		return v.FetchExec(ownCode)
	})
	wantKilled(t, err, cpu.ExitEPTViolation)
}

// Attack 3: in the gate context, nothing but the gate page executes.
func TestAttackExecuteNonGateCodeInGateContext(t *testing.T) {
	f := newFixture(t)
	_, _ = f.mgr.CreateObject("obj", mem.PageSize)
	vm, g := f.newGuest(t, "attacker")
	_, _ = g.Attach("obj")
	ownCode := mem.GVA(0x2000)
	_ = vm.VCPU().GPT().Map(ownCode, 0x2000, gpt.PermRWX)

	err := vm.Run(func(v *cpu.VCPU) error {
		if err := v.VMFunc(cpu.VMFuncLeafEPTPSwitch, IdxGate); err != nil {
			return err
		}
		return v.FetchExec(ownCode)
	})
	wantKilled(t, err, cpu.ExitEPTViolation)
}

// Attack 4: VMFUNC to a slot that was never granted (empty EPTP-list
// entry) faults into the hypervisor.
func TestAttackVMFuncToUngrantedSlot(t *testing.T) {
	f := newFixture(t)
	_, _ = f.mgr.CreateObject("obj", mem.PageSize)
	vm, g := f.newGuest(t, "attacker")
	_, _ = g.Attach("obj")
	err := vm.Run(func(v *cpu.VCPU) error {
		return v.VMFunc(cpu.VMFuncLeafEPTPSwitch, 200)
	})
	wantKilled(t, err, cpu.ExitVMFuncFault)
}

// Attack 5: a forged Handle naming a slot the gate never granted is
// refused by the gate before any switch to a sub context happens; the
// guest survives (the gate is exactly the trusted intermediary that makes
// this a clean failure instead of a kill).
func TestAttackForgedHandleRefusedByGate(t *testing.T) {
	f := newFixture(t)
	_, _ = f.mgr.CreateObject("obj", mem.PageSize)
	vm, g := f.newGuest(t, "attacker")
	h, _ := g.Attach("obj")
	forged := &Handle{
		g:            g,
		objName:      "obj",
		subIdx:       h.SubIndex() + 7, // never granted
		gateGVA:      h.gateGVA,
		exchangeGPA:  h.exchangeGPA,
		exchangeSize: h.exchangeSize,
		objSize:      h.objSize,
	}
	if _, err := forged.Call(vm.VCPU(), fnNop); err == nil {
		t.Fatal("forged handle passed the gate")
	}
	if vm.Dead() {
		t.Fatal("gate refusal must not kill")
	}
	// The refusal returned the guest to its default context.
	if vm.VCPU().EPTP() != vm.DefaultEPT().Pointer() {
		t.Fatal("guest stranded outside its default context")
	}
}

// Attack 6: guest A's sub context must not translate guest B's private
// RAM, stack, or exchange buffer. The strongest version: a manager
// function (running in A's sub context) tries guest RAM — even the
// manager's published code cannot cross that boundary.
func TestAttackGuestRAMUnreachableFromSubContext(t *testing.T) {
	f := newFixture(t)
	_, _ = f.mgr.CreateObject("obj", mem.PageSize)
	vm, g := f.newGuest(t, "victim-caller")
	h, _ := g.Attach("obj")
	_, err := h.Call(vm.VCPU(), fnTouchGuestRAM)
	wantKilled(t, err, cpu.ExitEPTViolation)
}

// Attack 7: exchange buffers are per-attachment private: guest B never
// observes guest A's staged data, even at the *same* guest-physical
// address, because each default context maps its own region there.
func TestExchangeBuffersAreDisjoint(t *testing.T) {
	f := newFixture(t)
	_, _ = f.mgr.CreateObject("obj", mem.PageSize)
	vmA, gA := f.newGuest(t, "A")
	vmB, gB := f.newGuest(t, "B")
	hA, _ := gA.Attach("obj")
	hB, _ := gB.Attach("obj")
	if hA.ExchangeGPA() != hB.ExchangeGPA() {
		t.Logf("note: exchange GPAs differ (%v vs %v) — still fine", hA.ExchangeGPA(), hB.ExchangeGPA())
	}
	_ = hA.ExchangeWrite(vmA.VCPU(), 0, []byte("A-private-staging"))
	got := make([]byte, 17)
	_ = hB.ExchangeRead(vmB.VCPU(), 0, got)
	if bytes.Equal(got, []byte("A-private-staging")) {
		t.Fatal("guest B read guest A's exchange buffer")
	}
}

// Attack 8: a read-only grant is enforced by the sub context's EPT, not by
// library politeness: the write faults even though it comes from the
// manager's own published function.
func TestReadOnlyGrantEnforced(t *testing.T) {
	f := newFixture(t)
	_, _ = f.mgr.CreateObject("obj", mem.PageSize)
	vm, g := f.newGuest(t, "reader")
	_ = f.mgr.Grant("obj", vm, ept.PermRead)
	h, _ := g.Attach("obj")

	// Reads are fine.
	if _, err := h.Call(vm.VCPU(), fnReadObject, 0, 8); err != nil {
		t.Fatal(err)
	}
	// Writes die.
	_ = h.ExchangeWrite(vm.VCPU(), 0, []byte("xx"))
	_, err := h.Call(vm.VCPU(), fnWriteObject, 0, 2)
	wantKilled(t, err, cpu.ExitEPTViolation)
}

// Attack 9: after revocation, the cooperative path is refused and the
// bypass path is fatal.
func TestRevocation(t *testing.T) {
	f := newFixture(t)
	_, _ = f.mgr.CreateObject("obj", mem.PageSize)

	// Cooperative guest: gate refuses, guest lives.
	vm1, g1 := f.newGuest(t, "coop")
	h1, _ := g1.Attach("obj")
	if err := f.mgr.Revoke(vm1, "obj"); err != nil {
		t.Fatal(err)
	}
	if _, err := h1.Call(vm1.VCPU(), fnNop); err == nil {
		t.Fatal("call after revoke succeeded")
	}
	if vm1.Dead() {
		t.Fatal("cooperative guest killed by gate refusal")
	}

	// Bypassing guest: VMFUNC to the revoked slot faults fatally.
	vm2, g2 := f.newGuest(t, "bypass")
	h2, _ := g2.Attach("obj")
	if err := f.mgr.Revoke(vm2, "obj"); err != nil {
		t.Fatal(err)
	}
	err := vm2.Run(func(v *cpu.VCPU) error {
		return v.VMFunc(cpu.VMFuncLeafEPTPSwitch, h2.SubIndex())
	})
	wantKilled(t, err, cpu.ExitVMFuncFault)
}

// Attack 10: object guard pages — manager code overrunning the object
// linearly faults instead of wandering into the next object.
func TestObjectGuardPage(t *testing.T) {
	f := newFixture(t)
	_, _ = f.mgr.CreateObject("first", mem.PageSize)
	_, _ = f.mgr.CreateObject("second", mem.PageSize)
	vm, g := f.newGuest(t, "g")
	h, _ := g.Attach("first")
	_, err := h.Call(vm.VCPU(), fnOverrun)
	wantKilled(t, err, cpu.ExitEPTViolation)
}

// Attack 11: the gate page cannot be patched from anywhere the guest can
// write — default context (RX), nor is the manager code page reachable at
// all from the default context.
func TestCodePagesImmutable(t *testing.T) {
	f := newFixture(t)
	_, _ = f.mgr.CreateObject("obj", mem.PageSize)
	vm, g := f.newGuest(t, "g")
	h, _ := g.Attach("obj")
	err := vm.Run(func(v *cpu.VCPU) error {
		return v.WriteGPA(mem.GPA(h.gateGVA), []byte{0x90})
	})
	wantKilled(t, err, cpu.ExitEPTViolation)

	vm2, g2 := f.newGuest(t, "g2")
	_, _ = g2.Attach("obj")
	err = vm2.Run(func(v *cpu.VCPU) error {
		return v.ReadGPA(MgrCodeGPA, make([]byte, 8))
	})
	wantKilled(t, err, cpu.ExitEPTViolation)
}

// Table 1 of the paper, as executable truth: ELISA gives shared access
// (two guests see the same bytes), isolation (default contexts cannot
// reach the object), and low overhead (no exits on the data path).
func TestTable1Properties(t *testing.T) {
	f := newFixture(t)
	obj, _ := f.mgr.CreateObject("t1", mem.PageSize)
	vmA, gA := f.newGuest(t, "A")
	vmB, gB := f.newGuest(t, "B")
	hA, _ := gA.Attach("t1")
	hB, _ := gB.Attach("t1")

	// Shared access.
	_ = hA.ExchangeWrite(vmA.VCPU(), 0, []byte{0x42})
	if _, err := hA.Call(vmA.VCPU(), fnWriteObject, 0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := hB.Call(vmB.VCPU(), fnReadObject, 0, 1); err != nil {
		t.Fatal(err)
	}
	var b [1]byte
	_ = hB.ExchangeRead(vmB.VCPU(), 0, b[:])
	if b[0] != 0x42 {
		t.Fatal("shared access broken")
	}

	// Low overhead: zero exits across both calls above.
	if vmA.VCPU().Stats().Exits+vmB.VCPU().Stats().Exits > 4 { // only the 2 attach hypercalls each
		t.Fatalf("data path exited: A=%d B=%d", vmA.VCPU().Stats().Exits, vmB.VCPU().Stats().Exits)
	}

	// Isolation: a third guest that never attached cannot see the object.
	vmC, _ := f.newGuest(t, "C")
	err := vmC.Run(func(v *cpu.VCPU) error {
		return v.ReadGPA(obj.GPA(), make([]byte, 1))
	})
	wantKilled(t, err, cpu.ExitEPTViolation)
}

// Property: arbitrary payloads staged by one guest and written through
// ELISA are read back bit-exact by another guest, and never visible to a
// third party's default context.
func TestCrossGuestRoundTripProperty(t *testing.T) {
	f := newFixture(t)
	_, _ = f.mgr.CreateObject("prop", 4*mem.PageSize)
	vmA, gA := f.newGuest(t, "A")
	vmB, gB := f.newGuest(t, "B")
	hA, _ := gA.Attach("prop")
	hB, _ := gB.Attach("prop")

	check := func(payload []byte, off uint16) bool {
		if len(payload) == 0 {
			payload = []byte{0}
		}
		if len(payload) > 1024 {
			payload = payload[:1024]
		}
		objOff := uint64(off % (3 * mem.PageSize))
		if err := hA.ExchangeWrite(vmA.VCPU(), 0, payload); err != nil {
			return false
		}
		if _, err := hA.Call(vmA.VCPU(), fnWriteObject, objOff, uint64(len(payload))); err != nil {
			return false
		}
		if _, err := hB.Call(vmB.VCPU(), fnReadObject, objOff, uint64(len(payload))); err != nil {
			return false
		}
		got := make([]byte, len(payload))
		if err := hB.ExchangeRead(vmB.VCPU(), 0, got); err != nil {
			return false
		}
		return bytes.Equal(got, payload)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Attack 12: guest-page-table games. The attacker remaps the gate's GVA
// in its own page tables to point at attacker-controlled RAM. The guest
// stage of the walk is attacker-owned, so the fetch "succeeds" in the
// default context — but after the switch, the gate context has no
// translation for that guest-physical page, and the fetch faults. GVA
// indirection cannot reach around EPT separation.
func TestAttackGateGVARemap(t *testing.T) {
	f := newFixture(t)
	_, _ = f.mgr.CreateObject("obj", mem.PageSize)
	vm, g := f.newGuest(t, "remapper")
	h, _ := g.Attach("obj")

	// Remap the gate GVA onto the attacker's own RAM page 2.
	v := vm.VCPU()
	gateGVA := mem.GVA(h.gateGVA)
	if err := v.GPT().Unmap(gateGVA); err != nil {
		t.Fatal(err)
	}
	if err := v.GPT().Map(gateGVA, 0x2000, gpt.PermRWX); err != nil {
		t.Fatal(err)
	}

	err := vm.Run(func(v *cpu.VCPU) error {
		// The fetch in the default context now lands in guest RAM —
		// fine, it is the guest's own executable memory...
		if err := v.FetchExec(gateGVA); err != nil {
			return err
		}
		// ...but continuing "gate" execution after the switch fetches
		// from a GPA the gate context does not map.
		if err := v.VMFunc(cpu.VMFuncLeafEPTPSwitch, IdxGate); err != nil {
			return err
		}
		return v.FetchExec(gateGVA)
	})
	wantKilled(t, err, cpu.ExitEPTViolation)
}

// Attack 13: the exchange buffer is RW, never executable — staging shell
// code there and jumping to it faults in every context.
func TestAttackExecuteExchangeBuffer(t *testing.T) {
	f := newFixture(t)
	_, _ = f.mgr.CreateObject("obj", mem.PageSize)
	vm, g := f.newGuest(t, "shellcoder")
	h, _ := g.Attach("obj")
	v := vm.VCPU()
	_ = h.ExchangeWrite(v, 0, []byte{0x90, 0x90, 0xcc})
	exGVA := mem.GVA(h.ExchangeGPA())
	_ = v.GPT().Map(exGVA, h.ExchangeGPA(), gpt.PermRWX) // guest maps it X...
	err := vm.Run(func(v *cpu.VCPU) error {
		return v.FetchExec(exGVA) // ...but the EPT says rw-
	})
	wantKilled(t, err, cpu.ExitEPTViolation)
}

// Attack: a live guest whose ELISA state was cleaned up keeps using its
// old exchange-buffer address. CleanupGuest frees those frames, and the
// next VM's RAM reuses them; the old address must no longer translate,
// or the first guest reads the second's private memory with no exit.
func TestAttackExchangeBufferAfterCleanupGuest(t *testing.T) {
	f := newFixture(t)
	if _, err := f.mgr.CreateObject("obj", mem.PageSize); err != nil {
		t.Fatal(err)
	}
	vmA, gA := f.newGuest(t, "a")
	h, err := gA.Attach("obj")
	if err != nil {
		t.Fatal(err)
	}
	exch := h.ExchangeGPA()
	if err := h.ExchangeWrite(vmA.VCPU(), 0, []byte("A staged")); err != nil { // warms A's TLB
		t.Fatal(err)
	}
	if err := f.mgr.CleanupGuest(vmA); err != nil {
		t.Fatal(err)
	}
	vmB, err := f.hv.CreateVM("b", 16*mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	secret := []byte("B private")
	for p := 0; p < 16; p++ {
		if err := vmB.VCPU().WriteGPA(mem.GPA(p*mem.PageSize), secret); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, len(secret))
	err = vmA.VCPU().ReadGPA(exch, buf)
	if err == nil {
		t.Fatalf("guest a read %q through its freed exchange buffer", buf)
	}
	wantKilled(t, err, cpu.ExitEPTViolation)
	if _, perm, err := vmA.DefaultEPT().Lookup(exch); err != nil || perm != 0 {
		t.Fatalf("default context still maps the freed exchange buffer (%v, %v)", perm, err)
	}
}
