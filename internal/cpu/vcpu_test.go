package cpu

import (
	"bytes"
	"errors"
	"testing"

	"github.com/elisa-go/elisa/internal/ept"
	"github.com/elisa-go/elisa/internal/gpt"
	"github.com/elisa-go/elisa/internal/mem"
)

// scriptedHandler is a test hypervisor: it records exits and consults a
// callback for the verdict.
type scriptedHandler struct {
	exits   []Exit
	verdict func(v *VCPU, e *Exit) (Action, uint64, error)
}

func (h *scriptedHandler) HandleExit(v *VCPU, e *Exit) (Action, uint64, error) {
	h.exits = append(h.exits, *e)
	if h.verdict != nil {
		return h.verdict(v, e)
	}
	return ActionResume, 0, nil
}

func newTestVCPU(t *testing.T, frames int) (*VCPU, *mem.PhysMem, *scriptedHandler) {
	t.Helper()
	pm := mem.MustNewPhysMem(frames * mem.PageSize)
	h := &scriptedHandler{}
	v, err := New(Config{ID: 1, Phys: pm, Handler: h})
	if err != nil {
		t.Fatal(err)
	}
	return v, pm, h
}

func TestNewValidation(t *testing.T) {
	pm := mem.MustNewPhysMem(2 * mem.PageSize)
	if _, err := New(Config{Handler: &scriptedHandler{}}); err == nil {
		t.Error("missing Phys accepted")
	}
	if _, err := New(Config{Phys: pm}); err == nil {
		t.Error("missing Handler accepted")
	}
}

func TestVMCallRoundTripCostAndResult(t *testing.T) {
	v, _, h := newTestVCPU(t, 8)
	h.verdict = func(_ *VCPU, e *Exit) (Action, uint64, error) {
		if e.Reason != ExitHypercall || e.Hypercall != 42 || e.Args[0] != 7 {
			t.Errorf("exit = %+v", e)
		}
		return ActionResume, 99, nil
	}
	start := v.Clock().Now()
	ret, err := v.VMCall(42, 7)
	if err != nil {
		t.Fatal(err)
	}
	if ret != 99 || v.Regs[RAX] != 99 {
		t.Fatalf("ret=%d rax=%d", ret, v.Regs[RAX])
	}
	// Raw exit+entry transition; the hv layer adds dispatch on top to
	// total the paper's 699 ns.
	m := v.Cost()
	if d := v.Clock().Elapsed(start); d != m.VMExit+m.VMEntry {
		t.Fatalf("VMCALL transition cost %v, want %v", d, m.VMExit+m.VMEntry)
	}
	if s := v.Stats(); s.Exits != 1 || s.Hypercalls != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestVMCallTooManyArgs(t *testing.T) {
	v, _, _ := newTestVCPU(t, 8)
	if _, err := v.VMCall(1, 1, 2, 3, 4, 5); err == nil {
		t.Fatal("5 args accepted")
	}
}

func TestVMCallKill(t *testing.T) {
	v, _, h := newTestVCPU(t, 8)
	h.verdict = func(_ *VCPU, _ *Exit) (Action, uint64, error) {
		return ActionKill, 0, errors.New("policy: forbidden hypercall")
	}
	_, err := v.VMCall(13)
	var k *Killed
	if !errors.As(err, &k) {
		t.Fatalf("want *Killed, got %v", err)
	}
	if k.Reason != ExitHypercall || !v.Dead() {
		t.Fatalf("killed = %+v dead=%v", k, v.Dead())
	}
	if _, err := v.VMCall(1); err == nil {
		t.Fatal("dead vcpu accepted hypercall")
	}
}

// buildSwitchFixture prepares two EPT contexts mapping distinct data frames
// at the same GPA, plus an EPTP list with both installed.
func buildSwitchFixture(t *testing.T, v *VCPU, pm *mem.PhysMem) (list *ept.List, gpa mem.GPA, fA, fB mem.HFN) {
	t.Helper()
	tA, err := ept.New(pm)
	if err != nil {
		t.Fatal(err)
	}
	tB, err := ept.New(pm)
	if err != nil {
		t.Fatal(err)
	}
	fA, _ = pm.AllocFrame()
	fB, _ = pm.AllocFrame()
	gpa = mem.GPA(0x10000)
	if err := tA.Map(gpa, fA.Page(), ept.PermRW); err != nil {
		t.Fatal(err)
	}
	if err := tB.Map(gpa, fB.Page(), ept.PermRW); err != nil {
		t.Fatal(err)
	}
	list, err = ept.NewList(pm)
	if err != nil {
		t.Fatal(err)
	}
	_ = list.Set(0, tA.Pointer())
	_ = list.Set(1, tB.Pointer())
	v.SetVMCS(VMCS{EPTP: tA.Pointer(), VMFuncEnabled: true, EPTPListAddr: list.Addr()})
	return list, gpa, fA, fB
}

func TestVMFuncSwitchesWithoutExit(t *testing.T) {
	v, pm, h := newTestVCPU(t, 64)
	_, gpa, fA, fB := buildSwitchFixture(t, v, pm)

	_ = pm.Write(fA.Page(), []byte("context A"))
	_ = pm.Write(fB.Page(), []byte("context B"))

	buf := make([]byte, 9)
	if err := v.ReadGPA(gpa, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "context A" {
		t.Fatalf("before switch: %q", buf)
	}

	start := v.Clock().Now()
	if err := v.VMFunc(VMFuncLeafEPTPSwitch, 1); err != nil {
		t.Fatal(err)
	}
	cost := v.Clock().Elapsed(start)
	if want := v.Cost().VMFunc; cost != want {
		t.Fatalf("VMFUNC cost %v, want %v", cost, want)
	}
	if len(h.exits) != 0 {
		t.Fatalf("VMFUNC caused %d exits — it must be exit-less", len(h.exits))
	}

	if err := v.ReadGPA(gpa, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "context B" {
		t.Fatalf("after switch: %q", buf)
	}
	if s := v.Stats(); s.VMFuncs != 1 || s.Exits != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestVMFuncFaultConditions(t *testing.T) {
	cases := []struct {
		name  string
		setup func(v *VCPU, list *ept.List)
		leaf  int
		index int
	}{
		{"disabled controls", func(v *VCPU, l *ept.List) {
			s := v.VMCS()
			s.VMFuncEnabled = false
			v.SetVMCS(s)
		}, 0, 1},
		{"no list installed", func(v *VCPU, l *ept.List) {
			s := v.VMCS()
			s.EPTPListAddr = 0
			v.SetVMCS(s)
		}, 0, 1},
		{"unsupported leaf", nil, 1, 1},
		{"index out of range", nil, 0, ept.ListEntries},
		{"negative index", nil, 0, -1},
		{"empty slot", nil, 0, 7},
		{"revoked slot", func(v *VCPU, l *ept.List) { _ = l.Revoke(1) }, 0, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			v, pm, h := newTestVCPU(t, 64)
			list, _, _, _ := buildSwitchFixture(t, v, pm)
			h.verdict = func(_ *VCPU, e *Exit) (Action, uint64, error) {
				if e.Reason != ExitVMFuncFault {
					t.Errorf("exit reason %v", e.Reason)
				}
				return ActionKill, 0, errors.New("vmfunc protocol violation")
			}
			if c.setup != nil {
				c.setup(v, list)
			}
			before := v.EPTP()
			err := v.VMFunc(c.leaf, c.index)
			var k *Killed
			if !errors.As(err, &k) {
				t.Fatalf("want kill, got %v", err)
			}
			if v.EPTP() != before && !v.Dead() {
				t.Fatal("faulting VMFUNC changed EPTP")
			}
			if len(h.exits) != 1 {
				t.Fatalf("exits = %d", len(h.exits))
			}
		})
	}
}

func TestVMFuncFaultResumed(t *testing.T) {
	// A handler may also resume a faulting VMFUNC; the instruction then
	// reports the fault to the guest code as an error without killing.
	v, pm, h := newTestVCPU(t, 64)
	buildSwitchFixture(t, v, pm)
	h.verdict = func(_ *VCPU, _ *Exit) (Action, uint64, error) {
		return ActionResume, 0, nil
	}
	if err := v.VMFunc(0, 9); err == nil {
		t.Fatal("resumed fault reported success")
	}
	if v.Dead() {
		t.Fatal("resume killed the vcpu")
	}
}

func TestEPTViolationExitAndLazyMap(t *testing.T) {
	v, pm, h := newTestVCPU(t, 64)
	tbl, _ := ept.New(pm)
	data, _ := pm.AllocFrame()
	v.SetVMCS(VMCS{EPTP: tbl.Pointer()})
	// Handler maps the page on first violation (demand paging).
	h.verdict = func(_ *VCPU, e *Exit) (Action, uint64, error) {
		if e.Reason != ExitEPTViolation {
			t.Errorf("reason = %v", e.Reason)
		}
		if err := tbl.Map(e.Violation.Addr-mem.GPA(e.Violation.Addr.Offset()), data.Page(), ept.PermRW); err != nil {
			t.Error(err)
		}
		return ActionResume, 0, nil
	}
	if err := v.WriteGPA(0x7008, []byte{0xab}); err != nil {
		t.Fatal(err)
	}
	if len(h.exits) != 1 {
		t.Fatalf("exits = %d, want 1", len(h.exits))
	}
	// Second access: no further exits (mapping cached and installed).
	if err := v.WriteGPA(0x7010, []byte{0xcd}); err != nil {
		t.Fatal(err)
	}
	if len(h.exits) != 1 {
		t.Fatalf("exits = %d after second access", len(h.exits))
	}
}

func TestEPTViolationKill(t *testing.T) {
	v, pm, h := newTestVCPU(t, 64)
	tbl, _ := ept.New(pm)
	v.SetVMCS(VMCS{EPTP: tbl.Pointer()})
	h.verdict = func(_ *VCPU, _ *Exit) (Action, uint64, error) {
		return ActionKill, 0, nil
	}
	err := v.ReadGPA(0x5000, make([]byte, 1))
	var k *Killed
	if !errors.As(err, &k) {
		t.Fatalf("want kill, got %v", err)
	}
	if k.Reason != ExitEPTViolation {
		t.Fatalf("reason = %v", k.Reason)
	}
	// The violation is preserved as the cause.
	var viol *ept.Violation
	if !errors.As(err, &viol) {
		t.Fatalf("cause not a violation: %v", err)
	}
}

func TestBrokenHandlerLoopDetected(t *testing.T) {
	v, pm, _ := newTestVCPU(t, 64)
	tbl, _ := ept.New(pm)
	v.SetVMCS(VMCS{EPTP: tbl.Pointer()})
	// Default handler resumes without fixing anything.
	err := v.ReadGPA(0x5000, make([]byte, 1))
	if err == nil || errors.As(err, new(*Killed)) {
		t.Fatalf("want loop-detection error, got %v", err)
	}
}

func TestNoEPTContext(t *testing.T) {
	v, _, _ := newTestVCPU(t, 8)
	if err := v.ReadGPA(0x1000, make([]byte, 1)); err == nil {
		t.Fatal("access with nil EPTP succeeded")
	}
}

func TestCrossPageReadWrite(t *testing.T) {
	v, pm, _ := newTestVCPU(t, 64)
	tbl, _ := ept.New(pm)
	frames, _ := pm.AllocFrames(2)
	_ = tbl.MapRange(0x8000, frames, ept.PermRW)
	v.SetVMCS(VMCS{EPTP: tbl.Pointer()})

	msg := bytes.Repeat([]byte{0x5c}, 300)
	gpa := mem.GPA(0x8000 + mem.PageSize - 100) // straddles the boundary
	if err := v.WriteGPA(gpa, msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if err := v.ReadGPA(gpa, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("cross-page round trip corrupted data")
	}
}

func TestU64GPA(t *testing.T) {
	v, pm, _ := newTestVCPU(t, 64)
	tbl, _ := ept.New(pm)
	f, _ := pm.AllocFrame()
	_ = tbl.Map(0x4000, f.Page(), ept.PermRW)
	v.SetVMCS(VMCS{EPTP: tbl.Pointer()})
	if err := v.WriteU64GPA(0x4010, 0xfeedface); err != nil {
		t.Fatal(err)
	}
	got, err := v.ReadU64GPA(0x4010)
	if err != nil || got != 0xfeedface {
		t.Fatalf("u64: %x, %v", got, err)
	}
}

func TestGVAPathAndGuestFault(t *testing.T) {
	v, pm, _ := newTestVCPU(t, 64)
	tbl, _ := ept.New(pm)
	f, _ := pm.AllocFrame()
	_ = tbl.Map(0x4000, f.Page(), ept.PermRW)
	v.SetVMCS(VMCS{EPTP: tbl.Pointer()})
	_ = v.GPT().Map(0x40_0000, 0x4000, gpt.PermRW)

	if err := v.WriteGVA(0x40_0020, []byte("hi")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 2)
	if err := v.ReadGVA(0x40_0020, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "hi" {
		t.Fatalf("gva round trip: %q", got)
	}
	// Unmapped GVA: guest fault, not an exit.
	err := v.ReadGVA(0x99_0000, got)
	var fault *gpt.Fault
	if !errors.As(err, &fault) {
		t.Fatalf("want guest fault, got %v", err)
	}
	if s := v.Stats(); s.Exits != 0 {
		t.Fatal("guest fault caused a VM exit")
	}
}

func TestFetchExecEnforcesNXAcrossBothStages(t *testing.T) {
	v, pm, h := newTestVCPU(t, 64)
	tbl, _ := ept.New(pm)
	f, _ := pm.AllocFrame()
	_ = tbl.Map(0x4000, f.Page(), ept.PermRW) // no exec in EPT
	v.SetVMCS(VMCS{EPTP: tbl.Pointer()})
	_ = v.GPT().Map(0x40_0000, 0x4000, gpt.PermRWX)

	h.verdict = func(_ *VCPU, _ *Exit) (Action, uint64, error) {
		return ActionKill, 0, errors.New("W^X")
	}
	if err := v.FetchExec(0x40_0000); err == nil {
		t.Fatal("exec of non-executable EPT page succeeded")
	}
	// Guest-stage NX: EPT grants exec but the guest mapping does not.
	v2, pm2, _ := newTestVCPU(t, 64)
	tbl2, _ := ept.New(pm2)
	f2, _ := pm2.AllocFrame()
	_ = tbl2.Map(0x4000, f2.Page(), ept.PermRX)
	v2.SetVMCS(VMCS{EPTP: tbl2.Pointer()})
	_ = v2.GPT().Map(0x40_0000, 0x4000, gpt.PermRW)
	err := v2.FetchExec(0x40_0000)
	var fault *gpt.Fault
	if !errors.As(err, &fault) {
		t.Fatalf("want guest fault, got %v", err)
	}
}

func TestInGuestContext(t *testing.T) {
	v, pm, _ := newTestVCPU(t, 64)
	tbl, _ := ept.New(pm)
	f, _ := pm.AllocFrame()
	_ = tbl.Map(0x4000, f.Page(), ept.PermRX)
	v.SetVMCS(VMCS{EPTP: tbl.Pointer()})
	_ = v.GPT().Map(0x40_0000, 0x4000, gpt.PermRX)

	ran := false
	if err := v.InGuestContext(0x40_0000, func(*VCPU) error { ran = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("body did not run")
	}
	if err := v.InGuestContext(0x50_0000, func(*VCPU) error { ran = false; return nil }); err == nil {
		t.Fatal("fetch at unmapped entry succeeded")
	}
	if !ran {
		t.Fatal("body ran despite fetch fault")
	}
}

func TestCopyGPAtoGPA(t *testing.T) {
	v, pm, _ := newTestVCPU(t, 64)
	tbl, _ := ept.New(pm)
	frames, _ := pm.AllocFrames(2)
	_ = tbl.Map(0x1000, frames[0].Page(), ept.PermRW)
	_ = tbl.Map(0x2000, frames[1].Page(), ept.PermRW)
	v.SetVMCS(VMCS{EPTP: tbl.Pointer()})

	_ = v.WriteGPA(0x1000, []byte("payload!"))
	if err := v.CopyGPAtoGPA(0x2000, 0x1000, 8); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 8)
	_ = v.ReadGPA(0x2000, got)
	if string(got) != "payload!" {
		t.Fatalf("copy: %q", got)
	}
}

func TestTLBWarmAccessIsCheaper(t *testing.T) {
	v, pm, _ := newTestVCPU(t, 64)
	tbl, _ := ept.New(pm)
	f, _ := pm.AllocFrame()
	_ = tbl.Map(0x4000, f.Page(), ept.PermRW)
	v.SetVMCS(VMCS{EPTP: tbl.Pointer()})

	t0 := v.Clock().Now()
	_, _ = v.ReadU64GPA(0x4000)
	cold := v.Clock().Elapsed(t0)
	t1 := v.Clock().Now()
	_, _ = v.ReadU64GPA(0x4008)
	warm := v.Clock().Elapsed(t1)
	if warm >= cold {
		t.Fatalf("warm access (%v) not cheaper than cold (%v)", warm, cold)
	}
	if cold-warm != v.Cost().TLBMiss {
		t.Fatalf("cold-warm = %v, want TLBMiss %v", cold-warm, v.Cost().TLBMiss)
	}
}

func TestChargeHelpers(t *testing.T) {
	v, _, _ := newTestVCPU(t, 8)
	t0 := v.Clock().Now()
	v.Charge(100)
	v.ChargeInstr(5)
	if d := v.Clock().Elapsed(t0); d != 105 {
		t.Fatalf("charged %v", d)
	}
}

func TestExitReasonString(t *testing.T) {
	for _, r := range []ExitReason{ExitHypercall, ExitEPTViolation, ExitVMFuncFault, ExitShutdown, ExitReason(99)} {
		if r.String() == "" {
			t.Fatalf("empty string for %d", int(r))
		}
	}
}

func TestFlushTLBOnSwitch(t *testing.T) {
	pm := mem.MustNewPhysMem(64 * mem.PageSize)
	h := &scriptedHandler{}
	v, err := New(Config{ID: 1, Phys: pm, Handler: h, FlushTLBOnSwitch: true})
	if err != nil {
		t.Fatal(err)
	}
	buildSwitchFixture(t, v, pm)
	// Warm a translation in context A.
	if _, err := v.ReadU64GPA(0x10000); err != nil {
		t.Fatal(err)
	}
	if v.TLB().Len() == 0 {
		t.Fatal("no TLB entry after access")
	}
	// Switching with the untagged model flushes everything.
	if err := v.VMFunc(VMFuncLeafEPTPSwitch, 1); err != nil {
		t.Fatal(err)
	}
	if v.TLB().Len() != 0 {
		t.Fatalf("TLB kept %d entries across an untagged switch", v.TLB().Len())
	}

	// The tagged default keeps them.
	v2, _ := New(Config{ID: 2, Phys: pm, Handler: h})
	buildSwitchFixture(t, v2, pm)
	if _, err := v2.ReadU64GPA(0x10000); err != nil {
		t.Fatal(err)
	}
	before := v2.TLB().Len()
	if err := v2.VMFunc(VMFuncLeafEPTPSwitch, 1); err != nil {
		t.Fatal(err)
	}
	if v2.TLB().Len() != before {
		t.Fatalf("tagged TLB lost entries: %d -> %d", before, v2.TLB().Len())
	}
}

// TestU64AccessCrossingPageTranslatesBothPages: an 8-byte access in the
// last 7 bytes of a page reaches into the next guest page, which need not
// be the next host frame. The tail must go through that page's own
// translation: into whatever frame it maps, or an EPT violation when it
// is unmapped — never into the host frame that happens to follow.
func TestU64AccessCrossingPageTranslatesBothPages(t *testing.T) {
	v, pm, h := newTestVCPU(t, 64)
	h.verdict = func(v *VCPU, e *Exit) (Action, uint64, error) { return ActionKill, 0, nil }
	run, err := pm.AllocFramesContiguous(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	page0, next := run[0], run[1] // next: the host frame after page 0's
	const sentinel = 0x5007       // say, a next-level EPT table pointer
	if err := pm.WriteU64(next.Page(), sentinel); err != nil {
		t.Fatal(err)
	}
	tbl, _ := ept.New(pm)
	if err := tbl.Map(0, page0.Page(), ept.PermRW); err != nil {
		t.Fatal(err)
	}
	v.SetVMCS(VMCS{EPTP: tbl.Pointer()})

	// Guest page 1 unmapped: the crossing write exits, and the frame
	// after page 0's keeps its word.
	val := uint64(0xdeadbeefcafef00d)
	if err := v.WriteU64GPA(0xffc, val); err == nil {
		t.Fatal("page-crossing write into an unmapped page succeeded")
	}
	if len(h.exits) != 1 || h.exits[0].Reason != ExitEPTViolation || h.exits[0].Violation.Addr != 0x1000 {
		t.Fatalf("exits %+v, want one EPT violation at 0x1000", h.exits)
	}
	if got, _ := pm.ReadU64(next.Page()); got != sentinel {
		t.Fatalf("next host frame's first word %#x, want %#x: the write spilled past the page", got, sentinel)
	}

	// Guest page 1 mapped to a distant frame: the word is split between
	// the two translated frames, and one word access is still charged once.
	v2, pm2, _ := newTestVCPU(t, 64)
	run2, _ := pm2.AllocFramesContiguous(2, 1)
	far2, _ := pm2.AllocFrame()
	tbl2, _ := ept.New(pm2)
	if err := tbl2.Map(0, run2[0].Page(), ept.PermRW); err != nil {
		t.Fatal(err)
	}
	if err := tbl2.Map(0x1000, far2.Page(), ept.PermRW); err != nil {
		t.Fatal(err)
	}
	v2.SetVMCS(VMCS{EPTP: tbl2.Pointer()})
	if err := v2.WriteU64GPA(0xffc, val); err != nil {
		t.Fatal(err)
	}
	start := v2.Clock().Now()
	if got, err := v2.ReadU64GPA(0xffc); err != nil || got != val {
		t.Fatalf("read back %#x, %v; want %#x", got, err, val)
	}
	if d := v2.Clock().Elapsed(start); d != v2.Cost().MemAccess { // both pages TLB-warm
		t.Fatalf("crossing read charged %v, want one MemAccess (%v)", d, v2.Cost().MemAccess)
	}
	if lo, _ := pm2.ReadU32(run2[0].Page() + 0xffc); lo != uint32(val) {
		t.Fatalf("low half %#x at the end of page 0's frame", lo)
	}
	if hi, _ := pm2.ReadU32(far2.Page()); hi != uint32(val>>32) {
		t.Fatalf("high half %#x at the start of page 1's frame", hi)
	}
	if w, _ := pm2.ReadU64(run2[1].Page()); w != 0 {
		t.Fatalf("frame after page 0's holds %#x", w)
	}
}
