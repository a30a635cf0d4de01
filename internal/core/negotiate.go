package core

import (
	"encoding/binary"
	"fmt"

	"github.com/elisa-go/elisa/internal/hv"
	"github.com/elisa-go/elisa/internal/mem"
	"github.com/elisa-go/elisa/internal/trace"
)

// Negotiation hypercall numbers ("E115A" ≈ ELISA). These are the *only*
// exits in the protocol: once per attachment, plus one per slot fault
// when a guest's working set outruns its physical-slot budget.
const (
	// HCAttach: args = (name GPA, name length, response GPA).
	// The response is a 5x8-byte record written into guest RAM.
	HCAttach uint64 = 0xE115A001
	// HCDetach: args = (name GPA, name length).
	HCDetach uint64 = 0xE115A002
	// HCSlotFault: args = (virtual slot). Re-negotiates the physical
	// backing of a virtual slot the gate code missed on; returns the
	// physical EPTP-list slot now backing it.
	HCSlotFault uint64 = 0xE115A003
)

// attachResp is the negotiation response layout (5 little-endian u64s).
const attachRespBytes = 5 * 8

func (m *Manager) registerHypercalls() error {
	if err := m.hv.RegisterHypercall(HCAttach, m.hcAttach); err != nil {
		return err
	}
	if err := m.hv.RegisterHypercall(HCDetach, m.hcDetach); err != nil {
		return err
	}
	if err := m.hv.RegisterHypercall(HCSlotFault, m.hcSlotFault); err != nil {
		return err
	}
	return m.hv.RegisterHypercall(HCRingSetup, m.hcRingSetup)
}

func (m *Manager) readName(vm *hv.VM, gpa, n uint64) (string, error) {
	if n == 0 || n > 256 {
		return "", fmt.Errorf("core: object name length %d out of range", n)
	}
	buf := make([]byte, n)
	if err := vm.GuestRead(mem.GPA(gpa), buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

// hcAttach services a guest's attach request. The work is performed "by
// the manager VM": its construction cost lands on the manager's clock,
// while the calling guest pays the hypercall round trips.
func (m *Manager) hcAttach(vm *hv.VM, args [4]uint64) (uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	// Fault injection: a negotiation the manager sheds (fail) or loses
	// (timeout). The guest library retries with bounded backoff.
	if err := m.fireNegotiate(vm, "attach"); err != nil {
		return 0, err
	}
	name, err := m.readName(vm, args[0], args[1])
	if err != nil {
		return 0, err
	}
	// Probe the response buffer before building anything: a bogus
	// response address must fail the negotiation cleanly, not leave a
	// half-built attachment the guest never learns about.
	if err := vm.GuestWrite(mem.GPA(args[2]), make([]byte, attachRespBytes)); err != nil {
		return 0, err
	}
	a, err := m.attach(vm, name)
	if err != nil {
		return 0, err
	}
	gs := m.guest(vm.ID())
	resp := make([]byte, attachRespBytes)
	binary.LittleEndian.PutUint64(resp[0:], uint64(a.vslot))
	binary.LittleEndian.PutUint64(resp[8:], uint64(gs.gateGPA))
	binary.LittleEndian.PutUint64(resp[16:], uint64(a.exchangeGPA))
	binary.LittleEndian.PutUint64(resp[24:], uint64(a.exchange.Size()))
	binary.LittleEndian.PutUint64(resp[32:], uint64(a.obj.size))
	if err := vm.GuestWrite(mem.GPA(args[2]), resp); err != nil {
		return 0, err
	}
	return 0, nil
}

// hcDetach tears down a guest's attachment voluntarily. Unlike Revoke it
// is guest-initiated and graceful (no kill).
func (m *Manager) hcDetach(vm *hv.VM, args [4]uint64) (uint64, error) {
	m.mu.Lock()
	name, err := m.readName(vm, args[0], args[1])
	if err != nil {
		m.mu.Unlock()
		return 0, err
	}
	gs := m.guest(vm.ID())
	if gs == nil {
		m.mu.Unlock()
		return 0, fmt.Errorf("core: guest %q has no ELISA state", vm.Name())
	}
	a, ok := gs.attachments[name]
	if !ok || a.revoked {
		m.mu.Unlock()
		return 0, fmt.Errorf("core: guest %q is not attached to %q", vm.Name(), name)
	}
	a.revoked = true
	m.gen++
	delete(gs.attachments, name)
	if err := m.unbindLocked(gs, a); err != nil {
		m.mu.Unlock()
		return 0, err
	}
	if err := m.destroySubLocked(a); err != nil {
		m.mu.Unlock()
		return 0, err
	}
	// The exchange buffer (and the ring, if negotiated) stays mapped in
	// the guest's default context (the guest may still hold data there,
	// and may still poll queued completions); the frames are released by
	// CleanupGuest when the guest goes away. The virtual slot stays in
	// gs.vslots, marked revoked, so a stale handle is refused cleanly.
	gs.retired = append(gs.retired, a)
	m.hv.Trace().Emit(vm.VCPU().Clock().Now(), vm.Name(), trace.KindDetach,
		"object %q vslot %d", name, a.vslot)
	rs := a.ring
	m.mu.Unlock()
	// Outside m.mu (lock order — see ring.go): fail any descriptors still
	// queued on the ring so the detach never strands submitted work.
	m.failRing(rs)
	return 0, nil
}

// hcSlotFault re-negotiates the physical backing of a virtual slot. The
// gate code issues it when its slot table misses — the attachment is live
// but currently unbacked. Like all negotiation this is a slow path: the
// guest pays the hypercall round trip, the manager pays the list edits.
// Crucially it is an *error-free* path for well-behaved guests: running
// out of physical slots never kills anyone, it only costs them this exit.
func (m *Manager) hcSlotFault(vm *hv.VM, args [4]uint64) (uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	// Fault injection: the re-binding negotiation can be shed too; the
	// gate code's fault loop (ensureBacked) retries it.
	if err := m.fireNegotiate(vm, "slot-fault"); err != nil {
		return 0, err
	}
	gs := m.guest(vm.ID())
	if gs == nil {
		return 0, fmt.Errorf("core: guest %q has no ELISA state", vm.Name())
	}
	vslot := int(args[0])
	a := gs.vslot(vslot)
	if a == nil || a.revoked {
		return 0, fmt.Errorf("core: guest %q has no live attachment at virtual slot %d", vm.Name(), vslot)
	}
	if a.phys != physNone {
		// Benign re-fault (already backed): nothing to do.
		return uint64(a.phys), nil
	}
	gs.faults++
	if err := m.faultBindLocked(gs, a); err != nil {
		return 0, err
	}
	m.hv.Trace().Emit(vm.VCPU().Clock().Now(), vm.Name(), trace.KindSlotFault,
		"object %q vslot %d -> phys %d", a.obj.name, vslot, a.phys)
	// Manager-side work: the list write plus slot-table bookkeeping.
	m.vm.VCPU().Charge(m.cost.MemAccess * 4)
	return uint64(a.phys), nil
}
