package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/elisa-go/elisa/internal/cpu"
	"github.com/elisa-go/elisa/internal/fault"
	"github.com/elisa-go/elisa/internal/gpt"
	"github.com/elisa-go/elisa/internal/hv"
	"github.com/elisa-go/elisa/internal/mem"
	"github.com/elisa-go/elisa/internal/obs"
	"github.com/elisa-go/elisa/internal/simtime"
	"github.com/elisa-go/elisa/internal/trace"
)

// Guest is the guest-side ELISA library for one VM: it performs the
// negotiation slow path and hands out Handles whose Call method is the
// exit-less fast path.
//
// The *Manager reference held here models the gate code and manager code
// pages that the manager maps into the guest's contexts: the guest cannot
// inspect or alter them (they are RX grants), it can only execute them.
type Guest struct {
	vm      *hv.VM
	mgr     *Manager
	scratch mem.GPA // negotiation staging area in guest RAM
	gateGVA mem.GVA
	handles map[string]*Handle
}

// NewGuest initialises the ELISA library in a guest. The library reserves
// the top page of guest RAM as its negotiation scratch buffer.
func NewGuest(vm *hv.VM, mgr *Manager) (*Guest, error) {
	if mgr == nil {
		return nil, fmt.Errorf("core: NewGuest: nil manager")
	}
	if vm.RAMBytes() < 2*mem.PageSize {
		return nil, fmt.Errorf("core: guest %q needs at least 2 RAM pages for the ELISA library", vm.Name())
	}
	return &Guest{
		vm:      vm,
		mgr:     mgr,
		scratch: mem.GPA(vm.RAMBytes() - mem.PageSize),
		handles: make(map[string]*Handle),
	}, nil
}

// VM returns the guest VM this library instance belongs to.
func (g *Guest) VM() *hv.VM { return g.vm }

// Guard errors of the fast path. They are preallocated: the checks run on
// every Call/CallMulti, and an error value built per refusal would be the
// only allocation on an otherwise zero-alloc path.
var (
	ErrForeignVCPU = errors.New("core: call on foreign vCPU")
	ErrTooManyArgs = errors.New("core: call takes at most 4 args")
	ErrNoRequests  = errors.New("core: CallMulti with no requests")
)

// Handle is an attached shared object: the guest's capability to call
// manager functions on it through the gate.
type Handle struct {
	g            *Guest
	objName      string
	subIdx       int
	gateGVA      mem.GVA
	exchangeGPA  mem.GPA
	exchangeSize int
	objSize      int
	detached     bool

	// ctx is the reusable CallContext of this handle's invocations. Calls
	// on a handle are serialised by the guest's single vCPU, so steady
	// state never allocates one; ctxBusy guards the rare reentrant case (a
	// manager function calling back through the same handle), which falls
	// back to a heap context.
	ctx     CallContext
	ctxBusy bool

	// exch is the exchange-time accumulator the flight recorder reads for
	// span phase decomposition. It lives on the handle for the same reason
	// ctx does: taking the address of a stack local and threading it into
	// the (heap-resident) scratch context would force a heap allocation on
	// every recorded call.
	exch simtime.Duration

	// lat is the flight recorder's latency series this handle last
	// recorded into (see latency).
	lat latencySeries
}

// ObjectSize returns the attached object's size in bytes.
func (h *Handle) ObjectSize() int { return h.objSize }

// ExchangeGPA returns the guest-visible exchange buffer base address.
func (h *Handle) ExchangeGPA() mem.GPA { return h.exchangeGPA }

// ExchangeSize returns the exchange buffer size in bytes.
func (h *Handle) ExchangeSize() int { return h.exchangeSize }

// SubIndex returns the virtual slot ID this handle names. The gate's slot
// table maps it to whichever physical EPTP-list slot currently backs the
// attachment; the ID itself is stable for the attachment's lifetime and
// never reused within a guest.
func (h *Handle) SubIndex() int { return h.subIdx }

// resolveSlot is the gate code's slot-table lookup for (guest, vslot),
// performed before the inbound crossing. Three outcomes:
//
//   - hit: the virtual slot is live and backed; returns its physical slot
//     and touches the LRU stamp. Free — the lookup is part of GateCode.
//   - miss: live but unbacked; the caller must take the HCSlotFault slow
//     path to get it backed.
//   - stale "hit": the slot was revoked/detached or never existed. The
//     walk proceeds and the gate's grant check refuses it — the same
//     clean, kill-free refusal stale handles always got.
func (m *Manager) resolveSlot(vmID, vslot int) (phys int, hit bool, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	gs := m.guest(vmID)
	if gs == nil {
		return IdxDefault, true, nil // stale: no ELISA state; gate refuses
	}
	// Service pending revocations first: this runs on the guest's own
	// vCPU, the only place its TLB entries and dying sub contexts may be
	// torn down (the simulated analogue of handling the shootdown IPI).
	if len(gs.pendingReap) > 0 {
		if err := m.reapLocked(gs); err != nil {
			return 0, false, err
		}
	}
	a := gs.vslot(vslot)
	if a == nil || a.revoked {
		return IdxDefault, true, nil // stale: gate refuses at the grant check
	}
	if a.phys == physNone {
		return 0, false, nil // live but unbacked: slot fault required
	}
	m.lruTick++
	a.lastUse = m.lruTick
	return a.phys, true, nil
}

// reapLocked completes the deferred half of revocation for every pending
// attachment: TLB entries invalidated, sub context destroyed, its frames
// back in the allocator. Callers hold m.mu and must be on the guest's own
// execution path — or past its death (RecoverGuest, CleanupGuest).
func (m *Manager) reapLocked(gs *guestState) error {
	for _, a := range gs.pendingReap {
		if err := m.destroySubLocked(a); err != nil {
			return fmt.Errorf("core: reaping %q/%q: %w", gs.vm.Name(), a.obj.name, err)
		}
	}
	gs.pendingReap = nil
	return nil
}

// destroySubLocked tears down an attachment's sub context (TLB entries,
// then tables). The last sub context of a destroyed object takes the
// object's frames with it, so no context ever maps a freed frame.
func (m *Manager) destroySubLocked(a *Attachment) error {
	a.guest.VCPU().TLB().InvalidateContext(a.subCtx.Pointer())
	if err := a.subCtx.Destroy(); err != nil {
		return err
	}
	o := a.obj
	o.subs--
	if o.subs == 0 && o.destroyed {
		return m.freeObjectLocked(o)
	}
	return nil
}

// ensureBacked resolves the handle's virtual slot to a physical slot,
// taking the HCSlotFault slow path on a miss. It runs as guest code on v.
// Transient (injected) negotiation failures are retried with exponential
// backoff, bounded by fault.MaxRetries; the backoff is charged to the
// guest's clock, so chaos costs virtual time, never correctness.
func (h *Handle) ensureBacked(v *cpu.VCPU) (int, error) {
	phys, hit, err := h.g.mgr.resolveSlot(h.g.vm.ID(), h.subIdx)
	if err != nil {
		return 0, err
	}
	if hit {
		return phys, nil
	}
	for attempt := 0; ; attempt++ {
		var r uint64
		r, err = v.VMCall(HCSlotFault, uint64(h.subIdx))
		if err == nil {
			return int(r), nil
		}
		if !fault.IsTransient(err) || attempt >= fault.MaxRetries {
			break
		}
		v.Charge(fault.Backoff(attempt))
		h.g.mgr.noteRetry()
	}
	return 0, fmt.Errorf("core: slot fault on %q vslot %d: %w", h.objName, h.subIdx, err)
}

// Attach negotiates access to a named shared object. This is the slow
// path: a hypercall round trip plus manager-side context construction.
// Attach runs as guest code on the VM's vCPU.
func (g *Guest) Attach(objName string) (*Handle, error) {
	if h, ok := g.handles[objName]; ok && !h.detached {
		if _, live := g.mgr.Attachment(g.vm, objName); live {
			return h, nil
		}
		// The cached binding was revoked out from under us. Drop it and
		// fall through to a fresh negotiation — the manager treats a
		// revoked attachment as absent, so re-attach is an ordinary
		// HCAttach (and may well be granted again: revocation withdraws
		// a binding, not the right to ask).
		h.detached = true
		delete(g.handles, objName)
	}
	if len(objName) == 0 || len(objName) > 256 {
		return nil, fmt.Errorf("core: object name length %d out of range", len(objName))
	}
	v := g.vm.VCPU()
	respGPA := g.scratch + 512

	// Stage the request in guest RAM and issue the negotiation hypercall.
	// Transient (injected) failures retry with bounded backoff, like the
	// real library re-issuing a negotiation the manager shed under load.
	if err := v.WriteGPA(g.scratch, []byte(objName)); err != nil {
		return nil, err
	}
	var callErr error
	for attempt := 0; ; attempt++ {
		_, callErr = v.VMCall(HCAttach, uint64(g.scratch), uint64(len(objName)), uint64(respGPA))
		if callErr == nil {
			break
		}
		if !fault.IsTransient(callErr) || attempt >= fault.MaxRetries {
			return nil, fmt.Errorf("core: attach %q: %w", objName, callErr)
		}
		v.Charge(fault.Backoff(attempt))
		g.mgr.noteRetry()
	}
	resp := make([]byte, attachRespBytes)
	if err := v.ReadGPA(respGPA, resp); err != nil {
		return nil, err
	}
	h := &Handle{
		g:            g,
		objName:      objName,
		subIdx:       int(binary.LittleEndian.Uint64(resp[0:])),
		gateGVA:      mem.GVA(binary.LittleEndian.Uint64(resp[8:])),
		exchangeGPA:  mem.GPA(binary.LittleEndian.Uint64(resp[16:])),
		exchangeSize: int(binary.LittleEndian.Uint64(resp[24:])),
		objSize:      int(binary.LittleEndian.Uint64(resp[32:])),
	}
	g.gateGVA = h.gateGVA

	// Guest kernel work: identity-map the gate and manager code windows
	// so instruction fetches translate. (The EPT stage still decides
	// what is actually executable where.)
	gpte := v.GPT()
	if _, _, ok := gpte.Lookup(h.gateGVA); !ok {
		if err := gpte.Map(h.gateGVA, mem.GPA(h.gateGVA), gpt.PermRX); err != nil {
			return nil, err
		}
	}
	if _, _, ok := gpte.Lookup(mem.GVA(MgrCodeGPA)); !ok {
		if err := gpte.Map(mem.GVA(MgrCodeGPA), MgrCodeGPA, gpt.PermRX); err != nil {
			return nil, err
		}
	}
	g.handles[objName] = h
	return h, nil
}

// Detach gracefully gives up the attachment (negotiated, no kill).
func (g *Guest) Detach(objName string) error {
	h, ok := g.handles[objName]
	if !ok || h.detached {
		return fmt.Errorf("core: not attached to %q", objName)
	}
	v := g.vm.VCPU()
	if err := v.WriteGPA(g.scratch, []byte(objName)); err != nil {
		return err
	}
	if _, err := v.VMCall(HCDetach, uint64(g.scratch), uint64(len(objName))); err != nil {
		return err
	}
	h.detached = true
	delete(g.handles, objName)
	return nil
}

// Call is the ELISA fast path: an exit-less invocation of manager function
// fnID against the attached object. It runs as guest code on v (which must
// be the attaching VM's vCPU) and costs, steady-state, exactly
// CostModel.ELISARoundTrip() — 196 ns — plus whatever the function does.
//
// The instruction-level walk (each step charged):
//
//	default ctx: fetch gate page, save registers      (1 fetch + GateCode)
//	             VMFUNC -> gate ctx                   (VMFunc)
//	gate ctx:    fetch gate page, validate slot       (1 fetch)
//	             VMFUNC -> sub ctx                    (VMFunc)
//	sub ctx:     fetch manager code, run function     (1 fetch + fn)
//	             fetch gate page                      (1 fetch)
//	             VMFUNC -> gate ctx                   (VMFunc)
//	gate ctx:    fetch gate page, restore registers   (1 fetch + GateCode)
//	             VMFUNC -> default ctx                (VMFunc)
//	default ctx: fetch gate page epilogue, return     (1 fetch)
func (h *Handle) Call(v *cpu.VCPU, fnID uint64, args ...uint64) (uint64, error) {
	if len(args) > 4 {
		return 0, ErrTooManyArgs
	}
	var a [4]uint64
	copy(a[:], args)
	return h.CallArgs(v, fnID, a)
}

// CallArgs is Call with the four register arguments fixed-arity — the
// zero-allocation form of the fast path. Call packs its variadic slice
// into the register array and forwards here; callers that already hold a
// [4]uint64 (batching layers, replay engines) skip the packing.
func (h *Handle) CallArgs(v *cpu.VCPU, fnID uint64, args [4]uint64) (uint64, error) {
	if v != h.g.vm.VCPU() {
		return 0, ErrForeignVCPU
	}
	c, err := h.enter(v, fnID, 1, true)
	if err != nil {
		return 0, err
	}
	ret, fnErr := h.g.mgr.invoke(v, h, fnID, args, c.exch)
	if v.Dead() {
		// The function faulted and the hypervisor killed the VM; there
		// is no context to return to.
		return 0, fnErr
	}
	if err := h.leave(v, &c, fnErr != nil); err != nil {
		return 0, err
	}
	if fnErr != nil {
		return ret, fnErr
	}
	v.Regs[cpu.RAX] = ret
	return ret, nil
}

// crossing is one trip through the gate, from enter to leave: the span's
// key, its phase boundaries, and the exchange accumulator invoke fills.
// Callers hold it in a local variable and neither half takes a closure,
// so a crossing never leaves the caller's stack.
type crossing struct {
	rec   *obs.Recorder // nil: observability off, the fields below unused
	fn    uint64        // span Fn: the (first) function id
	batch int           // span Batch: requests under this crossing
	call  bool          // a single Call: the span total is its latency sample

	t0, tGate, tSub simtime.Time
	exch            *simtime.Duration // invoke's exchange accumulator
}

// enter is the inbound half of every gate crossing — Call, CallMulti and
// a ring Flush alike (the walk is documented on Call): resolve the slot
// (a cold one takes its HCSlotFault exit here, before any context
// switch), default -> gate, the gate's grant check, gate -> sub, and the
// crash-mid-gate hook. On success the vCPU is in the sub context and the
// caller runs its body, then leave. A refused crossing returns to the
// default context and records its Err span here.
//
// Phase boundaries are read from the vCPU clock but never charged to it,
// so observation cannot perturb the latency it measures; with the
// recorder off each costs one comparison.
func (h *Handle) enter(v *cpu.VCPU, fn uint64, batch int, call bool) (crossing, error) {
	mgr := h.g.mgr
	c := crossing{rec: mgr.rec, fn: fn, batch: batch, call: call}
	if c.rec != nil {
		c.t0 = v.Clock().Now()
		h.exch = 0
		c.exch = &h.exch
	}
	phys, err := h.ensureBacked(v)
	if err != nil {
		return c, err
	}
	if err := v.FetchExec(h.gateGVA); err != nil {
		return c, err
	}
	v.Charge(v.Cost().GateCode) // spill registers, stash target slot
	if err := v.VMFunc(cpu.VMFuncLeafEPTPSwitch, IdxGate); err != nil {
		return c, err
	}
	if c.rec != nil {
		c.tGate = v.Clock().Now()
	}
	if err := v.FetchExec(h.gateGVA); err != nil {
		return c, err
	}
	// The gate validates the whole (vslot -> phys) binding against its
	// grant table (in the gate-context stack page) before switching
	// further; a stale or never-granted slot is refused right here,
	// without reaching any sub context.
	if !mgr.gateAllowsBinding(h.g.vm.ID(), h.subIdx, phys) {
		if err := v.VMFunc(cpu.VMFuncLeafEPTPSwitch, IdxDefault); err != nil {
			return c, err
		}
		if c.rec != nil {
			now := v.Clock().Now()
			c.tSub = now
			h.recordSpan(&c, true, now, now)
		}
		return c, fmt.Errorf("core: gate refused slot %d for guest %q", h.subIdx, h.g.vm.Name())
	}
	if err := v.VMFunc(cpu.VMFuncLeafEPTPSwitch, phys); err != nil {
		return c, err
	}
	if c.rec != nil {
		c.tSub = v.Clock().Now()
	}
	// Fault injection: a guest that dies right here — inside the sub
	// context, registers spilled on the gate stack, before any function
	// of the crossing runs — is the worst place to die. The manager
	// notices via the gate-path epochs (entries > exits) and RecoverGuest
	// reclaims. One nil check when chaos is off.
	if inj := mgr.inj; inj != nil {
		if in := inj.Fire(fault.PointGateEntry, h.g.vm.Name(), v.Clock().Now()); in != nil {
			mgr.crashMidGate(h.g.vm, in)
			return c, fmt.Errorf("core: guest %q died in sub context: %w", h.g.vm.Name(), fault.ErrInjected)
		}
	}
	return c, nil
}

// leave is the outbound half of a crossing enter opened: sub -> gate ->
// default with the register restore, then the gate-exit epoch and the
// span. errFlag marks the span when any function of the body failed.
func (h *Handle) leave(v *cpu.VCPU, c *crossing, errFlag bool) error {
	var tFn simtime.Time
	if c.rec != nil {
		tFn = v.Clock().Now()
	}
	if err := v.FetchExec(h.gateGVA); err != nil {
		return err
	}
	if err := v.VMFunc(cpu.VMFuncLeafEPTPSwitch, IdxGate); err != nil {
		return err
	}
	if err := v.FetchExec(h.gateGVA); err != nil {
		return err
	}
	v.Charge(v.Cost().GateCode) // restore registers
	if err := v.VMFunc(cpu.VMFuncLeafEPTPSwitch, IdxDefault); err != nil {
		return err
	}
	if err := v.FetchExec(h.gateGVA); err != nil { // epilogue + ret
		return err
	}
	h.g.mgr.noteGateExit(h.g.vm.ID())
	if c.rec != nil {
		h.recordSpan(c, errFlag, tFn, v.Clock().Now())
	}
	return nil
}

// recordSpan assembles a phase-decomposed span from the crossing's
// boundary timestamps and offers it to the flight recorder. The function
// phase is the body's total minus the time its exchange helpers
// accounted for. A Call's span total is also that call's latency sample;
// a batch's requests were sampled one by one as they ran, and a refused
// batch ran none.
func (h *Handle) recordSpan(c *crossing, errFlag bool, tFn, end simtime.Time) {
	var sp obs.Span
	sp.Start = c.t0
	sp.Guest = h.g.vm.Name()
	sp.Object = h.objName
	sp.Fn = c.fn
	sp.Batch = c.batch
	sp.Err = errFlag
	sp.Phases[obs.PhaseGateIn] = c.tGate.Sub(c.t0)
	sp.Phases[obs.PhaseSubSwitch] = c.tSub.Sub(c.tGate)
	sp.Phases[obs.PhaseFunc] = tFn.Sub(c.tSub) - h.exch
	sp.Phases[obs.PhaseExchange] = h.exch
	sp.Phases[obs.PhaseReturn] = end.Sub(tFn)
	if c.call {
		h.latency(c.rec, sp.Fn).RecordDuration(sp.Total())
	}
	c.rec.Record(sp)
}

// ExchangeWrite stages data into the exchange buffer from the guest's
// default context (typically before a Call).
func (h *Handle) ExchangeWrite(v *cpu.VCPU, off int, p []byte) error {
	if off < 0 || off+len(p) > h.exchangeSize {
		return fmt.Errorf("core: exchange write [%d,+%d) outside buffer size %d", off, len(p), h.exchangeSize)
	}
	return v.WriteGPA(h.exchangeGPA+mem.GPA(off), p)
}

// ExchangeRead reads results back out of the exchange buffer.
func (h *Handle) ExchangeRead(v *cpu.VCPU, off int, p []byte) error {
	if off < 0 || off+len(p) > h.exchangeSize {
		return fmt.Errorf("core: exchange read [%d,+%d) outside buffer size %d", off, len(p), h.exchangeSize)
	}
	return v.ReadGPA(h.exchangeGPA+mem.GPA(off), p)
}

// gateAllowsBinding is the gate code's grant-table lookup (its cost is
// part of GateCode). It validates the full binding — the virtual slot is
// live, currently backed by exactly this physical slot, and the slot is
// granted — so a stale handle whose old physical slot has been recycled to
// another attachment can never enter the wrong sub context.
func (m *Manager) gateAllowsBinding(vmID, vslot, phys int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	gs := m.guest(vmID)
	if gs == nil {
		return false
	}
	a := gs.vslot(vslot)
	// a.phys == phys bounds the table reads: a backed slot is always
	// inside physAtt and granted, which never shrink.
	admit := a != nil && !a.revoked && phys >= firstSubIdx &&
		a.phys == phys && gs.physAtt[phys] == a && gs.granted[phys]
	if admit {
		// Gate-path epoch: one admitted inbound crossing. The matching
		// gateExits bump happens after the outbound crossing; a guest that
		// dies in between leaves entries > exits — the mid-gate-death
		// signal RecoverGuest keys on. Refused crossings never enter, so
		// they do not count.
		gs.gateEntries++
	}
	return admit
}

// invoke dispatches a manager function while the vCPU is in the sub
// context. The instruction fetch on the manager code page is the model's
// proof that the code is reachable (and only reachable) there. exchange,
// when non-nil, receives the time the function spends in exchange-buffer
// helpers (flight-recorder phase accounting). The manager lock is held
// only for the dispatch lookups, never while the function body runs.
//
// The attachment is the one at the handle's virtual slot: the binding
// the gate just admitted. Were it revoked after the gate check — even
// if the guest re-attached the object since, under a new slot — the
// dispatch is refused.
func (m *Manager) invoke(v *cpu.VCPU, h *Handle, fnID uint64, args [4]uint64, exchange *simtime.Duration) (uint64, error) {
	if err := v.FetchExec(mem.GVA(MgrCodeGPA)); err != nil {
		return 0, err
	}
	m.mu.Lock()
	gs := m.guest(h.g.vm.ID())
	var a *Attachment
	if gs != nil {
		a = gs.vslot(h.subIdx)
	}
	if a != nil && !a.revoked && m.inj != nil {
		if in := m.inj.Fire(fault.PointInvoke, h.g.vm.Name(), v.Clock().Now()); in != nil {
			// A revocation racing the in-flight call: the grant is
			// withdrawn under the call's feet, right between the gate's
			// check and the dispatch. The sub context itself stays alive —
			// the vCPU is executing in it and must walk back out through
			// the gate — so only the grant and slot backing go away; the
			// check below then refuses the dispatch cleanly.
			m.hv.Trace().Emit(v.Clock().Now(), h.g.vm.Name(), trace.KindInject,
				"%s: object %q vslot %d revoked mid-call", in.Class, h.objName, a.vslot)
			a.revoked = true
			m.gen++
			_ = m.unbindLocked(gs, a)
			gs.pendingReap = append(gs.pendingReap, a)
		}
	}
	if a == nil || a.revoked {
		m.mu.Unlock()
		return 0, fmt.Errorf("core: attachment %q/%q vanished mid-call", h.g.vm.Name(), h.objName)
	}
	fn, ok := m.funcs[fnID]
	// Steady state reuses the handle's scratch context (calls on a handle
	// are serialised by its guest's single vCPU); only a reentrant call —
	// a manager function calling back through the same handle — pays the
	// heap allocation the scratch avoids.
	ctx := &h.ctx
	if h.ctxBusy {
		ctx = new(CallContext)
	}
	*ctx = CallContext{
		VCPU:         v,
		Object:       a.obj.gpa,
		ObjectSize:   a.obj.size,
		Exchange:     a.exchangeGPA,
		ExchangeSize: a.exchange.Size(),
		GuestID:      h.g.vm.ID(),
		Args:         args,
		exchTime:     exchange,
	}
	m.mu.Unlock()
	if !ok {
		err := fmt.Errorf("core: unknown manager function %d", fnID)
		a.recordCall(err)
		return 0, err
	}
	scratch := ctx == &h.ctx
	if scratch {
		h.ctxBusy = true
	}
	ret, err := fn(ctx)
	if scratch {
		h.ctxBusy = false
	}
	a.recordCall(err)
	return ret, err
}

// Req is one operation in a batched exit-less call (see CallMulti).
type Req struct {
	// Fn is the manager function ID to invoke.
	Fn uint64
	// Args are the register arguments.
	Args [4]uint64
	// Ret receives the function's result.
	Ret uint64
	// Err receives the function's error, if any (per-op, non-fatal).
	Err error
}

// CallMulti performs several manager-function invocations under a single
// gate crossing: the guest pays the 196 ns context round trip once and
// runs every request back-to-back in the sub context. This is the
// batching extension of the paper's design — the same amortisation that
// makes the networking backends batch descriptors, offered as an API.
//
// Per-request errors are recorded in each Req; CallMulti itself fails
// only on protocol errors (foreign vCPU, refused gate, fatal fault).
func (h *Handle) CallMulti(v *cpu.VCPU, reqs []Req) error {
	if v != h.g.vm.VCPU() {
		return ErrForeignVCPU
	}
	if len(reqs) == 0 {
		return ErrNoRequests
	}
	// One span covers the whole batch; each request's in-sub-context
	// latency lands in its own series.
	c, err := h.enter(v, reqs[0].Fn, len(reqs), false)
	if err != nil {
		return err
	}
	mgr := h.g.mgr
	anyErr := false
	for i := range reqs {
		var reqStart simtime.Time
		if c.rec != nil {
			reqStart = v.Clock().Now()
		}
		reqs[i].Ret, reqs[i].Err = mgr.invoke(v, h, reqs[i].Fn, reqs[i].Args, c.exch)
		if v.Dead() {
			return reqs[i].Err
		}
		if reqs[i].Err != nil {
			anyErr = true
		}
		if c.rec != nil {
			// Per-request latency excludes the amortised gate crossing:
			// it is the in-sub-context service time of this one request.
			h.latency(c.rec, reqs[i].Fn).RecordDuration(v.Clock().Elapsed(reqStart))
		}
	}
	return h.leave(v, &c, anyErr)
}
