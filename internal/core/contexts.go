package core

import (
	"fmt"

	"github.com/elisa-go/elisa/internal/ept"
	"github.com/elisa-go/elisa/internal/hv"
	"github.com/elisa-go/elisa/internal/mem"
	"github.com/elisa-go/elisa/internal/simtime"
	"github.com/elisa-go/elisa/internal/trace"
)

// ensureGuest lazily builds a guest's ELISA plumbing on first attach:
// VMFUNC controls, the gate code mapping in the default context, the gate
// EPT context, and the per-guest ELISA stack. This is the manager half of
// the negotiation slow path.
func (m *Manager) ensureGuest(guest *hv.VM) (*guestState, error) {
	if gs := m.guest(guest.ID()); gs != nil {
		return gs, nil
	}
	if guest == m.vm {
		return nil, fmt.Errorf("core: the manager VM does not attach to itself")
	}
	list, err := m.hv.EnableVMFunc(guest)
	if err != nil {
		return nil, err
	}
	// The gate page appears in the guest's default context (that is
	// where calls start) at a guest-chosen window address, executable
	// but not writable: the guest runs the gate, never edits it.
	gateGPA := guest.AllocRegionGPA(1)
	if err := m.gateCode.MapIntoTable(guest.DefaultEPT(), gateGPA, ept.PermRX); err != nil {
		return nil, err
	}

	// Per-guest ELISA stack: one page, never visible in the default
	// context (the gate switches to it so manager code never runs on a
	// guest-controlled stack).
	stack, err := m.hv.AllocHostRegion(mem.PageSize)
	if err != nil {
		return nil, err
	}

	// Gate context: gate page RX + stack RW, nothing else. Everything a
	// compromised guest might jump to simply does not translate here.
	gateCtx, err := ept.New(m.hv.Phys())
	if err != nil {
		return nil, err
	}
	if err := m.gateCode.MapIntoTable(gateCtx, gateGPA, ept.PermRX); err != nil {
		return nil, err
	}
	if err := stack.MapIntoTable(gateCtx, StackGPA, ept.PermRW); err != nil {
		return nil, err
	}
	if err := list.Set(IdxGate, gateCtx.Pointer()); err != nil {
		return nil, err
	}

	gs := &guestState{
		vm:          guest,
		list:        list,
		gateCtx:     gateCtx,
		gateGPA:     gateGPA,
		stack:       stack,
		budget:      m.slotBudget,
		nextVSlot:   firstSubIdx,
		vslots:      make([]*Attachment, firstSubIdx),
		attachments: make(map[string]*Attachment),
	}
	if id := guest.ID(); id >= len(m.guests) {
		m.guests = append(m.guests, make([]*guestState, id+1-len(m.guests))...)
	}
	m.guests[guest.ID()] = gs
	// Manager-side construction work (table edits, list install).
	m.vm.VCPU().Charge(8 * m.cost.MemAccess)
	return gs, nil
}

// attach builds the sub context granting one guest access to one object
// and returns the attachment. Called from the negotiation hypercall.
func (m *Manager) attach(guest *hv.VM, objName string) (*Attachment, error) {
	obj, ok := m.objects[objName]
	if !ok {
		return nil, fmt.Errorf("core: no object %q", objName)
	}
	perm := obj.defaultPerm
	if p, ok := obj.acl[guest.ID()]; ok {
		perm = p
	}
	if perm == 0 {
		return nil, fmt.Errorf("core: guest %q is not allowed to attach %q", guest.Name(), objName)
	}
	gs, err := m.ensureGuest(guest)
	if err != nil {
		return nil, err
	}
	old, dup := gs.attachments[objName]
	if dup && !old.revoked {
		return nil, fmt.Errorf("core: guest %q already attached to %q", guest.Name(), objName)
	}

	// Exchange buffer: guest-visible staging area, also present in the
	// sub context at the same GPA — and in no other guest's contexts.
	exchange, err := m.hv.AllocHostRegion(ExchangeBytes)
	if err != nil {
		return nil, err
	}
	exchangeGPA := guest.AllocRegionGPA(exchange.Pages())
	if err := exchange.MapIntoTable(guest.DefaultEPT(), exchangeGPA, ept.PermRW); err != nil {
		return nil, err
	}

	// The sub context: exactly the five windows the design calls for.
	sub, err := ept.New(m.hv.Phys())
	if err != nil {
		return nil, err
	}
	mapObject := func() error {
		if obj.huge {
			return obj.region.MapIntoTable2M(sub, obj.gpa, perm)
		}
		return obj.region.MapIntoTable(sub, obj.gpa, perm)
	}
	steps := []struct {
		what string
		err  error
	}{
		{"gate", m.gateCode.MapIntoTable(sub, gs.gateGPA, ept.PermRX)},
		{"mgr-code", m.mgrCode.MapIntoTable(sub, MgrCodeGPA, ept.PermRX)},
		{"object", mapObject()},
		{"exchange", exchange.MapIntoTable(sub, exchangeGPA, ept.PermRW)},
		{"stack", gs.stack.MapIntoTable(sub, StackGPA, ept.PermRW)},
	}
	for _, s := range steps {
		if s.err != nil {
			return nil, fmt.Errorf("core: building sub context (%s): %w", s.what, s.err)
		}
	}

	vslot := gs.nextVSlot
	gs.nextVSlot++
	a := &Attachment{
		guest:       guest,
		obj:         obj,
		subCtx:      sub,
		vslot:       vslot,
		phys:        physNone,
		perm:        perm,
		exchange:    exchange,
		exchangeGPA: exchangeGPA,
	}
	if dup {
		// The name's revoked attachment leaves the table; its exchange
		// buffer and ring stay mapped in the guest's default context
		// until teardown releases them, as a detached one's do.
		gs.retired = append(gs.retired, old)
	}
	gs.attachments[objName] = a
	gs.vslots = append(gs.vslots, a)
	obj.subs++
	// Back the virtual slot eagerly while the guest is under its slot
	// budget and the list has room: the first call is then already hot.
	// Past the budget the attachment stays virtual — the first call takes
	// a slot fault and the LRU binding makes way.
	if gs.backed < gs.budget {
		if idx, ok := gs.list.FindFree(firstSubIdx); ok {
			if err := m.bindLocked(gs, a, idx); err != nil {
				return nil, err
			}
		}
	}
	m.hv.Trace().Emit(guest.VCPU().Clock().Now(), guest.Name(), trace.KindAttach,
		"object %q vslot %d phys %d perm %v", objName, vslot, a.phys, perm)
	// Manager-side construction work: proportional to pages mapped.
	pages := 3 + obj.region.Pages() + exchange.Pages()
	m.vm.VCPU().Charge(simtime.Duration(pages) * m.cost.MemAccess * 4)
	return a, nil
}

// bindLocked installs an attachment's sub context into physical slot idx
// and grants it to the gate.
func (m *Manager) bindLocked(gs *guestState, a *Attachment, idx int) error {
	if err := gs.list.Set(idx, a.subCtx.Pointer()); err != nil {
		return err
	}
	a.phys = idx
	m.lruTick++
	a.lastUse = m.lruTick
	if idx >= len(gs.physAtt) {
		gs.physAtt = append(gs.physAtt, make([]*Attachment, idx+1-len(gs.physAtt))...)
		gs.granted = append(gs.granted, make([]bool, idx+1-len(gs.granted))...)
	}
	gs.physAtt[idx] = a
	gs.granted[idx] = true
	gs.backed++
	return nil
}

// evictLocked unbinds the guest's least-recently-used backed attachment to
// free one physical slot. Only the list entry and grant go away; the sub
// context (and its TLB entries, which are tagged by EPT pointer, not slot)
// survives, so a later re-bind is just a list write.
func (m *Manager) evictLocked(gs *guestState) error {
	var victim *Attachment
	for _, a := range gs.physAtt {
		if a != nil && (victim == nil || a.lastUse < victim.lastUse) {
			victim = a
		}
	}
	if victim == nil {
		return fmt.Errorf("core: guest %q has no backed slot to evict", gs.vm.Name())
	}
	phys := victim.phys
	if err := m.unbindLocked(gs, victim); err != nil {
		return err
	}
	gs.evictions++
	m.hv.Trace().Emit(gs.vm.VCPU().Clock().Now(), gs.vm.Name(), trace.KindSlotEvict,
		"object %q vslot %d phys %d", victim.obj.name, victim.vslot, phys)
	return nil
}

// faultBindLocked backs a live unbacked attachment with a physical slot,
// evicting the guest's LRU binding when the budget or the list is
// exhausted. This is the slow half of the slot-fault path.
func (m *Manager) faultBindLocked(gs *guestState, a *Attachment) error {
	if gs.backed >= gs.budget {
		if err := m.evictLocked(gs); err != nil {
			return err
		}
	}
	idx, ok := gs.list.FindFree(firstSubIdx)
	if !ok {
		// Budget allows more but the list itself is full (budget close to
		// the hardware limit): evict to make physical room.
		if err := m.evictLocked(gs); err != nil {
			return err
		}
		if idx, ok = gs.list.FindFree(firstSubIdx); !ok {
			return fmt.Errorf("core: guest %q EPTP list full after eviction", gs.vm.Name())
		}
	}
	return m.bindLocked(gs, a, idx)
}
