package core

import (
	"fmt"
	"sort"

	"github.com/elisa-go/elisa/internal/ept"
	"github.com/elisa-go/elisa/internal/hv"
	"github.com/elisa-go/elisa/internal/trace"
)

// CleanupGuest releases every ELISA resource held on behalf of a guest:
// live sub contexts, the gate context, the per-guest stack, and all
// exchange buffers (including those of detached/revoked attachments,
// whose frames are deliberately kept until now because the guest's
// default context may still map them). Call it before hv.DestroyVM; after
// it returns, the guest has no ELISA state and the frames are back in the
// allocator.
func (m *Manager) CleanupGuest(guest *hv.VM) error {
	m.mu.Lock()
	rings, err := m.cleanupGuestLocked(guest)
	m.mu.Unlock()
	// Ring backing memory is freed outside m.mu, under the poller lock, so
	// an in-flight DrainRings pass can never touch freed frames.
	if ferr := m.releaseRings(rings); err == nil {
		err = ferr
	}
	return err
}

func (m *Manager) cleanupGuestLocked(guest *hv.VM) ([]*hv.HostRegion, error) {
	gs, ok := m.guests[guest.ID()]
	if !ok {
		return nil, fmt.Errorf("core: guest %q has no ELISA state", guest.Name())
	}
	rings, err := m.teardownLocked(gs, "cleanup")
	if err != nil {
		return rings, err
	}
	m.hv.Trace().Emit(guest.VCPU().Clock().Now(), guest.Name(), trace.KindCleanup, "ELISA state released")
	return rings, nil
}

// teardownLocked releases everything a guest's ELISA state holds — the
// one teardown behind CleanupGuest and RecoverGuest: pending revocations'
// contexts first, then every attachment's slot, sub context, exchange
// buffer and ring, the retired attachments' exchange buffers and rings,
// the gate context and the per-guest stack, and finally the state
// itself. It needs no cooperation from the guest, so it works the same
// on a live guest and a dead one. Attachments are reclaimed in sorted
// object order: the frees feed the allocator's free list, and the same
// run must hand the same frames to the next allocation. The returned
// ring regions go to releaseRings once m.mu is dropped; what names the
// caller in errors.
func (m *Manager) teardownLocked(gs *guestState, what string) (rings []*hv.HostRegion, err error) {
	guest := gs.vm
	tlb := guest.VCPU().TLB()
	// Revocations the guest never serviced: destroy their contexts first;
	// the sweep below skips revoked attachments.
	if err := m.reapLocked(gs); err != nil {
		return nil, err
	}
	for _, name := range gs.attachmentNames() {
		a := gs.attachments[name]
		if !a.revoked {
			a.revoked = true
			if err := m.unbindLocked(gs, a); err != nil {
				return rings, fmt.Errorf("core: %s %q/%q: %w", what, guest.Name(), name, err)
			}
			tlb.InvalidateContext(a.subCtx.Pointer())
			if err := a.subCtx.Destroy(); err != nil {
				return rings, fmt.Errorf("core: %s %q/%q: %w", what, guest.Name(), name, err)
			}
		}
		if err := a.exchange.Free(); err != nil {
			return rings, fmt.Errorf("core: %s %q/%q exchange: %w", what, guest.Name(), name, err)
		}
		if r := detachRingLocked(a); r != nil {
			rings = append(rings, r)
		}
	}
	for _, a := range gs.retired {
		if err := a.exchange.Free(); err != nil {
			return rings, fmt.Errorf("core: %s retired exchange: %w", what, err)
		}
		if r := detachRingLocked(a); r != nil {
			rings = append(rings, r)
		}
	}
	if err := gs.list.Revoke(IdxGate); err != nil {
		return rings, err
	}
	tlb.InvalidateContext(gs.gateCtx.Pointer())
	if err := gs.gateCtx.Destroy(); err != nil {
		return rings, err
	}
	if err := gs.stack.Free(); err != nil {
		return rings, err
	}
	delete(m.guests, guest.ID())
	return rings, nil
}

// attachmentNames returns the guest's attachment names (live, revoked
// and not yet cleaned up), sorted: the one order every walk over them
// that frees memory or prints uses.
func (gs *guestState) attachmentNames() []string {
	names := make([]string, 0, len(gs.attachments))
	for name := range gs.attachments {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Fsck audits the manager's bookkeeping against the machine state: the
// gate and default slots must hold their contexts, every backed attachment
// must occupy exactly the physical slot its slot-table entry claims (with
// a matching grant and list entry), unbacked attachments must occupy
// nothing, and every other slot of the list must be empty. It is safe to
// call at any time; tests run it after every mutation sequence.
func (m *Manager) Fsck() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for id, gs := range m.guests {
		gate, err := gs.list.Get(IdxGate)
		if err != nil {
			return err
		}
		if gate != gs.gateCtx.Pointer() {
			return fmt.Errorf("core: fsck: guest %d gate slot %v != context %v", id, gate, gs.gateCtx.Pointer())
		}
		def, err := gs.list.Get(IdxDefault)
		if err != nil {
			return err
		}
		if def != gs.vm.DefaultEPT().Pointer() {
			return fmt.Errorf("core: fsck: guest %d default slot %v", id, def)
		}
		// Collect what the slot table says should be installed.
		backed := 0
		want := map[int]ept.Pointer{}
		for name, a := range gs.attachments {
			if a.revoked {
				continue
			}
			if a.phys == physNone {
				continue // virtual-only: must own no slot (checked by the scan)
			}
			backed++
			if !gs.granted[a.phys] {
				return fmt.Errorf("core: fsck: guest %d attachment %q phys slot %d not granted", id, name, a.phys)
			}
			if gs.physAtt[a.phys] != a {
				return fmt.Errorf("core: fsck: guest %d attachment %q phys slot %d slot-table mismatch", id, name, a.phys)
			}
			want[a.phys] = a.subCtx.Pointer()
		}
		if backed != len(gs.granted) || backed != len(gs.physAtt) {
			return fmt.Errorf("core: fsck: guest %d has %d grants / %d slot-table entries for %d backed attachments",
				id, len(gs.granted), len(gs.physAtt), backed)
		}
		if backed > gs.budget {
			return fmt.Errorf("core: fsck: guest %d has %d backed slots over budget %d", id, backed, gs.budget)
		}
		// Every sub slot of the whole list must match the slot table;
		// every other slot must be empty. This reads the list through
		// physical memory — the audit is against the machine, not the
		// occupancy cache.
		for idx := firstSubIdx; idx < ept.ListEntries; idx++ {
			p, err := gs.list.Get(idx)
			if err != nil {
				return err
			}
			if w, ok := want[idx]; ok {
				if p != w {
					return fmt.Errorf("core: fsck: guest %d slot %d holds %v, want %v", id, idx, p, w)
				}
			} else if p != ept.NilPointer {
				return fmt.Errorf("core: fsck: guest %d slot %d should be empty but holds %v", id, idx, p)
			}
		}
	}
	return nil
}

// SubContextMappings returns the complete mapping set of a guest's sub
// context for an object — the audit view isolation tests assert against.
func (m *Manager) SubContextMappings(guest *hv.VM, objName string) ([]ept.Mapping, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	gs, ok := m.guests[guest.ID()]
	if !ok {
		return nil, fmt.Errorf("core: guest %q is not attached to %q", guest.Name(), objName)
	}
	a, ok := gs.attachments[objName]
	if !ok || a.revoked {
		return nil, fmt.Errorf("core: guest %q is not attached to %q", guest.Name(), objName)
	}
	return a.subCtx.Mappings()
}

// GateContextMappings returns the complete mapping set of a guest's gate
// context.
func (m *Manager) GateContextMappings(guest *hv.VM) ([]ept.Mapping, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	gs, ok := m.guests[guest.ID()]
	if !ok {
		return nil, fmt.Errorf("core: guest %q has no ELISA state", guest.Name())
	}
	return gs.gateCtx.Mappings()
}

// GateGPA reports where the gate page sits in a guest's address space.
func (m *Manager) GateGPA(guest *hv.VM) (gpa uint64, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	gs, found := m.guests[guest.ID()]
	if !found {
		return 0, false
	}
	return uint64(gs.gateGPA), true
}
