package core

import (
	"fmt"
	"sort"

	"github.com/elisa-go/elisa/internal/ept"
	"github.com/elisa-go/elisa/internal/hv"
	"github.com/elisa-go/elisa/internal/mem"
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

func (m *Manager) cleanupGuestLocked(guest *hv.VM) ([]*ringState, error) {
	gs := m.guest(guest.ID())
	if gs == nil {
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
// on a live guest and a dead one: exchange buffers and rings are
// unmapped from the guest's default context, and their translations
// dropped from its TLB, before their frames are freed, so no default
// context maps a freed frame. Attachments are reclaimed in sorted
// object order: the frees feed the allocator's freed-frame stack, and
// the same run must hand the same frames to the next allocation. The returned
// ring regions go to releaseRings once m.mu is dropped; what names the
// caller in errors.
func (m *Manager) teardownLocked(gs *guestState, what string) (rings []*ringState, err error) {
	// One bump covers every revocation, ring detach and the state's
	// deletion below: a DrainRings pass reads gen under m.mu, so it never
	// sees this teardown half done, even one that fails part way.
	m.gen++
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
			if err := m.destroySubLocked(a); err != nil {
				return rings, fmt.Errorf("core: %s %q/%q: %w", what, guest.Name(), name, err)
			}
		}
		if rings, err = releaseGuestBuffersLocked(a, rings); err != nil {
			return rings, fmt.Errorf("core: %s %q/%q: %w", what, guest.Name(), name, err)
		}
	}
	for _, a := range gs.retired {
		if rings, err = releaseGuestBuffersLocked(a, rings); err != nil {
			return rings, fmt.Errorf("core: %s retired %q/%q: %w", what, guest.Name(), a.obj.name, err)
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
	m.guests[guest.ID()] = nil
	return rings, nil
}

// releaseGuestBuffersLocked takes an attachment's guest-visible buffers
// out of the guest's default context and releases them: the exchange
// buffer's frames now, the ring's appended to rings for releaseRings.
func releaseGuestBuffersLocked(a *Attachment, rings []*ringState) ([]*ringState, error) {
	if err := unmapDefault(a.guest, a.exchangeGPA, a.exchange.Pages()); err != nil {
		return rings, fmt.Errorf("exchange: %w", err)
	}
	if err := a.exchange.Free(); err != nil {
		return rings, fmt.Errorf("exchange: %w", err)
	}
	if a.ring != nil {
		if err := unmapDefault(a.guest, a.ring.gpa, a.ring.region.Pages()); err != nil {
			return rings, fmt.Errorf("ring: %w", err)
		}
		rings = append(rings, detachRingLocked(a))
	}
	return rings, nil
}

// unmapDefault removes pages pages at gpa from the guest's default
// context and drops their translations from its TLB.
func unmapDefault(guest *hv.VM, gpa mem.GPA, pages int) error {
	tbl, tlb := guest.DefaultEPT(), guest.VCPU().TLB()
	for i := 0; i < pages; i++ {
		g := gpa + mem.GPA(i*mem.PageSize)
		if err := tbl.Unmap(g); err != nil {
			return err
		}
		tlb.InvalidatePage(tbl.Pointer(), g.Frame())
	}
	return nil
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
		if gs == nil {
			continue
		}
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
			if a.phys >= len(gs.physAtt) || !gs.granted[a.phys] {
				return fmt.Errorf("core: fsck: guest %d attachment %q phys slot %d not granted", id, name, a.phys)
			}
			if gs.physAtt[a.phys] != a {
				return fmt.Errorf("core: fsck: guest %d attachment %q phys slot %d slot-table mismatch", id, name, a.phys)
			}
			want[a.phys] = a.subCtx.Pointer()
		}
		grants, entries := 0, 0
		for idx := range gs.physAtt {
			if gs.granted[idx] {
				grants++
			}
			if gs.physAtt[idx] != nil {
				entries++
			}
		}
		if backed != grants || backed != entries || backed != gs.backed {
			return fmt.Errorf("core: fsck: guest %d has %d grants / %d slot-table entries (%d counted) for %d backed attachments",
				id, grants, entries, gs.backed, backed)
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
	gs := m.guest(guest.ID())
	if gs == nil {
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
	gs := m.guest(guest.ID())
	if gs == nil {
		return nil, fmt.Errorf("core: guest %q has no ELISA state", guest.Name())
	}
	return gs.gateCtx.Mappings()
}

// GateGPA reports where the gate page sits in a guest's address space.
func (m *Manager) GateGPA(guest *hv.VM) (gpa uint64, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	gs := m.guest(guest.ID())
	if gs == nil {
		return 0, false
	}
	return uint64(gs.gateGPA), true
}
