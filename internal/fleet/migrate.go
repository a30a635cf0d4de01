// Tenant migration: Evict takes a live tenant off one scheduler, Adopt
// boots the same tenant onto another. The pair is the fleet half of the
// cluster's auto-rebalancer (internal/cluster/rebalance.go): between
// scheduling windows the rebalancer Evicts a hot tenant, moves its
// objects with Cluster.MoveObject, and Adopts it on the destination
// shard. The *Tenant itself moves — counters, latency histogram, arrival
// process, admission bucket and still-queued ops are its own fields — so
// the merged report reads one continuous tenant that changed machines.
package fleet

import (
	"fmt"
	"slices"

	"github.com/elisa-go/elisa/internal/simtime"
)

// Elapsed returns the simulated time this scheduler has accumulated
// across its runs.
func (s *Scheduler) Elapsed() simtime.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.elapsed
}

// AlignElapsed raises the scheduler's accumulated-run clock to at least
// d. A scheduler created after the fleet has run (its shard was empty
// until a tenant arrived, by admission or migration) starts at zero
// elapsed time; the cluster fleet aligns it to fleet time, which its
// fault pump and the cluster-wide admission buckets read.
func (s *Scheduler) AlignElapsed(d simtime.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if d > s.elapsed {
		s.elapsed = d
	}
}

// Evict takes a live tenant off this scheduler for Adopt on another. Its
// rings are drained (pending completions are harvested into its
// counters) and its attachments detached gracefully — detaching removes
// their call history from this shard's manager accounting, which is what
// lets a migration actually shift Cluster.Stats load. The tenant's guest
// VM stays here, idle. The scheduler keeps running its windows (fault
// pump, repairs, elapsed time) after its last tenant leaves. Call it only
// between runs (never from inside a Run/Replay window); a crashed tenant,
// or one not on this scheduler, is refused.
func (s *Scheduler) Evict(t *Tenant) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t == nil || t.sched != s {
		return fmt.Errorf("fleet: evict: not a tenant of this scheduler")
	}
	name := t.spec.Name
	if t.crashed || t.vm.Dead() {
		return fmt.Errorf("fleet: evict %q: tenant crashed", name)
	}
	// Drain the rings dry so no op is in flight when the attachments go.
	for pass := 0; pass < 4 && t.ringPending() > 0; pass++ {
		v := t.vm.VCPU()
		for _, r := range t.rings {
			if err := r.Flush(v); err != nil {
				return fmt.Errorf("fleet: evict %q: flush: %w", name, err)
			}
		}
		s.harvestTenant(t, simtime.Time(s.elapsed))
	}
	if n := t.ringPending(); n > 0 {
		return fmt.Errorf("fleet: evict %q: %d ring ops still pending", name, n)
	}
	for _, obj := range t.spec.Objects {
		if err := t.guest.Detach(obj); err != nil {
			return fmt.Errorf("fleet: evict %q: detach %q: %w", name, obj, err)
		}
	}
	t.handles, t.rings, t.ringPend = nil, nil, nil
	t.sched = nil
	i := slices.Index(s.tenants, t)
	s.tenants = slices.Delete(s.tenants, i, i+1)
	return nil
}

// Adopt boots a tenant another scheduler evicted onto this one: a fresh
// guest VM, fresh attachments (and rings, in ring mode) against this
// scheduler's manager, and the next join index here (see
// Scheduler.joined). Everything the tenant accumulated travels with it.
// The tenant re-enters the stride schedule like a fresh admit (pass
// zero); its objects must already exist on this scheduler's manager —
// the caller moves them first. A tenant still on a scheduler is refused.
func (s *Scheduler) Adopt(t *Tenant) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t == nil || t.vm == nil || t.sched != nil {
		return fmt.Errorf("fleet: adopt: not a tenant evicted from its scheduler")
	}
	for _, o := range s.tenants {
		if o.spec.Name == t.spec.Name {
			return fmt.Errorf("fleet: adopt %q: name already admitted here", t.spec.Name)
		}
	}
	t.pass = 0
	return s.bootLocked(t, "adopt")
}
