// Tenant migration: Evict packages a live tenant's portable state off
// one scheduler, Adopt boots it onto another. The pair is the fleet half
// of the cluster's auto-rebalancer (internal/cluster/rebalance.go):
// between scheduling windows the rebalancer Evicts a hot tenant, moves
// its objects with Cluster.MoveObject, and Adopts it on the destination
// shard — counters, latency histogram, arrival process, admission
// bucket, and still-queued ops all carry over, so the merged report
// reads as one continuous tenant that changed machines.
package fleet

import (
	"fmt"

	"github.com/elisa-go/elisa/internal/overload"
	"github.com/elisa-go/elisa/internal/simtime"
	"github.com/elisa-go/elisa/internal/stats"
	"github.com/elisa-go/elisa/internal/workload"
)

// TenantState is the portable state Evict returns and Adopt consumes:
// the admission spec plus everything the tenant accumulated — counters,
// histogram, queue, arrival process, admission bucket. It is opaque to
// callers; they only route it (and may read its Spec).
type TenantState struct {
	spec    TenantSpec
	arrival workload.Arrival
	queue   []pendingOp
	rr      int

	submitted, completed, dropped, fnErrors, lost uint64
	throttled, shed, busied                       uint64
	maxQueue                                      int
	coreTime                                      simtime.Duration
	hist                                          *stats.Histogram
	bucket                                        *overload.TokenBucket
}

// Spec returns the migrating tenant's admission spec (the rebalancer
// reads Objects off it to know what to MoveObject).
func (st *TenantState) Spec() TenantSpec { return st.spec }

// Elapsed returns the simulated time this scheduler has accumulated
// across its runs.
func (s *Scheduler) Elapsed() simtime.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.elapsed
}

// AlignElapsed raises the scheduler's accumulated-run clock to at least
// d. A scheduler created mid-run by a migration (the destination shard
// was empty until the tenant arrived) starts at zero elapsed time; the
// cluster fleet aligns it to the fleet clock so per-tenant goodput —
// completed over elapsed — stays meaningful for adopted tenants.
func (s *Scheduler) AlignElapsed(d simtime.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if d > s.elapsed {
		s.elapsed = d
	}
}

// Evict removes a live tenant from this scheduler and returns its
// portable state for Adopt. The tenant's rings are drained (any pending
// completions are harvested into its carried counters), its attachments
// detached gracefully — detaching removes their call history from this
// shard's manager accounting, which is what lets a migration actually
// shift Cluster.Stats load — and its slot in the admission list becomes
// an inert stub reporting zeros, so sibling report indices stay stable.
// Call it only between runs (never from inside a Run/Replay window);
// crashed or already-migrated tenants refuse.
func (s *Scheduler) Evict(name string) (*TenantState, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var t *Tenant
	for _, c := range s.tenants {
		if c.spec.Name == name {
			t = c
			break
		}
	}
	if t == nil {
		return nil, fmt.Errorf("fleet: evict %q: no such tenant", name)
	}
	if t.migrated {
		return nil, fmt.Errorf("fleet: evict %q: already migrated", name)
	}
	if t.crashed || t.vm.Dead() {
		return nil, fmt.Errorf("fleet: evict %q: tenant crashed", name)
	}
	// Drain the rings dry so no op is in flight when the attachments go.
	for pass := 0; pass < 4 && t.ringPending() > 0; pass++ {
		v := t.vm.VCPU()
		for _, r := range t.rings {
			if err := r.Flush(v); err != nil {
				return nil, fmt.Errorf("fleet: evict %q: flush: %w", name, err)
			}
		}
		s.harvestTenant(t, simtime.Time(s.elapsed))
	}
	if n := t.ringPending(); n > 0 {
		return nil, fmt.Errorf("fleet: evict %q: %d ring ops still pending", name, n)
	}
	for _, obj := range t.spec.Objects {
		if err := t.guest.Detach(obj); err != nil {
			return nil, fmt.Errorf("fleet: evict %q: detach %q: %w", name, obj, err)
		}
	}
	st := &TenantState{
		spec:      t.spec,
		arrival:   t.arrival,
		queue:     t.queue,
		rr:        t.rr,
		submitted: t.submitted,
		completed: t.completed,
		dropped:   t.dropped,
		fnErrors:  t.fnErrors,
		lost:      t.lost,
		throttled: t.throttled,
		shed:      t.shed,
		busied:    t.busied,
		maxQueue:  t.maxQueue,
		coreTime:  t.coreTime,
		hist:      t.hist,
		bucket:    t.bucket,
	}
	// Reduce the slot to a stub: present (indices stay stable), inert
	// (never scheduled, never arrives), and reporting zeros.
	t.migrated = true
	t.arrival = nil
	t.queue = nil
	t.handles = nil
	t.rings = nil
	t.ringPend = nil
	t.bucket = nil
	t.submitted, t.completed, t.dropped, t.fnErrors, t.lost = 0, 0, 0, 0, 0
	t.throttled, t.shed, t.busied = 0, 0, 0
	t.maxQueue, t.coreTime, t.rr = 0, 0, 0
	t.hist = stats.NewHistogram()
	return st, nil
}

// Adopt boots a migrated tenant onto this scheduler from the state Evict
// returned: a fresh guest VM, fresh attachments (and rings, in ring
// mode) against this scheduler's manager, with every carried counter,
// the latency histogram, the arrival process, the admission bucket, and
// the still-queued ops restored. The tenant re-enters the stride
// schedule like a fresh admit (pass zero); its objects must already
// exist on this scheduler's manager — the caller moves them first.
func (s *Scheduler) Adopt(st *TenantState) (*Tenant, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if st == nil {
		return nil, fmt.Errorf("fleet: adopt needs a tenant state")
	}
	spec := st.spec
	for _, t := range s.tenants {
		if t.spec.Name == spec.Name && !t.migrated {
			return nil, fmt.Errorf("fleet: adopt %q: name already admitted here", spec.Name)
		}
	}
	t := &Tenant{
		spec:      spec,
		index:     len(s.tenants),
		arrival:   st.arrival,
		queue:     st.queue,
		rr:        st.rr,
		submitted: st.submitted,
		completed: st.completed,
		dropped:   st.dropped,
		fnErrors:  st.fnErrors,
		lost:      st.lost,
		throttled: st.throttled,
		shed:      st.shed,
		busied:    st.busied,
		maxQueue:  st.maxQueue,
		coreTime:  st.coreTime,
		hist:      st.hist,
		bucket:    st.bucket,
	}
	if err := s.bootLocked(t, "adopt"); err != nil {
		return nil, err
	}
	return t, nil
}
