package cluster

import (
	"fmt"

	"github.com/elisa-go/elisa/internal/fleet"
	"github.com/elisa-go/elisa/internal/obs"
	"github.com/elisa-go/elisa/internal/overload"
	"github.com/elisa-go/elisa/internal/simtime"
)

// The rebalancer's fixed tuning. It is deliberately conservative —
// hysteresis first, migration second — because a placement controller
// that oscillates is worse than none. The controller period is the
// fleet's Slice: one decision per scheduling window.
const (
	// rebalanceTrigger is the imbalance ratio — hottest shard's demand
	// over the mean — below which the controller does nothing.
	rebalanceTrigger = 1.5
	// rebalanceImprovement is the minimum relative reduction of the
	// hottest shard's demand a move must promise, (oldMax-newMax)/oldMax,
	// or the controller holds.
	rebalanceImprovement = 0.1
	// rebalanceDwellPeriods is how many controller periods a migrated
	// tenant must stay put before it may move again. Dwell is the
	// anti-oscillation backstop: even a mis-predicted move cannot
	// ping-pong.
	rebalanceDwellPeriods = 2
	// rebalanceMaxMoves caps migrations per controller tick.
	rebalanceMaxMoves = 1
)

// RebalanceDecision is one controller decision — a migration executed,
// or a hold with the reason the candidate move was rejected. The
// decision list is deterministic for same-seed runs and is the
// convergence artefact ext_rebalance renders.
type RebalanceDecision struct {
	At        simtime.Duration // fleet time of the controller tick
	Tenant    string           // candidate tenant ("" when no candidate existed)
	From, To  int              // shards (From == To on a hold with no candidate)
	Load      uint64           // candidate's demand delta over the last period
	Imbalance float64          // max/mean shard demand at decision time
	Moved     bool
	Note      string // why it held, or "migrated"
}

// RebalanceStats aggregates the controller's activity.
type RebalanceStats struct {
	Ticks uint64 // controller periods evaluated
	Moves uint64 // migrations executed
	Held  uint64 // periods above the trigger where hysteresis refused the move
}

// Rebalancer is the load-driven placement controller: each period it
// reads every tenant's demand (submitted-ops delta) from the shard
// schedulers, computes per-shard demand and its imbalance ratio, and —
// past the trigger, subject to dwell and improvement hysteresis —
// migrates the hottest movable tenant from the hottest shard to the
// least-loaded one through Evict → MoveObject → Adopt. It runs between scheduling
// windows only, where every shard is quiescent, so decisions are
// deterministic and the migration path never races live dispatch.
type Rebalancer struct {
	f *Fleet

	started bool
	last    simtime.Duration
	prev    map[string]uint64           // tenant -> Submitted at last tick
	movedAt map[string]simtime.Duration // tenant -> last migration time
	moves   map[string]int              // tenant -> times migrated

	stats     RebalanceStats
	decisions []RebalanceDecision
}

func newRebalancer(f *Fleet) *Rebalancer {
	return &Rebalancer{
		f:       f,
		prev:    make(map[string]uint64),
		movedAt: make(map[string]simtime.Duration),
		moves:   make(map[string]int),
	}
}

// Stats returns the controller's aggregate activity so far.
func (r *Rebalancer) Stats() RebalanceStats { return r.stats }

// Decisions returns the controller's decision list in order.
func (r *Rebalancer) Decisions() []RebalanceDecision {
	return append([]RebalanceDecision(nil), r.decisions...)
}

// TenantMoves returns how many times each migrated tenant has moved
// (tenants that never moved are absent). Objects move with their
// tenant, so this is also the per-object move count.
func (r *Rebalancer) TenantMoves() map[string]int {
	out := make(map[string]int, len(r.moves))
	for k, v := range r.moves {
		out[k] = v
	}
	return out
}

// tick runs one controller period at fleet time now (called by
// Fleet.Run / Fleet.Replay after each scheduling window, when every
// shard is quiescent). Decisions are pure functions of the demand
// deltas, so same-seed runs tick identically.
func (r *Rebalancer) tick(now simtime.Duration) error {
	if r.started && now-r.last < r.f.cfg.Slice {
		return nil
	}
	r.started = true
	r.last = now
	r.stats.Ticks++
	f := r.f

	// Demand deltas since the last tick, in global admission order (the
	// only deterministic tenant order), summed into per-shard loads.
	// Deltas come from the live tenant's report row — after a migration
	// the admissions entry points at the adopting scheduler, whose
	// carried Submitted counter is monotonic across the move.
	reports := make([]*fleet.Report, len(f.scheds))
	for i, s := range f.scheds {
		if s != nil {
			reports[i] = s.Snapshot()
		}
	}
	type cand struct {
		name  string
		shard int
		load  uint64
		class int
	}
	loads := make([]uint64, len(f.scheds))
	tenants := make([]cand, 0, len(f.admissions))
	for _, adm := range f.admissions {
		name := adm.t.Name()
		tr := reports[adm.shard].Tenants[adm.idx]
		delta := tr.Submitted - r.prev[name]
		r.prev[name] = tr.Submitted
		loads[adm.shard] += delta
		tenants = append(tenants, cand{name: name, shard: adm.shard, load: delta, class: tr.Class})
	}

	for n := 0; n < rebalanceMaxMoves; n++ {
		var total uint64
		hot, cold := 0, 0
		for i, l := range loads {
			total += l
			if l > loads[hot] {
				hot = i
			}
			if l < loads[cold] {
				cold = i
			}
		}
		if total == 0 {
			return nil
		}
		mean := float64(total) / float64(len(loads))
		imb := float64(loads[hot]) / mean
		if imb < rebalanceTrigger {
			return nil
		}
		// Hottest movable tenant on the hottest shard: demand > 0,
		// objects exclusively its own (a shared object cannot follow one
		// tenant), and past its dwell. Admission order breaks ties.
		var pick *cand
		for i := range tenants {
			c := &tenants[i]
			if c.shard != hot || c.load == 0 || !f.exclusiveObjects(c.name) {
				continue
			}
			if at, ok := r.movedAt[c.name]; ok && now-at < rebalanceDwellPeriods*f.cfg.Slice {
				continue
			}
			if pick == nil || c.load > pick.load {
				pick = c
			}
		}
		if pick == nil {
			r.hold(now, "", hot, hot, 0, imb, "no movable tenant (shared objects or dwell)")
			return nil
		}
		if cold == hot || loads[cold]+pick.load >= loads[hot] {
			r.hold(now, pick.name, hot, cold, pick.load, imb, "move would not reduce the hot shard below the destination")
			return nil
		}
		newMax := uint64(0)
		for i, l := range loads {
			switch i {
			case hot:
				l -= pick.load
			case cold:
				l += pick.load
			}
			if l > newMax {
				newMax = l
			}
		}
		if gain := (float64(loads[hot]) - float64(newMax)) / float64(loads[hot]); gain < rebalanceImprovement {
			r.hold(now, pick.name, hot, cold, pick.load, imb,
				fmt.Sprintf("improvement %.3f below threshold %.3f", gain, rebalanceImprovement))
			return nil
		}
		if err := f.migrateTenant(pick.name, cold); err != nil {
			return fmt.Errorf("cluster: rebalance %q shard %d -> %d: %w", pick.name, hot, cold, err)
		}
		r.stats.Moves++
		r.moves[pick.name]++
		r.movedAt[pick.name] = now
		r.decisions = append(r.decisions, RebalanceDecision{
			At: now, Tenant: pick.name, From: hot, To: cold,
			Load: pick.load, Imbalance: imb, Moved: true, Note: "migrated",
		})
		// A rebalance is off the per-op path: its names are interned
		// here, once per move. The causal note, unique to nearly every
		// move, is kept with its event rather than interned.
		if dec := f.cfg.Decisions; dec != nil {
			dec.Record(simtime.Time(now), dec.Tenant(pick.name), overload.VerdictRebalance, pick.class,
				dec.Note(fmt.Sprintf("shard %d -> %d", hot, cold)))
		}
		if recs := [2]*obs.Recorder{f.c.shards[hot].mgr.Recorder(), f.c.shards[cold].mgr.Recorder()}; recs[0] != nil || recs[1] != nil {
			note := fmt.Sprintf("shard %d -> %d, load %d, imbalance %.2f", hot, cold, pick.load, imb)
			for _, rec := range recs {
				log := rec.Causal()
				log.EmitText(obs.Record{Kind: obs.EvRebalance, Time: simtime.Time(now), Subject: log.Subject(pick.name, "")}, note)
			}
		}
		loads[hot] -= pick.load
		loads[cold] += pick.load
		pick.shard = cold
	}
	return nil
}

func (r *Rebalancer) hold(now simtime.Duration, tenant string, from, to int, load uint64, imb float64, note string) {
	r.stats.Held++
	r.decisions = append(r.decisions, RebalanceDecision{
		At: now, Tenant: tenant, From: from, To: to, Load: load, Imbalance: imb, Note: note,
	})
}

// exclusiveObjects reports whether every object in the tenant's working
// set is used by that tenant alone — the precondition for the objects to
// migrate with it.
func (f *Fleet) exclusiveObjects(name string) bool {
	objs := f.tenantObjects[name]
	if len(objs) == 0 {
		return false
	}
	for _, obj := range objs {
		if f.objUse[obj] != 1 {
			return false
		}
	}
	return true
}

// migrateTenant carries one tenant to shard dst: Evict packages it off
// its source scheduler (graceful detach — its call history leaves the
// source shard's accounting), MoveObject carries each of its objects,
// and Adopt boots it on the destination. The global admission order is
// preserved: the tenant's admissions entry is repointed at the adopting
// scheduler, so merged reports read one continuous tenant.
func (f *Fleet) migrateTenant(name string, dst int) error {
	i, ok := f.byName[name]
	if !ok {
		return fmt.Errorf("cluster: migrate %q: not admitted", name)
	}
	src := f.admissions[i].shard
	if src == dst {
		return fmt.Errorf("cluster: migrate %q: already on shard %d", name, dst)
	}
	ss := f.scheds[src]
	st, err := ss.Evict(f.admissions[i].t)
	if err != nil {
		return err
	}
	for _, obj := range st.Spec().Objects {
		if err := f.c.MoveObject(obj, dst); err != nil {
			return err
		}
	}
	ds, err := f.schedOn(dst)
	if err != nil {
		return err
	}
	// A scheduler created (or idle) until now starts behind the fleet
	// clock; align it so the adopted tenant's goodput denominator is the
	// fleet's elapsed time, not the destination's.
	ds.AlignElapsed(ss.Elapsed())
	idx := len(ds.Snapshot().Tenants)
	t, err := ds.Adopt(st)
	if err != nil {
		return err
	}
	f.admissions[i] = admission{shard: dst, idx: idx, t: t}
	f.c.rebalances++
	return nil
}
