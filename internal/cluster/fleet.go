package cluster

import (
	"fmt"

	"github.com/elisa-go/elisa/internal/fleet"
	"github.com/elisa-go/elisa/internal/overload"
	"github.com/elisa-go/elisa/internal/simtime"
	"github.com/elisa-go/elisa/internal/workload"
)

// FleetConfig configures a cluster Fleet. The embedded fleet.Config
// applies to every shard's scheduler (same Seed, same Cores, same
// overload knobs). A 1-shard cluster fleet renders the same report as a
// plain fleet.Scheduler only while each Run or Replay call fits in one
// Slice: see Slice for what windowing changes.
type FleetConfig struct {
	fleet.Config

	// Slice is the interleaving granularity: Run advances each shard's
	// scheduler by one Slice of simulated time before moving to the next
	// shard, round-robin in shard order (default 4 scheduling quanta).
	// Shards are independent machines running concurrently in real time;
	// slicing is how the simulation renders that concurrency
	// deterministically. Per-shard results depend only on (Seed, Slice,
	// that shard's tenant set, total duration) — not on shard count —
	// which is what makes same-seed reports byte-identical at any shard
	// count. Results do depend on Slice: every window restarts each
	// scheduler's event clock at zero while queue stamps, token buckets
	// and busy cores carry over from the previous window (a known defect;
	// see ROADMAP.md). Fault-plan times are fleet time, so an injection
	// fires in the window that contains it whatever the Slice.
	Slice simtime.Duration

	// FaultShard names the shard Config.Faults arms on (default 0).
	// Fault plans are per failure domain: one shard's injector, poller,
	// and recovery sweep cannot corrupt another shard's machine.
	FaultShard int

	// Rebalance arms the load-driven auto-rebalancer: a controller that
	// runs between scheduling windows, watches per-shard demand, and
	// migrates tenants off overloaded shards through
	// Evict → MoveObject → Adopt (see Rebalancer for its fixed tuning).
	// False keeps placement static and every run bit-identical to the
	// unarmed fleet.
	Rebalance bool

	// GlobalAdmitOPS, when non-empty, caps the named tenants' aggregate
	// arrival rate cluster-wide (ops per simulated second) with one
	// token bucket per tenant (burst overload.DefaultBurst), consulted
	// before every per-shard gate. The bucket follows the tenant across
	// migrations — it is keyed by name, not placement — so a tenant
	// cannot mint fresh admission capacity by moving. Tenants absent from
	// the map are uncapped.
	GlobalAdmitOPS map[string]float64
}

// Fleet schedules tenants across a cluster: one fleet.Scheduler per
// shard (created lazily at first admission), with Run interleaving
// per-shard poll budgets and quanta so the merged report is
// deterministic.
type Fleet struct {
	c   *Cluster
	cfg FleetConfig

	scheds     []*fleet.Scheduler // indexed by shard; nil until a tenant lands there
	admissions []admission        // global admission order
	byName     map[string]int     // tenant name -> index into admissions
	elapsed    simtime.Duration

	// rebalancer support: each tenant's working set and how many tenants
	// use each object (only exclusively-owned sets may migrate).
	tenantObjects map[string][]string
	objUse        map[string]int
	reb           *Rebalancer

	// global admission: per-tenant cluster-wide token buckets. Each
	// shard's scheduler resolves a tenant's bucket once, at admission,
	// and reads it at fleet time: every live scheduler's elapsed time is
	// the fleet's at each window start (TestFleetSchedulersShareFleetTime).
	global map[string]*overload.TokenBucket

	// replay scratch, reused from call to call: the trace resolved to
	// admissions, and each shard's ops for the current window.
	replayRefs []replayRef
	perShard   [][]fleet.ReplayOp

	// lane execution: live shards of the current window (scratch, rebuilt
	// per window) and the cumulative lane-executor counters. Both are
	// touched only between windows / from Run's goroutine, like elapsed.
	liveLanes []int
	lanes     fleet.LaneStats
}

// admission remembers where the i-th admitted tenant landed, so merged
// reports list tenants in global admission order regardless of shard.
type admission struct {
	shard int
	idx   int           // index within the shard scheduler's own admission order
	t     *fleet.Tenant // the live tenant on that scheduler
}

// replayRef is one trace event resolved once: its admission (whose
// entry follows the tenant across migrations) and the handle index of
// its object.
type replayRef struct {
	at  simtime.Time
	adm int
	obj int
	fn  uint64
}

// NewFleet creates a cluster fleet. It refuses a fleet.Config that
// fleet.New would refuse, before any shard scheduler exists.
func (c *Cluster) NewFleet(cfg FleetConfig) (*Fleet, error) {
	if cfg.FaultShard < 0 || cfg.FaultShard >= len(c.shards) {
		return nil, fmt.Errorf("cluster: fleet FaultShard %d outside [0,%d)", cfg.FaultShard, len(c.shards))
	}
	if err := cfg.Config.Validate(); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	if cfg.Slice <= 0 {
		q := cfg.Quantum
		if q <= 0 {
			q = 10_000 // fleet.Config's default quantum
		}
		cfg.Slice = 4 * q
	}
	f := &Fleet{
		c:             c,
		cfg:           cfg,
		scheds:        make([]*fleet.Scheduler, len(c.shards)),
		byName:        make(map[string]int),
		tenantObjects: make(map[string][]string),
		objUse:        make(map[string]int),
	}
	if len(cfg.GlobalAdmitOPS) > 0 {
		f.global = make(map[string]*overload.TokenBucket, len(cfg.GlobalAdmitOPS))
		for name, rate := range cfg.GlobalAdmitOPS {
			if rate > 0 {
				f.global[name] = overload.NewTokenBucket(rate, overload.DefaultBurst)
			}
		}
		// Installed into the per-shard fleet.Config before any scheduler
		// exists, so every shard shares the same buckets; each scheduler
		// reads a bucket at fleet time, so refill tracks the cluster-wide
		// virtual-time frontier.
		f.cfg.Config.GlobalAdmit = func(tenant string) *overload.TokenBucket { return f.global[tenant] }
	}
	if cfg.Rebalance {
		f.reb = newRebalancer(f)
	}
	c.fleets = append(c.fleets, f)
	return f, nil
}

// Rebalancer exposes the armed auto-rebalancer (nil when
// FleetConfig.Rebalance is false).
func (f *Fleet) Rebalancer() *Rebalancer { return f.reb }

// schedOn returns (creating on first use) the shard's scheduler. The
// fault plan arms only on FaultShard — every other shard gets a plain
// scheduler.
func (f *Fleet) schedOn(shard int) (*fleet.Scheduler, error) {
	if s := f.scheds[shard]; s != nil {
		return s, nil
	}
	cfg := f.cfg.Config
	if shard != f.cfg.FaultShard {
		cfg.Faults = nil
	}
	sh := f.c.shards[shard]
	s, err := fleet.New(sh.hv, sh.mgr, cfg)
	if err != nil {
		return nil, fmt.Errorf("cluster: fleet shard %d: %w", shard, err)
	}
	// A shard first populated after earlier runs starts at fleet time,
	// like every other shard's scheduler: its fault pump and goodput
	// denominators read the same clock.
	s.AlignElapsed(f.elapsed)
	f.scheds[shard] = s
	return s, nil
}

// Admit places a tenant on the shard owning its objects and admits it
// there. All of a tenant's objects must live on one shard — the per-call
// fleet datapath is shard-local; split working sets belong to
// Guest.CallMulti, not to a fleet tenant. Tenant names are unique across
// the fleet: traces, global admission buckets and the rebalancer name
// tenants, so a second admit of a name is refused. Returns the owning
// shard.
func (f *Fleet) Admit(spec fleet.TenantSpec) (int, error) {
	if _, dup := f.byName[spec.Name]; dup {
		return 0, fmt.Errorf("cluster: fleet tenant %q already admitted", spec.Name)
	}
	if len(spec.Objects) == 0 {
		return 0, fmt.Errorf("cluster: fleet tenant %q has no objects", spec.Name)
	}
	shard := -1
	for _, obj := range spec.Objects {
		owner, ok := f.c.resolve(obj)
		if !ok {
			return 0, fmt.Errorf("cluster: fleet tenant %q: object %q not created", spec.Name, obj)
		}
		if shard == -1 {
			shard = owner
		} else if owner != shard {
			return 0, fmt.Errorf("cluster: fleet tenant %q: objects span shards %d and %d (one shard per tenant)", spec.Name, shard, owner)
		}
	}
	s, err := f.schedOn(shard)
	if err != nil {
		return 0, err
	}
	idx := len(s.Snapshot().Tenants)
	t, err := s.Admit(spec)
	if err != nil {
		return 0, err
	}
	f.byName[spec.Name] = len(f.admissions)
	f.admissions = append(f.admissions, admission{shard: shard, idx: idx, t: t})
	f.tenantObjects[spec.Name] = append([]string(nil), spec.Objects...)
	for _, obj := range spec.Objects {
		f.objUse[obj]++
	}
	return shard, nil
}

// Run advances every populated shard by d of simulated time, interleaved
// in Slice-sized steps in ascending shard order, and returns the merged
// report. Each shard's scheduler (cores, poller, fault pump) runs the
// full d — shards are concurrent machines, so cluster core-seconds scale
// with the populated-shard count while wall time stays single-threaded
// and deterministic.
func (f *Fleet) Run(d simtime.Duration) (*fleet.Report, error) {
	return f.windows(d, nil, func(_ int, s *fleet.Scheduler, step simtime.Duration) error {
		_, err := s.Run(step)
		return err
	})
}

// Replay drives the cluster fleet from a workload trace for d of
// simulated time: events route to the shard owning their tenant, and
// every populated shard advances in Slice-sized windows exactly as Run
// does — each window replays the events landing inside it, shifted to
// window-relative time, so per-shard results depend only on (Seed, that
// shard's tenant set, that shard's events, total duration). The same
// trace through the same tenant placement renders byte-identical merged
// reports at any shard count whose placement is identical per shard.
// Events must be time-ordered within [0, d) and name admitted tenants
// and objects those tenants attached. One pass resolves and checks every
// event before any shard advances, so a bad event refuses the whole call
// with its index in the trace and leaves every shard where it was.
func (f *Fleet) Replay(tr *workload.Trace, d simtime.Duration) (*fleet.Report, error) {
	if tr == nil {
		return nil, fmt.Errorf("cluster: fleet replay needs a trace")
	}
	refs := f.replayRefs[:0]
	for i, ev := range tr.Events {
		adm, ok := f.byName[ev.Tenant]
		if !ok {
			return nil, fmt.Errorf("cluster: replay event %d names unadmitted tenant %q", i, ev.Tenant)
		}
		obj := f.admissions[adm].t.ObjectIndex(ev.Object)
		if obj < 0 {
			return nil, fmt.Errorf("cluster: replay event %d: tenant %q has no attachment for object %q", i, ev.Tenant, ev.Object)
		}
		if ev.At < 0 || simtime.Duration(ev.At) >= d {
			return nil, fmt.Errorf("cluster: replay event %d at %d outside window [0,%d)", i, ev.At, d)
		}
		if i > 0 && ev.At < tr.Events[i-1].At {
			return nil, fmt.Errorf("cluster: replay event %d at %d is before event %d at %d; events must be in time order",
				i, ev.At, i-1, tr.Events[i-1].At)
		}
		refs = append(refs, replayRef{at: ev.At, adm: adm, obj: obj, fn: ev.Fn})
	}
	f.replayRefs = refs
	next := 0 // cursor into the time-ordered trace
	// Bucket each window's events by each tenant's *current* admission
	// entry — placement can change between windows when the rebalancer is
	// armed, and an event must land where its tenant lives now. With
	// static placement the buckets are identical to routing the whole
	// trace up front, keeping unarmed replays bit-identical.
	route := func(off, step simtime.Duration) {
		if len(f.perShard) != len(f.scheds) {
			f.perShard = make([][]fleet.ReplayOp, len(f.scheds))
		}
		for i := range f.perShard {
			f.perShard[i] = f.perShard[i][:0]
		}
		for next < len(refs) && simtime.Duration(refs[next].at) < off+step {
			r := refs[next]
			a := f.admissions[r.adm]
			f.perShard[a.shard] = append(f.perShard[a.shard],
				fleet.ReplayOp{At: r.at - simtime.Time(off), Tenant: a.t, Obj: r.obj, Fn: r.fn})
			next++
		}
	}
	return f.windows(d, route, func(shard int, s *fleet.Scheduler, step simtime.Duration) error {
		_, err := s.ReplayOps(f.perShard[shard], step)
		return err
	})
}

// windows is the one window loop behind Run and Replay: it advances the
// fleet by d in Slice-sized windows. Before each window, prepare (when
// non-nil) sees the window's offset into this call and its length; run
// then advances each populated shard through it (see runWindowShards).
// The rebalancer ticks between windows, when every shard is quiescent
// and the rings are drained — the only point where a migration is
// race-free and deterministic.
func (f *Fleet) windows(d simtime.Duration, prepare func(off, step simtime.Duration),
	run func(shard int, s *fleet.Scheduler, step simtime.Duration) error) (*fleet.Report, error) {
	if d <= 0 {
		return nil, fmt.Errorf("cluster: fleet run duration %d must be positive", d)
	}
	if len(f.admissions) == 0 {
		return nil, fmt.Errorf("cluster: fleet has no tenants")
	}
	base := f.elapsed
	for done := simtime.Duration(0); done < d; {
		step := min(f.cfg.Slice, d-done)
		if prepare != nil {
			prepare(done, step)
		}
		if err := f.runWindowShards(step, run); err != nil {
			return nil, err
		}
		done += step
		if f.reb != nil {
			if err := f.reb.tick(base + done); err != nil {
				return nil, err
			}
		}
	}
	f.elapsed += d
	return f.Snapshot(), nil
}

// runWindowShards advances every populated shard through one window. Each
// populated shard is one lane: an independent machine (own hypervisor,
// manager, clock, RNGs) advancing by the same simulated step, with no
// cross-shard reads during the window. Lanes therefore commute, and
// fleet.RunLanes merges them by shard order, so reports are
// byte-identical at any Parallelism and any GOMAXPROCS.
//
// Two configurations do share order-sensitive state across shards:
// cluster-wide admission buckets (f.global — every shard's scheduler
// draws tokens from the same buckets) and a decision trace
// (cfg.Decisions — every shard appends verdicts to one log). Those
// windows are demoted to serial execution and counted as ForcedSerial;
// correctness always wins over wall-clock.
//
// The rebalancer is unaffected: it ticks between windows, after the
// lane barrier, when every shard is quiescent.
func (f *Fleet) runWindowShards(step simtime.Duration, run func(int, *fleet.Scheduler, simtime.Duration) error) error {
	live := f.liveLanes[:0]
	for i, s := range f.scheds {
		if s != nil {
			live = append(live, i) // fleet.Run errors on zero tenants; empty shards sit out
		}
	}
	f.liveLanes = live
	par := f.cfg.Parallelism
	f.lanes.Parallelism = par
	f.lanes.Windows++
	f.lanes.LaneRuns += uint64(len(live))
	if par > 1 && (f.global != nil || f.cfg.Decisions != nil) {
		par = 1
		f.lanes.ForcedSerial++
	}
	if par > len(live) {
		par = len(live)
	}
	if par > 1 {
		f.lanes.Parallel++
	} else {
		f.lanes.Sequential++
	}
	return fleet.RunLanes(par, len(live), func(lane int) error {
		shard := live[lane]
		return run(shard, f.scheds[shard], step)
	})
}

// TenantShard returns the shard an admitted tenant runs on now (the
// rebalancer may have moved it since admission).
func (f *Fleet) TenantShard(name string) (int, bool) {
	i, ok := f.byName[name]
	if !ok {
		return 0, false
	}
	return f.admissions[i].shard, true
}

// LaneStats returns the cumulative lane-executor counters: how many
// scheduling windows ran, how many fanned out in parallel, and how many
// were forced serial by shared admission or decision-trace state.
func (f *Fleet) LaneStats() fleet.LaneStats { return f.lanes }

// Snapshot merges the per-shard reports: tenants in global admission
// order, chaos counters and shed tallies summed, Duration equal to the
// fleet's accumulated run time (every populated shard ran exactly that
// long), and Cores the per-shard core count.
func (f *Fleet) Snapshot() *fleet.Report {
	merged := &fleet.Report{Duration: f.elapsed, Cores: f.cfg.Cores}
	if merged.Cores <= 0 {
		merged.Cores = 1
	}
	reports := make([]*fleet.Report, len(f.scheds))
	for i, s := range f.scheds {
		if s != nil {
			reports[i] = s.Snapshot()
		}
	}
	for _, adm := range f.admissions {
		merged.Tenants = append(merged.Tenants, reports[adm.shard].Tenants[adm.idx])
	}
	for _, r := range reports {
		if r == nil {
			continue
		}
		merged.FaultsFired += r.FaultsFired
		merged.FaultsPending += r.FaultsPending
		merged.Recoveries += r.Recoveries
		merged.MidGateDeaths += r.MidGateDeaths
		merged.Repairs += r.Repairs
		merged.Retries += r.Retries
		merged.FaultTrace += r.FaultTrace
		for i, n := range r.ShedByClass {
			merged.ShedByClass[i] += n
		}
	}
	return merged
}

// Scheduler exposes one shard's underlying scheduler (nil if no tenant
// landed there).
func (f *Fleet) Scheduler(shard int) *fleet.Scheduler { return f.scheds[shard] }
