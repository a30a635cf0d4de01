// Package fleet is the control plane for running many ELISA tenants on
// one simulated machine: a deterministic scheduler that time-slices N
// simulated cores across the guests' vCPUs, with per-tenant weights
// (stride scheduling), admission control, and bounded per-tenant queues
// with drop accounting.
//
// Tenancy is where the slot-virtualisation layer earns its keep: hundreds
// of guests holding thousands of attachments share one 512-entry EPTP
// list per guest, and the scheduler drives their exit-less calls through
// the real manager, so slot faults and evictions show up in the latency
// histograms exactly as they would on hardware. Everything is seeded and
// event-ordered, so two runs with the same seed produce byte-identical
// reports.
package fleet

import (
	"fmt"
	"sync"

	"github.com/elisa-go/elisa/internal/core"
	"github.com/elisa-go/elisa/internal/des"
	"github.com/elisa-go/elisa/internal/fault"
	"github.com/elisa-go/elisa/internal/hv"
	"github.com/elisa-go/elisa/internal/obs"
	"github.com/elisa-go/elisa/internal/overload"
	"github.com/elisa-go/elisa/internal/shm"
	"github.com/elisa-go/elisa/internal/simtime"
	"github.com/elisa-go/elisa/internal/stats"
	"github.com/elisa-go/elisa/internal/workload"
)

// TenantClass is a tenant's load-shedding priority class: 0 is the
// lowest; under sustained saturation the shedder drops lower classes
// first, and the top class (Config.Classes-1) is never shed.
type TenantClass int

// MaxTenantClasses bounds Config.Classes, keeping the per-class drop
// counters a fixed-size (and so ==-comparable) array in Report.
const MaxTenantClasses = 8

// Config configures a Scheduler.
type Config struct {
	// Cores is the number of simulated cores the fleet time-slices
	// (default 1).
	Cores int
	// Quantum is the maximum core time one tenant holds per scheduling
	// turn (default 10µs of simulated time, ~50 hot calls).
	Quantum simtime.Duration
	// MaxTenants is the admission cap; Admit fails beyond it (0 = no cap).
	MaxTenants int
	// QueueDepth bounds each tenant's pending-op queue; arrivals beyond
	// it are dropped and counted (default 64).
	QueueDepth int
	// Seed feeds every tenant's arrival process. Two schedulers built
	// with the same seed and tenant set produce byte-identical reports.
	Seed int64
	// Faults, when non-nil, arms the manager with this fault plan for the
	// fleet's runs: the scheduler pumps asynchronous injections between
	// events, repairs what they corrupt, and quarantines tenants they
	// kill. Plan times are fleet time — simulated time summed over every
	// Run and Replay call — so a split run fires the same injections as
	// one long run. The plan is part of the seed — the same (Seed,
	// Faults) pair replays the identical fault and recovery trace.
	Faults *fault.Plan
	// PumpEvery is the virtual-time period of the fault pump / recovery
	// sweep while a plan is armed (default: the scheduling Quantum).
	PumpEvery simtime.Duration
	// RingDepth, when positive, switches every tenant's datapath from one
	// gate crossing per op to the exit-less call ring: ops are enqueued as
	// descriptors (power-of-two depth), and gate crossings happen only on
	// the adaptive policy's terms. Zero keeps the per-call path.
	RingDepth int
	// RingDeadline is the tenants' adaptive batching deadline — the
	// longest a queued op may wait before its guest takes the gate
	// (default: the scheduling Quantum). Only meaningful with RingDepth.
	RingDeadline simtime.Duration
	// PollBudget bounds how many ring descriptors one manager poller pass
	// services; the scheduler interleaves one pass per dispatched quantum
	// so polling cannot starve the cores (default 64; negative disables
	// the poller, leaving rings to the tenants' own gate flushes). Only
	// meaningful with RingDepth.
	PollBudget int

	// Overload-control knobs. All are opt-in: the zero values keep the
	// pre-overload fleet behaviour bit-for-bit.

	// Classes enables priority-class load shedding with this many classes
	// (at most MaxTenantClasses; 0 = shedding off). Arrivals are shed
	// lowest class first once fleet-wide queue occupancy stays above the
	// watermarks (see internal/overload.Shedder).
	Classes int
	// ShedLow and ShedHigh are the shedder's occupancy watermarks
	// (fractions of total queue capacity; defaults 0.5 and 0.9), and
	// ShedAfter is how long saturation must be sustained before shedding
	// engages (default: shed immediately).
	ShedLow, ShedHigh float64
	ShedAfter         simtime.Duration
	// AdmitBurst is the default token-bucket burst for tenants with an
	// AdmitRateOPS (default 16); TenantSpec.AdmitBurst overrides it.
	AdmitBurst int
	// BreakerThreshold enables per-tenant circuit breakers: a tenant
	// firing this many faults within BreakerWindow is quarantined for
	// BreakerCooldown (doubling per re-trip) instead of churning the
	// repair path. 0 disables breakers. Only meaningful with Faults.
	BreakerThreshold int
	BreakerWindow    simtime.Duration
	BreakerCooldown  simtime.Duration
	// RingRetry is the retry policy tenants' ring callers apply to
	// CompBusy bounce-backs (zero value: no retries). Each tenant's
	// jitter RNG is seeded with RingRetry.Seed plus its admission index.
	// Only meaningful with RingDepth.
	RingRetry core.RetryPolicy
	// Overload, when Enabled, arms the manager's drain-side overload
	// control (busy bounce-backs, weighted-fair poll budget — see
	// core.Manager.SetOverload) and weights each tenant's drain share by
	// Weight×(1+Class).
	Overload core.OverloadConfig
	// Decisions, when non-nil, logs every overload verdict — admit,
	// throttle, quarantine, shed, drop, busy — into the trace for
	// post-run fitness and counterfactual analysis (internal/fitness).
	// Recording is observation only: arming it changes no decision.
	Decisions *overload.DecisionTrace

	// GlobalAdmit, when non-nil, is consulted before every other gate of
	// the refusal ladder: returning false refuses the arrival (counted as
	// Throttled, verdict "global-bucket"). The cluster fleet installs one
	// closure over a per-tenant cluster-wide token bucket on every
	// shard's scheduler, capping a tenant's aggregate rate regardless of
	// placement. The hook must be deterministic for same-seed runs; nil
	// (the default) keeps the ladder bit-identical to the unhooked fleet.
	GlobalAdmit func(now simtime.Time, tenant string, class int) bool

	// Parallelism bounds how many independent execution lanes a
	// lane-structured runner may drive on concurrent host goroutines (see
	// RunLanes; cluster.Fleet fans its per-window shard advances out this
	// way). It is strictly a wall-clock knob: a lane is an independent
	// simulated machine, lanes synchronise only at window barriers, and
	// merges read lane results in a fixed order — so the same seed renders
	// byte-identical reports at any Parallelism and any GOMAXPROCS. 0 or
	// 1 keeps execution single-threaded. A single fleet.Scheduler ignores
	// it: tenants on one shard share a manager and a simulated clock, so
	// intra-shard parallelism would not be deterministic.
	Parallelism int
}

// TenantSpec describes one tenant to admit.
type TenantSpec struct {
	// Name is the guest VM's name.
	Name string
	// Weight is the tenant's share of core time under contention
	// (stride scheduling; default 1).
	Weight int
	// RAMBytes is the guest's private RAM (default 16 pages).
	RAMBytes int
	// Objects are the shared objects to attach at admission. Ops cycle
	// over them round-robin, so a working set larger than the guest's
	// slot budget exercises the HCSlotFault slow path.
	Objects []string
	// Fn is the manager function every op calls.
	Fn uint64
	// RateOPS is the open-loop arrival rate, ops per simulated second,
	// behind a Poisson process. Ignored when Arrival is set.
	RateOPS float64
	// Arrival, when non-nil, replaces the RateOPS Poisson with a custom
	// seeded arrival process (MMPP bursts, diurnal swings — any
	// workload.Arrival). The caller owns the seeding; sharing one
	// process between tenants breaks per-tenant determinism.
	Arrival workload.Arrival
	// Ops caps the total arrivals (0 = unlimited until the run deadline).
	Ops int
	// Class is the tenant's load-shedding priority class (0 = lowest;
	// must be below Config.Classes when shedding is enabled).
	Class TenantClass
	// AdmitRateOPS, when positive, rate-limits this tenant's arrivals
	// with a token bucket: arrivals beyond the rate are refused before
	// they queue (counted as Throttled). AdmitBurst overrides the
	// fleet-wide Config.AdmitBurst for this tenant.
	AdmitRateOPS float64
	AdmitBurst   int
}

// SpecFromWorkload maps a parsed workload tenant spec onto a fleet
// TenantSpec. The arrival process is built from the spec's arrival
// family seeded with seed (replay never consults it, but admission
// requires one); class, weight, and admission-bucket knobs carry over.
func SpecFromWorkload(sp workload.Spec, seed int64) (TenantSpec, error) {
	arr, err := sp.NewArrival(seed)
	if err != nil {
		return TenantSpec{}, fmt.Errorf("fleet: tenant %q: %w", sp.Name, err)
	}
	return TenantSpec{
		Name:         sp.Name,
		Weight:       sp.Weight,
		Objects:      append([]string(nil), sp.Objects...),
		Fn:           sp.Fn,
		RateOPS:      sp.RateOPS,
		Arrival:      arr,
		Ops:          sp.Ops,
		Class:        TenantClass(sp.Class),
		AdmitRateOPS: sp.AdmitRateOPS,
		AdmitBurst:   sp.AdmitBurst,
	}, nil
}

// strideScale is the stride-scheduling numerator: pass advances by
// strideScale/Weight per quantum, so heavier tenants accumulate pass more
// slowly and are picked more often.
const strideScale = 1 << 20

// pendingOp is one queued arrival: its stamp, the handle it targets
// (obj < 0 = round-robin, the generated-load default), and the manager
// function to call. Trace replay resolves obj and fn from the trace row;
// generated load leaves obj at -1 with the tenant's spec fn.
type pendingOp struct {
	arrived simtime.Time
	obj     int
	fn      uint64
}

// Tenant is one admitted guest plus its scheduling state.
type Tenant struct {
	spec    TenantSpec
	index   int
	vm      *hv.VM
	guest   *core.Guest
	handles []*core.Handle
	objIdx  map[string]int // object name -> handle index (trace replay)
	arrival workload.Arrival

	// ring mode (Config.RingDepth > 0): one caller per handle, plus a
	// per-ring FIFO of arrival stamps for ops submitted but not yet seen
	// completing (rings complete in submission order).
	rings    []*core.RingCaller
	ringPend [][]simtime.Time

	rr     int // round-robin cursor over handles
	pass   uint64
	stride uint64

	// comps is harvestTenant's completion-poll scratch. A stack array
	// would escape through the Poll call on every harvest; the tenant is
	// only ever harvested by its own scheduler's event loop, so the
	// instance-level buffer is single-writer.
	comps [32]shm.Comp

	queue     []pendingOp // pending ops in arrival order
	submitted uint64
	completed uint64
	dropped   uint64
	fnErrors  uint64
	maxQueue  int
	coreTime  simtime.Duration
	hist      *stats.Histogram

	// chaos lifecycle: a crashed tenant stops being scheduled (its queue
	// is discarded into lost); recovered marks that the manager has
	// quarantined and reclaimed its attachments.
	crashed   bool
	recovered bool
	lost      uint64

	// migrated marks a tenant Evict carried to another scheduler. The
	// stub stays in the admission list (keeping report indices stable for
	// the cluster's merged-report mapping) but is never scheduled, never
	// arrives, and reports zero counters — its accounting moved with it.
	migrated bool

	// overload control (nil / zero when the knobs are off): bucket
	// rate-limits arrivals, breaker quarantines fault-storming tenants,
	// prevFaults is the injector count already fed to the breaker.
	bucket      *overload.TokenBucket
	breaker     *overload.Breaker
	prevFaults  uint64
	quarantined bool
	throttled   uint64 // arrivals refused by the token bucket
	shed        uint64 // arrivals refused by the load shedder
	breakerShed uint64 // arrivals refused while quarantined
	busied      uint64 // ops bounced back CompBusy (retries exhausted)
}

// Crashed reports whether the tenant's guest died during a run.
func (t *Tenant) Crashed() bool { return t.crashed }

// Recovered reports whether the manager reclaimed the tenant post-mortem.
func (t *Tenant) Recovered() bool { return t.recovered }

// Migrated reports whether Evict carried this tenant to another
// scheduler, leaving this entry as an inert stub.
func (t *Tenant) Migrated() bool { return t.migrated }

// Name returns the tenant's guest name.
func (t *Tenant) Name() string { return t.spec.Name }

// VM exposes the tenant's guest VM.
func (t *Tenant) VM() *hv.VM { return t.vm }

// Scheduler is a fleet of tenants over one hypervisor + manager.
type Scheduler struct {
	hv  *hv.Hypervisor
	mgr *core.Manager
	cfg Config

	mu      sync.Mutex
	tenants []*Tenant
	elapsed simtime.Duration // accumulated across Run calls
	ran     bool

	inj *fault.Injector // armed from cfg.Faults (nil = chaos off)

	// shedder is the fleet-wide load-shed controller (nil = shedding
	// off); shedByClass counts its refusals per priority class, and
	// shedThresh is the threshold class the shedder's OnShed hook
	// reported for the latest refusal (the arrival path is sim-event
	// serial, so the causal event emitted right after Admit reads it
	// race-free).
	shedder     *overload.Shedder
	shedByClass [MaxTenantClasses]uint64
	shedThresh  int
}

// causalEvent links one pre-submission overload refusal into the causal
// log, when a flight recorder is armed. The trace ID is 0: the refused
// request never became a ring descriptor, so the event is the whole
// chain.
func (s *Scheduler) causalEvent(now simtime.Time, tenant string, kind obs.EventKind, note string) {
	if rec := s.mgr.Recorder(); rec != nil {
		rec.Causal().Event(obs.RingEvent{Kind: kind, Time: now, Guest: tenant, Note: note})
	}
}

// New builds an empty fleet over an existing machine.
func New(h *hv.Hypervisor, mgr *core.Manager, cfg Config) (*Scheduler, error) {
	if h == nil || mgr == nil {
		return nil, fmt.Errorf("fleet: need a hypervisor and a manager")
	}
	if cfg.Cores <= 0 {
		cfg.Cores = 1
	}
	if cfg.Quantum <= 0 {
		cfg.Quantum = 10_000
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.PumpEvery <= 0 {
		cfg.PumpEvery = cfg.Quantum
	}
	if cfg.RingDepth > 0 {
		if cfg.RingDeadline <= 0 {
			cfg.RingDeadline = cfg.Quantum
		}
		if cfg.PollBudget == 0 {
			cfg.PollBudget = 64
		}
	}
	if cfg.Classes > MaxTenantClasses {
		return nil, fmt.Errorf("fleet: %d priority classes exceeds the cap %d", cfg.Classes, MaxTenantClasses)
	}
	if cfg.AdmitBurst <= 0 {
		cfg.AdmitBurst = 16
	}
	s := &Scheduler{hv: h, mgr: mgr, cfg: cfg}
	if cfg.Faults != nil {
		s.inj = fault.NewInjector(cfg.Faults)
		mgr.SetInjector(s.inj)
	}
	if cfg.Classes > 0 {
		s.shedder = overload.NewShedder(overload.ShedConfig{
			Low: cfg.ShedLow, High: cfg.ShedHigh, After: cfg.ShedAfter, Classes: cfg.Classes,
			OnShed: func(now simtime.Time, class, thresh int) { s.shedThresh = thresh },
		})
	}
	if cfg.Overload.Enabled {
		mgr.SetOverload(cfg.Overload)
	}
	return s, nil
}

// Injector returns the armed fault injector (nil when chaos is off).
func (s *Scheduler) Injector() *fault.Injector { return s.inj }

// Admit boots a tenant guest, attaches its objects, and adds it to the
// schedule. It enforces the MaxTenants admission cap; a refused tenant
// costs the machine nothing.
func (s *Scheduler) Admit(spec TenantSpec) (*Tenant, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cfg.MaxTenants > 0 && len(s.tenants) >= s.cfg.MaxTenants {
		return nil, fmt.Errorf("fleet: admission refused: %d tenants at cap %d", len(s.tenants), s.cfg.MaxTenants)
	}
	if spec.Name == "" {
		return nil, fmt.Errorf("fleet: tenant needs a name")
	}
	if len(spec.Objects) == 0 {
		return nil, fmt.Errorf("fleet: tenant %q has no objects", spec.Name)
	}
	if spec.RateOPS <= 0 && spec.Arrival == nil {
		return nil, fmt.Errorf("fleet: tenant %q needs a positive arrival rate or an arrival process", spec.Name)
	}
	if spec.Weight <= 0 {
		spec.Weight = 1
	}
	if spec.RAMBytes == 0 {
		spec.RAMBytes = 16 * 4096
	}
	if spec.Class < 0 || (s.cfg.Classes > 0 && int(spec.Class) >= s.cfg.Classes) {
		return nil, fmt.Errorf("fleet: tenant %q class %d outside [0, %d)", spec.Name, spec.Class, s.cfg.Classes)
	}
	idx := len(s.tenants)
	arrival := spec.Arrival
	if arrival == nil {
		p, err := workload.NewPoisson(s.cfg.Seed+int64(idx)*7919+1, spec.RateOPS)
		if err != nil {
			return nil, fmt.Errorf("fleet: tenant %q: %w", spec.Name, err)
		}
		arrival = p
	}
	vm, err := s.hv.CreateVM(spec.Name, spec.RAMBytes)
	if err != nil {
		return nil, fmt.Errorf("fleet: tenant %q: %w", spec.Name, err)
	}
	g, err := core.NewGuest(vm, s.mgr)
	if err != nil {
		return nil, fmt.Errorf("fleet: tenant %q: %w", spec.Name, err)
	}
	t := &Tenant{
		spec:    spec,
		index:   idx,
		vm:      vm,
		guest:   g,
		objIdx:  make(map[string]int, len(spec.Objects)),
		arrival: arrival,
		stride:  strideScale / uint64(spec.Weight),
		hist:    stats.NewHistogram(),
	}
	if spec.AdmitRateOPS > 0 {
		burst := spec.AdmitBurst
		if burst <= 0 {
			burst = s.cfg.AdmitBurst
		}
		t.bucket = overload.NewTokenBucket(spec.AdmitRateOPS, burst)
	}
	if s.cfg.BreakerThreshold > 0 {
		t.breaker = overload.NewBreaker(overload.BreakerConfig{
			Threshold: s.cfg.BreakerThreshold,
			Window:    s.cfg.BreakerWindow,
			Cooldown:  s.cfg.BreakerCooldown,
			OnTrip: func(now simtime.Time, cooldown simtime.Duration, trips uint64) {
				s.causalEvent(now, spec.Name, obs.EvBreaker,
					fmt.Sprintf("tripped %d, cooldown %s", trips, cooldown))
			},
		})
	}
	ringRetry := s.cfg.RingRetry
	if ringRetry.MaxAttempts > 0 {
		ringRetry.Seed += int64(idx) // distinct deterministic jitter per tenant
	}
	for _, obj := range spec.Objects {
		h, err := g.Attach(obj)
		if err != nil {
			return nil, fmt.Errorf("fleet: tenant %q attach %q: %w", spec.Name, obj, err)
		}
		t.objIdx[obj] = len(t.handles)
		t.handles = append(t.handles, h)
		if s.cfg.RingDepth > 0 {
			rc, err := h.Ring(vm.VCPU(), core.RingConfig{Depth: s.cfg.RingDepth, Deadline: s.cfg.RingDeadline, Retry: ringRetry})
			if err != nil {
				return nil, fmt.Errorf("fleet: tenant %q ring on %q: %w", spec.Name, obj, err)
			}
			t.rings = append(t.rings, rc)
			t.ringPend = append(t.ringPend, nil)
		}
	}
	if s.cfg.Overload.Enabled {
		// Drain-side fairness: higher classes earn a larger share of the
		// poll budget on top of their scheduling weight. This must follow
		// the first Attach — the manager builds a guest's ELISA state
		// lazily on negotiation.
		if err := s.mgr.SetPollWeight(vm, spec.Weight*(1+int(spec.Class))); err != nil {
			return nil, fmt.Errorf("fleet: tenant %q: %w", spec.Name, err)
		}
	}
	s.tenants = append(s.tenants, t)
	return t, nil
}

// Tenants returns the admitted tenants in admission order.
func (s *Scheduler) Tenants() []*Tenant {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Tenant(nil), s.tenants...)
}

// Run simulates the fleet for d of virtual time: open-loop arrivals feed
// each tenant's bounded queue, and the cores drain the queues by stride
// schedule, executing every op as a real exit-less call on the tenant's
// vCPU (so slot faults, evictions, and gate costs are all charged). It
// returns the per-tenant report, ordered by admission.
func (s *Scheduler) Run(d simtime.Duration) (*Report, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.runLocked(d, false, nil)
}

// Replay drives the fleet from a workload trace instead of the tenants'
// arrival processes: each event is delivered to its tenant at its
// recorded instant (relative to this window's start), targeting the
// object and function the trace row names, through exactly the same
// refusal ladder, queues, and scheduler as generated load. The same
// (trace, seed, config) always renders a byte-identical report — a
// committed trace plus its golden report is a whole-scenario regression
// test. Events must land inside [0, d) and name admitted tenants and
// attached objects; anything else refuses up front.
func (s *Scheduler) Replay(events []workload.Event, d simtime.Duration) (*Report, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	byName := make(map[string]*Tenant, len(s.tenants))
	for _, t := range s.tenants {
		byName[t.spec.Name] = t
	}
	for i, ev := range events {
		t := byName[ev.Tenant]
		if t == nil {
			return nil, fmt.Errorf("fleet: replay event %d names unadmitted tenant %q", i, ev.Tenant)
		}
		if t.migrated {
			return nil, fmt.Errorf("fleet: replay event %d names migrated tenant %q (route it to the adopting scheduler)", i, ev.Tenant)
		}
		if _, ok := t.objIdx[ev.Object]; !ok {
			return nil, fmt.Errorf("fleet: replay event %d: tenant %q has no attachment for object %q", i, ev.Tenant, ev.Object)
		}
		if ev.At < 0 || simtime.Duration(ev.At) >= d {
			return nil, fmt.Errorf("fleet: replay event %d at %d outside window [0,%d)", i, ev.At, d)
		}
	}
	return s.runLocked(d, true, events)
}

// runLocked is the shared simulation core behind Run (replay=false:
// tenants' arrival processes self-schedule) and Replay (replay=true:
// the pre-validated event list is the arrival source). Callers hold s.mu.
func (s *Scheduler) runLocked(d simtime.Duration, replay bool, events []workload.Event) (*Report, error) {
	if d <= 0 {
		return nil, fmt.Errorf("fleet: run duration %d must be positive", d)
	}
	if len(s.tenants) == 0 {
		return nil, fmt.Errorf("fleet: no tenants admitted")
	}

	sim := des.New()
	deadline := sim.Now().Add(d)
	idle := make([]bool, s.cfg.Cores)
	for i := range idle {
		idle[i] = true
	}

	// dispatch hands every idle core the min-pass runnable tenant and
	// runs one quantum's worth of its queue as back-to-back calls.
	var dispatch func(now simtime.Time)
	dispatch = func(now simtime.Time) {
		for {
			coreID := -1
			for i, free := range idle {
				if free {
					coreID = i
					break
				}
			}
			if coreID < 0 {
				return
			}
			var next *Tenant
			for _, t := range s.tenants {
				if t.crashed || t.quarantined || t.migrated || len(t.queue) == 0 {
					continue
				}
				if next == nil || t.pass < next.pass || (t.pass == next.pass && t.index < next.index) {
					next = t
				}
			}
			if next == nil {
				return
			}
			t := next
			v := t.vm.VCPU()
			ringMode := s.cfg.RingDepth > 0
			var spent simtime.Duration
			for len(t.queue) > 0 && spent < s.cfg.Quantum {
				op := t.queue[0]
				t.queue = t.queue[1:]
				// Generated load cycles handles round-robin (obj < 0);
				// trace replay targets the handle the trace row named and
				// leaves the cursor alone.
				hi := op.obj
				if hi < 0 {
					hi = t.rr
					t.rr = (t.rr + 1) % len(t.handles)
				}
				c0 := v.Clock().Now()
				var err error
				if ringMode {
					// Ring datapath: enqueue the op exit-lessly; the
					// adaptive policy (deadline, depth, full queue) decides
					// when a gate crossing actually happens. Completion
					// latency is recorded at harvest time. Harvest before
					// the completion queue can fill, or flushes stall on
					// backpressure.
					if t.rings[hi].Pending() >= s.cfg.RingDepth {
						spent += s.harvestTenant(t, now.Add(spent))
					}
					err = t.rings[hi].Submit(v, op.fn)
					if err == nil {
						t.ringPend[hi] = append(t.ringPend[hi], op.arrived)
					}
				} else {
					_, err = t.handles[hi].Call(v, op.fn)
				}
				cost := v.Clock().Elapsed(c0)
				spent += cost
				if err != nil {
					t.fnErrors++
					if t.vm.Dead() {
						// The guest died mid-call (injected crash or a
						// protocol kill). Its pending ops are lost; the
						// pump's next sweep quarantines its attachments.
						t.markCrashed()
						break
					}
					continue
				}
				if !ringMode {
					t.completed++
					t.hist.Record(int64(now.Add(spent).Sub(op.arrived)))
				}
			}
			if ringMode && !t.crashed {
				// Interleave one budget-bounded manager poller pass with the
				// quantum (host-side work, charged to the manager clock),
				// then harvest whatever completions have landed.
				if s.cfg.PollBudget > 0 {
					_, _ = s.mgr.DrainRings(s.cfg.PollBudget)
				}
				spent += s.harvestTenant(t, now.Add(spent))
			}
			t.pass += t.stride
			t.coreTime += spent
			idle[coreID] = false
			id := coreID
			if _, err := sim.After(spent, func(now2 simtime.Time) {
				idle[id] = true
				dispatch(now2)
			}); err != nil {
				idle[id] = true // negative-delay can't happen; keep the core alive
			}
		}
	}

	// admit runs one arrival through the refusal ladder — cheapest
	// refusal first: the token bucket and the quarantine check refuse
	// before any state is touched, the shedder refuses by fleet-wide
	// occupancy and class, and only then does the bounded queue drop
	// blindly — queueing it and kicking dispatch when every gate passes.
	// Generated and replayed arrivals share this path, so a decision
	// trace covers both identically.
	admit := func(t *Tenant, now simtime.Time, op pendingOp) {
		t.submitted++
		switch {
		case s.cfg.GlobalAdmit != nil && !s.cfg.GlobalAdmit(now, t.spec.Name, int(t.spec.Class)):
			// Cluster-wide cap: the outermost gate, so a globally-refused
			// arrival consumes no per-shard bucket token.
			t.throttled++
			s.cfg.Decisions.Record(now, t.spec.Name, overload.VerdictThrottle, int(t.spec.Class), "global-bucket")
			s.causalEvent(now, t.spec.Name, obs.EvThrottle, "global-bucket")
		case t.bucket != nil && !t.bucket.Allow(now):
			t.throttled++
			s.cfg.Decisions.Record(now, t.spec.Name, overload.VerdictThrottle, int(t.spec.Class), "token-bucket")
			s.causalEvent(now, t.spec.Name, obs.EvThrottle, "token-bucket")
		case t.quarantined:
			t.breakerShed++
			s.cfg.Decisions.Record(now, t.spec.Name, overload.VerdictQuarantine, int(t.spec.Class), "breaker-open")
			s.causalEvent(now, t.spec.Name, obs.EvBreaker, "quarantined")
		case s.shedder != nil && !s.shedder.Admit(now, s.occupancyLocked(), int(t.spec.Class)):
			t.shed++
			s.shedByClass[t.spec.Class]++
			s.cfg.Decisions.Record(now, t.spec.Name, overload.VerdictShed, int(t.spec.Class),
				fmt.Sprintf("threshold %d", s.shedThresh))
			s.causalEvent(now, t.spec.Name, obs.EvShed,
				fmt.Sprintf("class %d below threshold %d", t.spec.Class, s.shedThresh))
		case len(t.queue) >= s.cfg.QueueDepth:
			t.dropped++
			s.cfg.Decisions.Record(now, t.spec.Name, overload.VerdictDrop, int(t.spec.Class), "queue-full")
		default:
			t.queue = append(t.queue, op)
			if len(t.queue) > t.maxQueue {
				t.maxQueue = len(t.queue)
			}
			s.cfg.Decisions.Record(now, t.spec.Name, overload.VerdictAdmit, int(t.spec.Class), "")
			dispatch(now)
		}
	}

	if replay {
		// Trace-driven arrivals: every event is pre-scheduled at its
		// recorded instant, targeting the handle and fn the row named.
		byName := make(map[string]*Tenant, len(s.tenants))
		for _, t := range s.tenants {
			byName[t.spec.Name] = t
		}
		for _, ev := range events {
			t := byName[ev.Tenant]
			obj := t.objIdx[ev.Object]
			fn := ev.Fn
			if _, err := sim.At(simtime.Time(ev.At), func(now simtime.Time) {
				if t.crashed {
					return // arrivals to a dead tenant evaporate
				}
				admit(t, now, pendingOp{arrived: now, obj: obj, fn: fn})
			}); err != nil {
				return nil, err
			}
		}
	} else {
		// One self-rescheduling arrival chain per tenant.
		var arrive func(t *Tenant) func(now simtime.Time)
		arrive = func(t *Tenant) func(now simtime.Time) {
			return func(now simtime.Time) {
				if t.crashed {
					return // a dead tenant's arrival chain ends
				}
				if t.spec.Ops > 0 && t.submitted >= uint64(t.spec.Ops) {
					return
				}
				admit(t, now, pendingOp{arrived: now, obj: -1, fn: t.spec.Fn})
				_, _ = sim.After(t.arrival.NextInterval(), arrive(t))
			}
		}
		for _, t := range s.tenants {
			if t.migrated {
				continue // a stub has no arrival process — it moved with the tenant
			}
			if _, err := sim.After(t.arrival.NextInterval(), arrive(t)); err != nil {
				return nil, err
			}
		}
	}

	// Fault pump: while a plan is armed, a periodic event applies due
	// asynchronous injections (EPTP corruption, slot storms), immediately
	// repairs what they corrupted — the repair pass runs before any guest
	// call can stumble into a scribbled entry — and quarantines tenants
	// that died, reclaiming their attachments without touching the rest.
	// Plan times are fleet time: the run time accumulated before this
	// window plus the window's event clock, so an injection fires in the
	// window that contains it however the run is split into windows.
	if s.inj != nil {
		base := s.elapsed
		var pump func(now simtime.Time)
		pump = func(now simtime.Time) {
			at := now.Add(base)
			s.mgr.PumpFaults(at)
			_, _ = s.mgr.FsckRepair()
			s.sweepDead()
			s.pumpBreakers(at)
			_, _ = sim.After(s.cfg.PumpEvery, pump)
		}
		if _, err := sim.After(s.cfg.PumpEvery, pump); err != nil {
			return nil, err
		}
	}

	sim.RunUntil(deadline)
	if s.cfg.RingDepth > 0 {
		// Ring epilogue: flush and harvest every live tenant's rings so ops
		// still queued at the deadline complete before the report is cut.
		s.drainTenantRings(sim.Now())
	}
	if s.inj != nil {
		// Final sweep: a tenant that died after the last pump tick is
		// still quarantined before the report is cut.
		s.sweepDead()
	}
	s.elapsed += d
	s.ran = true
	return s.reportLocked(), nil
}

// occupancyLocked is the shedder's input: the fleet-wide fraction of
// total queue capacity in use across live tenants. Callers hold s.mu.
func (s *Scheduler) occupancyLocked() float64 {
	queued, alive := 0, 0
	for _, t := range s.tenants {
		if t.crashed || t.migrated {
			continue
		}
		alive++
		queued += len(t.queue)
	}
	if alive == 0 {
		return 0
	}
	return float64(queued) / float64(alive*s.cfg.QueueDepth)
}

// pumpBreakers feeds each tenant's circuit breaker the injector faults
// fired since the last pump tick; a quiet tick is a success probe. A
// tenant whose breaker is open is quarantined: not scheduled, and its
// arrivals are refused until the (doubling) cooldown expires. Callers
// hold s.mu.
func (s *Scheduler) pumpBreakers(now simtime.Time) {
	if s.inj == nil || s.cfg.BreakerThreshold <= 0 {
		return
	}
	fired := s.inj.FiredByGuest()
	for _, t := range s.tenants {
		if t.breaker == nil || t.crashed {
			continue
		}
		if n := fired[t.spec.Name]; n > t.prevFaults {
			for i := t.prevFaults; i < n; i++ {
				t.breaker.RecordFault(now)
			}
			t.prevFaults = n
		} else {
			t.breaker.RecordSuccess(now)
		}
		t.quarantined = t.breaker.State(now) == overload.BreakerOpen
	}
}

// harvestTenant polls every ring of a tenant, matching completions to
// their arrival stamps in FIFO order (rings complete in submission
// order). A CompBusy completion — the retry policy's attempts exhausted,
// or no policy armed — consumes its stamp but counts as busied, not
// completed. Busy retries the ring caller swallowed re-enter the ring at
// the tail, so under heavy bouncing a stamp can pair with a later op's
// completion; the skew is deterministic and bounded by the ring depth,
// and only smears queueing latency attribution, never counts. It returns
// the vCPU time the polling consumed.
func (s *Scheduler) harvestTenant(t *Tenant, now simtime.Time) simtime.Duration {
	v := t.vm.VCPU()
	c0 := v.Clock().Now()
	comps := &t.comps
	for i, r := range t.rings {
		for {
			n, err := r.Poll(v, comps[:])
			if err != nil || n == 0 {
				break
			}
			for j := 0; j < n; j++ {
				if len(t.ringPend[i]) == 0 {
					continue
				}
				arrived := t.ringPend[i][0]
				t.ringPend[i] = t.ringPend[i][1:]
				if comps[j].Status == shm.CompBusy {
					t.busied++
					s.cfg.Decisions.Record(now, t.spec.Name, overload.VerdictBusy, int(t.spec.Class), "ring-busy")
					continue
				}
				if comps[j].Status != shm.CompOK {
					t.fnErrors++
					continue
				}
				t.completed++
				t.hist.Record(int64(now.Sub(arrived)))
			}
		}
	}
	return v.Clock().Elapsed(c0)
}

// drainTenantRings flushes and harvests every live tenant's rings until
// nothing is pending. One flush can be limited by completion-queue
// backpressure, so flush/harvest alternates — three passes always
// suffice (submission and completion queues have the same depth), the
// bound is just a backstop.
func (s *Scheduler) drainTenantRings(now simtime.Time) {
	for _, t := range s.tenants {
		if t.crashed || t.migrated || t.vm.Dead() {
			continue
		}
		v := t.vm.VCPU()
		for pass := 0; pass < 4 && t.ringPending() > 0; pass++ {
			for _, r := range t.rings {
				if err := r.Flush(v); err != nil {
					t.fnErrors++
					if t.vm.Dead() {
						t.markCrashed()
						break
					}
				}
			}
			if t.crashed {
				break
			}
			s.harvestTenant(t, now)
		}
	}
}

// ringPending counts ops submitted to rings whose completions have not
// been harvested yet.
func (t *Tenant) ringPending() int {
	n := 0
	for _, p := range t.ringPend {
		n += len(p)
	}
	return n
}

// markCrashed transitions a tenant to the crashed state, discarding its
// queue and any un-harvested ring submissions into the lost count.
func (t *Tenant) markCrashed() {
	t.crashed = true
	t.lost += uint64(len(t.queue)) + uint64(t.ringPending())
	t.queue = nil
	for i := range t.ringPend {
		t.ringPend[i] = nil
	}
}

// sweepDead marks tenants whose guests died and has the manager
// quarantine and reclaim each exactly once. Callers hold s.mu (it runs
// from Run's event loop and from Run's epilogue).
func (s *Scheduler) sweepDead() {
	for _, t := range s.tenants {
		if t.migrated {
			continue // the stub's VM idles here; the tenant lives elsewhere
		}
		if t.vm.Dead() && !t.crashed {
			t.markCrashed()
		}
		if t.crashed && !t.recovered {
			if _, err := s.mgr.RecoverGuest(t.vm); err == nil {
				t.recovered = true
			}
		}
	}
}

// Report is one fleet run's result set.
type Report struct {
	Duration simtime.Duration
	Cores    int
	Tenants  []TenantReport // admission order

	// Chaos accounting (zero / empty when no fault plan is armed).
	FaultsFired   uint64 // injections consummated so far
	FaultsPending int    // injections still armed
	Recoveries    uint64 // dead guests quarantined + reclaimed
	MidGateDeaths uint64 // of those, guests that died inside gate/sub ctx
	Repairs       uint64 // EPTP-list entries FsckRepair rewrote
	Retries       uint64 // guest-side negotiation retries
	// FaultTrace is the deterministic fault/recovery trace (injector
	// firings in order, then recovery counts) — the byte-identical
	// artefact the determinism regression compares.
	FaultTrace string

	// ShedByClass counts load-shed refusals per priority class (all zero
	// when shedding is off).
	ShedByClass [MaxTenantClasses]uint64
}

// TenantReport is one tenant's accounting for a run.
type TenantReport struct {
	Name      string
	Weight    int
	Submitted uint64
	Completed uint64
	Dropped   uint64
	FnErrors  uint64
	// Crashed marks a tenant whose guest died during the run; Recovered
	// marks that the manager quarantined and reclaimed it; Lost counts the
	// queued ops discarded at death.
	Crashed   bool
	Recovered bool
	Lost      uint64
	// Class is the tenant's priority class. Throttled counts arrivals the
	// admission token bucket refused, Shed the load shedder's refusals,
	// BreakerShed arrivals refused while quarantined, and Busied ops
	// bounced back CompBusy with retries exhausted. Quarantined reports
	// whether the circuit breaker held the tenant open at report time.
	Class       int
	Throttled   uint64
	Shed        uint64
	BreakerShed uint64
	Busied      uint64
	Quarantined bool
	// GoodputOPS is completed ops per simulated second.
	GoodputOPS float64
	// P50/P99 are call completion latencies (queueing included).
	P50      simtime.Duration
	P99      simtime.Duration
	MaxQueue int
	// CoreTime is the core time the tenant actually consumed.
	CoreTime simtime.Duration
}

func (s *Scheduler) reportLocked() *Report {
	r := &Report{Duration: s.elapsed, Cores: s.cfg.Cores}
	for _, t := range s.tenants {
		tr := TenantReport{
			Name:        t.spec.Name,
			Weight:      t.spec.Weight,
			Submitted:   t.submitted,
			Completed:   t.completed,
			Dropped:     t.dropped,
			FnErrors:    t.fnErrors,
			Crashed:     t.crashed,
			Recovered:   t.recovered,
			Lost:        t.lost,
			Class:       int(t.spec.Class),
			Throttled:   t.throttled,
			Shed:        t.shed,
			BreakerShed: t.breakerShed,
			Busied:      t.busied,
			Quarantined: t.quarantined,
			P50:         simtime.Duration(t.hist.Percentile(0.50)),
			P99:         simtime.Duration(t.hist.Percentile(0.99)),
			MaxQueue:    t.maxQueue,
			CoreTime:    t.coreTime,
		}
		if s.elapsed > 0 {
			tr.GoodputOPS = float64(t.completed) * 1e9 / float64(s.elapsed)
		}
		r.Tenants = append(r.Tenants, tr)
	}
	if s.inj != nil {
		r.FaultsFired = uint64(len(s.inj.Fired()))
		r.FaultsPending = s.inj.Pending()
		r.FaultTrace = s.inj.TraceString()
		rs := s.mgr.RecoveryStats()
		r.Recoveries = rs.Recoveries
		r.MidGateDeaths = rs.MidGateDeaths
		r.Repairs = rs.Repairs
		r.Retries = rs.Retries
	}
	r.ShedByClass = s.shedByClass
	return r
}

// Snapshot returns the current per-tenant accounting (the metrics-export
// view; identical to the last Run's report once a run finished).
func (s *Scheduler) Snapshot() *Report {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reportLocked()
}

// Table renders the report as the canonical per-tenant text table — the
// byte-identical artefact replay regressions and elisa-replay goldens
// diff. Same report, same bytes.
func (r *Report) Table() *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("Fleet report: %s over %d core(s)", r.Duration, r.Cores),
		"Tenant", "Cls", "W", "Submitted", "Done", "Goodput[ops/s]",
		"p50[ns]", "p99[ns]", "Drop", "Shed", "Thr", "Busy", "Lost", "MaxQ")
	var submitted, completed, refused uint64
	for _, tr := range r.Tenants {
		shed := tr.Shed + tr.BreakerShed
		t.AddRow(tr.Name, tr.Class, tr.Weight, tr.Submitted, tr.Completed,
			tr.GoodputOPS, int64(tr.P50), int64(tr.P99),
			tr.Dropped, shed, tr.Throttled, tr.Busied, tr.Lost, tr.MaxQueue)
		submitted += tr.Submitted
		completed += tr.Completed
		refused += tr.Dropped + shed + tr.Throttled + tr.Busied
	}
	t.AddNote("fleet: %d submitted, %d completed, %d refused", submitted, completed, refused)
	return t
}
