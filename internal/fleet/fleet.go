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

// Quantum is the maximum core time one tenant holds per scheduling turn:
// 10µs of simulated time, ~50 hot calls. It is also the fault pump's
// period and, in ring mode, the tenants' adaptive batching deadline.
const Quantum simtime.Duration = 10_000

// Config configures a Scheduler.
type Config struct {
	// Cores is the number of simulated cores the fleet time-slices
	// (default 1).
	Cores int
	// QueueDepth bounds each tenant's pending-op queue; arrivals beyond
	// it are dropped and counted (default 64).
	QueueDepth int
	// Seed feeds every tenant's arrival process. Two schedulers built
	// with the same seed and tenant set produce byte-identical reports.
	Seed int64
	// Faults, when non-nil, arms the manager with this fault plan for the
	// fleet's runs: the scheduler pumps asynchronous injections between
	// events, repairs what they corrupt, and quarantines tenants they
	// kill. The pump runs once per Quantum. Plan times are fleet time —
	// simulated time summed over every Run and Replay call — so a split
	// run fires the same injections as one long run. The plan is part of
	// the seed — the same (Seed, Faults) pair replays the identical fault
	// and recovery trace.
	Faults *fault.Plan
	// RingDepth, when positive, switches every tenant's datapath from one
	// gate crossing per op to the exit-less call ring: ops are enqueued as
	// descriptors (power-of-two depth), and gate crossings happen only on
	// the adaptive policy's terms, with Quantum as the longest a queued op
	// waits before its guest takes the gate. Zero keeps the per-call path.
	RingDepth int
	// PollBudget bounds how many ring descriptors one manager poller pass
	// services; the scheduler interleaves one pass per dispatched quantum
	// so polling cannot starve the cores (default 64; negative disables
	// the poller, leaving rings to the tenants' own gate flushes). Setting
	// it without RingDepth is an error.
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
	// engages (default: shed immediately). Setting any of them without
	// Classes is an error.
	ShedLow, ShedHigh float64
	ShedAfter         simtime.Duration
	// RingRetry is the retry policy tenants' ring callers apply to
	// CompBusy bounce-backs (zero value: no retries). Each tenant's
	// jitter RNG is seeded with RingRetry.Seed plus its join index.
	// Setting it without RingDepth is an error.
	RingRetry core.RetryPolicy
	// Overload, when Enabled, arms the manager's drain-side overload
	// control (busy bounce-backs, weighted-fair poll budget — see
	// core.Manager.SetOverload) and weights each tenant's drain share by
	// Weight×(1+Class). A BusyFrac outside [0, 1), or set without
	// Enabled, is an error.
	Overload core.OverloadConfig
	// Decisions, when non-nil, logs every overload verdict — admit,
	// throttle, shed, drop, busy — into the trace for post-run fitness
	// and counterfactual analysis (internal/fitness). Recording is
	// observation only: arming it changes no decision.
	Decisions *overload.DecisionTrace

	// GlobalAdmit, when non-nil, names a tenant's cluster-wide admission
	// bucket (nil: the tenant is uncapped). The scheduler resolves it once
	// per tenant, at Admit and Adopt, and consults the bucket at fleet
	// time — the run time accumulated before the window plus the window's
	// clock — before every other gate of the refusal ladder: a refusal
	// counts as Throttled, verdict "global-bucket". The cluster fleet
	// installs the same resolver on every shard's scheduler, so a tenant's
	// aggregate rate is capped regardless of placement. nil (the default)
	// keeps the ladder bit-identical to the unhooked fleet.
	GlobalAdmit func(tenant string) *overload.TokenBucket

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
	// Objects are the shared objects to attach at admission (Admit keeps
	// its own copy). Ops cycle over them round-robin, so a working set
	// larger than the guest's slot budget exercises the HCSlotFault slow
	// path.
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
	// they queue (counted as Throttled). AdmitBurst sizes the bucket
	// (default overload.DefaultBurst).
	AdmitRateOPS float64
	AdmitBurst   int
}

// tenantRAM is every tenant guest's private RAM: 16 pages.
const tenantRAM = 16 * 4096

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

// Tenant is one admitted guest plus its scheduling state. A migration
// moves the Tenant itself from one scheduler to another (see Evict).
type Tenant struct {
	spec    TenantSpec
	sched   *Scheduler // the scheduler the tenant is on; nil between Evict and Adopt
	vm      *hv.VM
	guest   *core.Guest
	handles []*core.Handle
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

	// overload control (nil / zero when the knobs are off): bucket
	// rate-limits arrivals, global is the cluster-wide bucket
	// Config.GlobalAdmit named at admission.
	bucket    *overload.TokenBucket
	global    *overload.TokenBucket
	throttled uint64 // arrivals refused by the token bucket
	shed      uint64 // arrivals refused by the load shedder
	busied    uint64 // ops bounced back CompBusy (retries exhausted)

	// observation ids, resolved once: the decision trace's id for the
	// tenant (at admission) and its causal subject in the log of clog
	// (re-resolved when the manager's recorder changes).
	dec   overload.TenantID
	clog  *obs.CausalLog
	csubj obs.SubjectID
}

// Crashed reports whether the tenant's guest died during a run.
func (t *Tenant) Crashed() bool { return t.crashed }

// Recovered reports whether the manager reclaimed the tenant post-mortem.
func (t *Tenant) Recovered() bool { return t.recovered }

// Name returns the tenant's guest name.
func (t *Tenant) Name() string { return t.spec.Name }

// Spec returns the tenant's admission spec. Its Objects slice is the
// tenant's own: callers must not modify it.
func (t *Tenant) Spec() TenantSpec { return t.spec }

// Submitted counts the tenant's arrivals so far, refused ones included.
func (t *Tenant) Submitted() uint64 { return t.submitted }

// VM exposes the tenant's guest VM.
func (t *Tenant) VM() *hv.VM { return t.vm }

// Scheduler is a fleet of tenants over one hypervisor + manager.
type Scheduler struct {
	hv  *hv.Hypervisor
	mgr *core.Manager
	cfg Config

	mu      sync.Mutex
	tenants []*Tenant // in join order
	// joined counts the tenants ever admitted or adopted here, gone or
	// not: a joining tenant's join index. It seeds the tenant's generated
	// Poisson process (at Admit) and its ring-retry jitter.
	joined  int
	elapsed simtime.Duration // accumulated across Run calls

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

	// shed notes, interned on first use: the decision trace's per
	// threshold, and the causal log's per (class, threshold) for the log
	// of shedLog.
	shedDec    [MaxTenantClasses]overload.NoteID
	shedLog    *obs.CausalLog
	shedCausal [MaxTenantClasses][MaxTenantClasses]obs.NoteID
}

// causalEvent links one pre-submission overload refusal into the causal
// log of rec, when one is armed (rec may be nil). The trace ID is 0: the
// refused request never became a ring descriptor, so the event is the
// whole chain.
func (s *Scheduler) causalEvent(rec *obs.Recorder, now simtime.Time, t *Tenant, kind obs.EventKind, note obs.NoteID) {
	if log := rec.Causal(); log != t.clog {
		t.clog, t.csubj = log, log.Subject(t.spec.Name, "")
	}
	t.clog.Emit(obs.Record{Kind: kind, Time: now, Subject: t.csubj, Note: note})
}

// shedNotes returns the interned notes of a shed refusal at the current
// threshold: the decision trace's and, for log, the causal log's.
func (s *Scheduler) shedNotes(log *obs.CausalLog, class int) (overload.NoteID, obs.NoteID) {
	th := s.shedThresh
	if s.cfg.Decisions != nil && s.shedDec[th] == overload.NoteNone {
		s.shedDec[th] = s.cfg.Decisions.Note(fmt.Sprintf("threshold %d", th))
	}
	if log == nil {
		return s.shedDec[th], obs.NoteNone
	}
	if log != s.shedLog {
		s.shedLog, s.shedCausal = log, [MaxTenantClasses][MaxTenantClasses]obs.NoteID{}
	}
	if s.shedCausal[class][th] == obs.NoteNone {
		s.shedCausal[class][th] = log.Note(fmt.Sprintf("class %d below threshold %d", class, th))
	}
	return s.shedDec[th], s.shedCausal[class][th]
}

// Validate rejects a config that asks for something the fleet would
// silently not do: ring knobs without RingDepth, shed knobs without
// Classes, too many classes, and an out-of-range or unarmed
// Overload.BusyFrac. Zero values keep their documented defaults.
func (cfg Config) Validate() error {
	switch {
	case cfg.Classes > MaxTenantClasses:
		return fmt.Errorf("fleet: %d priority classes exceeds the cap %d", cfg.Classes, MaxTenantClasses)
	case cfg.RingDepth <= 0 && cfg.PollBudget != 0:
		return fmt.Errorf("fleet: PollBudget %d needs RingDepth", cfg.PollBudget)
	case cfg.RingDepth <= 0 && cfg.RingRetry != (core.RetryPolicy{}):
		return fmt.Errorf("fleet: RingRetry needs RingDepth")
	case cfg.Classes <= 0 && (cfg.ShedLow != 0 || cfg.ShedHigh != 0 || cfg.ShedAfter != 0):
		return fmt.Errorf("fleet: ShedLow, ShedHigh and ShedAfter need Classes")
	case cfg.Overload.BusyFrac < 0 || cfg.Overload.BusyFrac >= 1:
		return fmt.Errorf("fleet: Overload.BusyFrac %g outside [0, 1)", cfg.Overload.BusyFrac)
	case cfg.Overload.BusyFrac != 0 && !cfg.Overload.Enabled:
		return fmt.Errorf("fleet: Overload.BusyFrac needs Overload.Enabled")
	}
	return nil
}

// New builds an empty fleet over an existing machine.
func New(h *hv.Hypervisor, mgr *core.Manager, cfg Config) (*Scheduler, error) {
	if h == nil || mgr == nil {
		return nil, fmt.Errorf("fleet: need a hypervisor and a manager")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Cores <= 0 {
		cfg.Cores = 1
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.RingDepth > 0 && cfg.PollBudget == 0 {
		cfg.PollBudget = 64
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
		if err := mgr.SetOverload(cfg.Overload); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Injector returns the armed fault injector (nil when chaos is off).
func (s *Scheduler) Injector() *fault.Injector { return s.inj }

// Admit boots a tenant guest, attaches its objects, and adds it to the
// schedule.
func (s *Scheduler) Admit(spec TenantSpec) (*Tenant, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
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
	if spec.Class < 0 || (s.cfg.Classes > 0 && int(spec.Class) >= s.cfg.Classes) {
		return nil, fmt.Errorf("fleet: tenant %q class %d outside [0, %d)", spec.Name, spec.Class, s.cfg.Classes)
	}
	spec.Objects = append([]string(nil), spec.Objects...)
	arrival := spec.Arrival
	if arrival == nil {
		p, err := workload.NewPoisson(s.cfg.Seed+int64(s.joined)*7919+1, spec.RateOPS)
		if err != nil {
			return nil, fmt.Errorf("fleet: tenant %q: %w", spec.Name, err)
		}
		arrival = p
	}
	t := &Tenant{
		spec:    spec,
		arrival: arrival,
		hist:    stats.NewHistogram(),
	}
	if spec.AdmitRateOPS > 0 {
		burst := spec.AdmitBurst
		if burst <= 0 {
			burst = overload.DefaultBurst
		}
		t.bucket = overload.NewTokenBucket(spec.AdmitRateOPS, burst)
	}
	if err := s.bootLocked(t, "tenant"); err != nil {
		return nil, err
	}
	return t, nil
}

// bootLocked gives a tenant built by Admit or Adopt its machine-side
// state: a fresh guest VM, an attachment (and, in ring mode, a call ring)
// per object, and its drain weight. It then appends the tenant to the
// schedule. verb prefixes errors. Callers hold s.mu.
func (s *Scheduler) bootLocked(t *Tenant, verb string) error {
	spec := t.spec
	vm, err := s.hv.CreateVM(spec.Name, tenantRAM)
	if err != nil {
		return fmt.Errorf("fleet: %s %q: %w", verb, spec.Name, err)
	}
	g, err := core.NewGuest(vm, s.mgr)
	if err != nil {
		return fmt.Errorf("fleet: %s %q: %w", verb, spec.Name, err)
	}
	t.vm, t.guest = vm, g
	t.stride = strideScale / uint64(spec.Weight)
	t.dec = s.cfg.Decisions.Tenant(spec.Name)
	if s.cfg.GlobalAdmit != nil {
		t.global = s.cfg.GlobalAdmit(spec.Name)
	}
	ringRetry := s.cfg.RingRetry
	if ringRetry.MaxAttempts > 0 {
		ringRetry.Seed += int64(s.joined) // distinct deterministic jitter per tenant
	}
	for _, obj := range spec.Objects {
		h, err := g.Attach(obj)
		if err != nil {
			return fmt.Errorf("fleet: %s %q attach %q: %w", verb, spec.Name, obj, err)
		}
		t.handles = append(t.handles, h)
		if s.cfg.RingDepth > 0 {
			rc, err := h.Ring(vm.VCPU(), core.RingConfig{Depth: s.cfg.RingDepth, Deadline: Quantum, Retry: ringRetry})
			if err != nil {
				return fmt.Errorf("fleet: %s %q ring on %q: %w", verb, spec.Name, obj, err)
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
			return fmt.Errorf("fleet: %s %q: %w", verb, spec.Name, err)
		}
	}
	t.sched = s
	s.joined++
	s.tenants = append(s.tenants, t)
	return nil
}

// Tenants returns the tenants on this scheduler in join order.
func (s *Scheduler) Tenants() []*Tenant {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Tenant(nil), s.tenants...)
}

// Run simulates the fleet for d of virtual time: open-loop arrivals feed
// each tenant's bounded queue, and the cores drain the queues by stride
// schedule, executing every op as a real exit-less call on the tenant's
// vCPU (so slot faults, evictions, and gate costs are all charged).
// Snapshot returns the per-tenant report.
func (s *Scheduler) Run(d simtime.Duration) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.runLocked(d, false, nil)
}

// ReplayOp is one trace event resolved to a tenant admitted on the
// scheduler that replays it and to one of its handles: Obj is the
// object's position in the tenant's Objects (see Tenant.ObjectIndex).
type ReplayOp struct {
	At     simtime.Time
	Tenant *Tenant
	Obj    int
	Fn     uint64
}

// ReplayOps drives the fleet from a resolved workload trace instead of
// the tenants' arrival processes: each op is delivered to its tenant at
// its recorded instant (relative to this window's start), targeting the
// handle and function it names, through exactly the same refusal ladder,
// queues, and scheduler as generated load. The same (ops, seed, config)
// always renders a byte-identical report (see Snapshot). Names are
// resolved by the caller — cluster.Fleet.Replay resolves each trace
// event once, for validation and routing together. ReplayOps refuses up
// front, naming the op, a tenant that is not a live tenant of this
// scheduler, a handle it does not have, and a time outside [0, d) or out
// of order.
func (s *Scheduler) ReplayOps(ops []ReplayOp, d simtime.Duration) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, op := range ops {
		t := op.Tenant
		if t == nil || t.sched != s {
			return fmt.Errorf("fleet: replay op %d names no live tenant of this scheduler", i)
		}
		if op.Obj < 0 || op.Obj >= len(t.handles) {
			return fmt.Errorf("fleet: replay op %d: tenant %q has no handle %d", i, t.spec.Name, op.Obj)
		}
		if op.At < 0 || simtime.Duration(op.At) >= d {
			return fmt.Errorf("fleet: replay event %d at %d outside window [0,%d)", i, op.At, d)
		}
		if i > 0 && op.At < ops[i-1].At {
			return fmt.Errorf("fleet: replay event %d at %d is before event %d at %d; events must be in time order",
				i, op.At, i-1, ops[i-1].At)
		}
	}
	return s.runLocked(d, true, ops)
}

// ObjectIndex returns the position of object in the tenant's Objects —
// the handle a replayed event on it targets — or -1.
func (t *Tenant) ObjectIndex(object string) int {
	for i, o := range t.spec.Objects {
		if o == object {
			return i
		}
	}
	return -1
}

// eventKind is one of the four kinds of event a fleet window runs.
type eventKind uint8

const (
	coreFree  eventKind = iota // a core ends its quantum (idx: core)
	generated                  // a tenant's arrival process fires (idx: its slot in s.tenants)
	replayed                   // a trace event arrives (idx: replay op)
	pump                       // the fault pump's periodic pass
)

// event is one fleet window event: its kind and the index of its
// subject.
type event struct {
	kind eventKind
	idx  int
}

// window is the state one Run or Replay call's event loop shares between
// its events.
type window struct {
	s    *Scheduler
	sim  *des.Sim[event]
	idle []bool           // per core
	ops  []ReplayOp       // the trace, in replay mode
	base simtime.Duration // fleet time at the window's start
}

// runLocked is the shared simulation core behind Run (replay=false:
// tenants' arrival processes self-schedule) and Replay (replay=true: the
// pre-validated, time-ordered trace is the arrival source). Callers hold
// s.mu.
func (s *Scheduler) runLocked(d simtime.Duration, replay bool, ops []ReplayOp) error {
	if d <= 0 {
		return fmt.Errorf("fleet: run duration %d must be positive", d)
	}
	if s.joined == 0 {
		return fmt.Errorf("fleet: no tenants admitted")
	}

	w := &window{s: s, idle: make([]bool, s.cfg.Cores), ops: ops, base: s.elapsed}
	w.sim = des.New(w.handle)
	deadline := w.sim.Now().Add(d)
	for i := range w.idle {
		w.idle[i] = true
	}

	if replay {
		// Trace-driven arrivals: the loop pulls each event at its
		// recorded instant, targeting the handle and fn the row named.
		next := 0
		w.sim.Pull(func() (simtime.Time, event, bool) {
			if next == len(ops) {
				return 0, event{}, false
			}
			next++
			return ops[next-1].At, event{kind: replayed, idx: next - 1}, true
		})
	} else {
		// One self-rescheduling arrival chain per tenant. Tenants join and
		// leave only between windows, so a slot names one tenant all window.
		for i, t := range s.tenants {
			if err := w.sim.After(t.arrival.NextInterval(), event{kind: generated, idx: i}); err != nil {
				return err
			}
		}
	}

	// Fault pump: while a plan is armed, a periodic event applies due
	// asynchronous injections (EPTP corruption, slot storms), immediately
	// repairs what they corrupted — the repair pass runs before any guest
	// call can stumble into a scribbled entry — and quarantines tenants
	// that died, reclaiming their attachments without touching the rest.
	// Plan times are fleet time: the run time accumulated before this
	// window (base) plus the window's event clock, so an injection fires
	// in the window that contains it however the run is split into
	// windows.
	if s.inj != nil {
		if err := w.sim.After(Quantum, event{kind: pump}); err != nil {
			return err
		}
	}

	w.sim.RunUntil(deadline)
	if s.cfg.RingDepth > 0 {
		// Ring epilogue: flush and harvest every live tenant's rings so ops
		// still queued at the deadline complete before the report is cut.
		s.drainTenantRings(w.sim.Now())
	}
	if s.inj != nil {
		// Final sweep: a tenant that died after the last pump tick is
		// still quarantined before the report is cut.
		s.sweepDead()
	}
	s.elapsed += d
	return nil
}

// handle fires one window event.
func (w *window) handle(now simtime.Time, ev event) {
	s := w.s
	switch ev.kind {
	case coreFree:
		w.idle[ev.idx] = true
		w.dispatch(now)
	case generated:
		t := s.tenants[ev.idx]
		if t.crashed {
			return // a dead tenant's arrival chain ends
		}
		if t.spec.Ops > 0 && t.submitted >= uint64(t.spec.Ops) {
			return
		}
		w.admit(t, now, pendingOp{arrived: now, obj: -1, fn: t.spec.Fn})
		_ = w.sim.After(t.arrival.NextInterval(), ev)
	case replayed:
		op := &w.ops[ev.idx]
		if op.Tenant.crashed {
			return // arrivals to a dead tenant evaporate
		}
		w.admit(op.Tenant, now, pendingOp{arrived: now, obj: op.Obj, fn: op.Fn})
	case pump:
		s.mgr.PumpFaults(now.Add(w.base))
		_, _ = s.mgr.FsckRepair()
		s.sweepDead()
		_ = w.sim.After(Quantum, ev)
	}
}

// dispatch hands every idle core the min-pass runnable tenant (on a tie,
// the one that joined first: the list is in join order) and runs one
// quantum's worth of its queue as back-to-back calls.
func (w *window) dispatch(now simtime.Time) {
	s := w.s
	for {
		coreID := -1
		for i, free := range w.idle {
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
			if t.crashed || len(t.queue) == 0 {
				continue
			}
			if next == nil || t.pass < next.pass {
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
		served, died := 0, false
		for served < len(t.queue) && spent < Quantum {
			op := t.queue[served]
			served++
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
					died = true
					break
				}
				continue
			}
			if !ringMode {
				t.completed++
				t.hist.Record(int64(now.Add(spent).Sub(op.arrived)))
			}
		}
		// Pop the served ops by shifting the rest down: re-slicing past
		// them would use up the backing array's capacity, and the next
		// admit would reallocate it.
		t.queue = t.queue[:copy(t.queue, t.queue[served:])]
		if died {
			t.markCrashed()
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
		w.idle[coreID] = false
		if err := w.sim.After(spent, event{kind: coreFree, idx: coreID}); err != nil {
			w.idle[coreID] = true // negative-delay can't happen; keep the core alive
		}
	}
}

// admit runs one arrival through the refusal ladder — cheapest refusal
// first: the token buckets refuse before any state is touched, the
// shedder refuses by fleet-wide occupancy and class, and only then does
// the bounded queue drop blindly — queueing it and kicking dispatch when
// every gate passes. Generated and replayed arrivals share this path, so
// a decision trace covers both identically. Notes are interned ids; the
// only one built at emit time is a shed note, once per threshold.
func (w *window) admit(t *Tenant, now simtime.Time, op pendingOp) {
	s := w.s
	dec, rec := s.cfg.Decisions, s.mgr.Recorder()
	class := int(t.spec.Class)
	t.submitted++
	switch {
	case t.global != nil && !t.global.Allow(now.Add(w.base)):
		// Cluster-wide cap, read at fleet time: the outermost gate, so a
		// globally-refused arrival consumes no per-shard bucket token.
		t.throttled++
		dec.Record(now, t.dec, overload.VerdictThrottle, class, overload.NoteGlobalBucket)
		s.causalEvent(rec, now, t, obs.EvThrottle, obs.NoteGlobalBucket)
	case t.bucket != nil && !t.bucket.Allow(now):
		t.throttled++
		dec.Record(now, t.dec, overload.VerdictThrottle, class, overload.NoteTokenBucket)
		s.causalEvent(rec, now, t, obs.EvThrottle, obs.NoteTokenBucket)
	case s.shedder != nil && !s.shedder.Admit(now, s.occupancyLocked(), class):
		t.shed++
		s.shedByClass[t.spec.Class]++
		if dec != nil || rec != nil {
			dn, cn := s.shedNotes(rec.Causal(), class)
			dec.Record(now, t.dec, overload.VerdictShed, class, dn)
			s.causalEvent(rec, now, t, obs.EvShed, cn)
		}
	case len(t.queue) >= s.cfg.QueueDepth:
		t.dropped++
		dec.Record(now, t.dec, overload.VerdictDrop, class, overload.NoteQueueFull)
	default:
		t.queue = append(t.queue, op)
		if len(t.queue) > t.maxQueue {
			t.maxQueue = len(t.queue)
		}
		dec.Record(now, t.dec, overload.VerdictAdmit, class, overload.NoteNone)
		w.dispatch(now)
	}
}

// occupancyLocked is the shedder's input: the fleet-wide fraction of
// total queue capacity in use across live tenants. Callers hold s.mu.
func (s *Scheduler) occupancyLocked() float64 {
	queued, alive := 0, 0
	for _, t := range s.tenants {
		if t.crashed {
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
			pend := t.ringPend[i]
			matched := min(n, len(pend))
			for j := 0; j < matched; j++ {
				arrived := pend[j]
				if comps[j].Status == shm.CompBusy {
					t.busied++
					s.cfg.Decisions.Record(now, t.dec, overload.VerdictBusy, int(t.spec.Class), overload.NoteRingBusy)
					continue
				}
				if comps[j].Status != shm.CompOK {
					t.fnErrors++
					continue
				}
				t.completed++
				t.hist.Record(int64(now.Sub(arrived)))
			}
			// Pop the matched stamps in place, as dispatch pops its queue.
			t.ringPend[i] = pend[:copy(pend, pend[matched:])]
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
		if t.crashed || t.vm.Dead() {
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
	Tenants  []TenantReport // join order (admission order in a cluster fleet)

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
	// admission token buckets refused, Shed the load shedder's refusals,
	// and Busied ops bounced back CompBusy with retries exhausted.
	// The fleet no longer produces BreakerShed or Quarantined, which a
	// per-tenant circuit breaker used to set; they stay so that output
	// printing a TenantReport with %+v keeps its bytes.
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

// Report renders the tenant's accounting row, its goodput taken over
// elapsed. Call it between runs.
func (t *Tenant) Report(elapsed simtime.Duration) TenantReport {
	tr := TenantReport{
		Name:      t.spec.Name,
		Weight:    t.spec.Weight,
		Submitted: t.submitted,
		Completed: t.completed,
		Dropped:   t.dropped,
		FnErrors:  t.fnErrors,
		Crashed:   t.crashed,
		Recovered: t.recovered,
		Lost:      t.lost,
		Class:     int(t.spec.Class),
		Throttled: t.throttled,
		Shed:      t.shed,
		Busied:    t.busied,
		P50:       simtime.Duration(t.hist.Percentile(0.50)),
		P99:       simtime.Duration(t.hist.Percentile(0.99)),
		MaxQueue:  t.maxQueue,
		CoreTime:  t.coreTime,
	}
	if elapsed > 0 {
		tr.GoodputOPS = float64(t.completed) * 1e9 / float64(elapsed)
	}
	return tr
}

func (s *Scheduler) reportLocked() *Report {
	r := &Report{Duration: s.elapsed, Cores: s.cfg.Cores}
	for _, t := range s.tenants {
		r.Tenants = append(r.Tenants, t.Report(s.elapsed))
	}
	s.addTotalsLocked(r)
	return r
}

// AddTotals adds the scheduler's machine-wide counters — chaos
// accounting and shed refusals by class — to r. The cluster fleet sums
// every shard's into its merged report.
func (s *Scheduler) AddTotals(r *Report) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.addTotalsLocked(r)
}

func (s *Scheduler) addTotalsLocked(r *Report) {
	if s.inj != nil {
		r.FaultsFired += uint64(len(s.inj.Fired()))
		r.FaultsPending += s.inj.Pending()
		r.FaultTrace += s.inj.TraceString()
		rs := s.mgr.RecoveryStats()
		r.Recoveries += rs.Recoveries
		r.MidGateDeaths += rs.MidGateDeaths
		r.Repairs += rs.Repairs
		r.Retries += rs.Retries
	}
	for i, n := range s.shedByClass {
		r.ShedByClass[i] += n
	}
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
