// Package elisa is a library-grade reproduction of "Exit-Less, Isolated,
// and Shared Access for Virtual Machines" (Yasukata, Tazaki, Aublin;
// ASPLOS 2023): an in-memory object sharing scheme for VMs that is both
// isolated (shared objects live only in dedicated sub EPT contexts) and
// exit-less (guests reach them by VMFUNC EPTP switching through a gate,
// never by VM exit).
//
// Because VMFUNC and EPTs are Intel hardware, the package runs on a
// deterministic simulated machine (physical memory, software EPTs, vCPUs
// with VMFUNC/VMCALL semantics, a KVM-like hypervisor) with a cost model
// calibrated to the paper's measurements: an ELISA call round trip is
// 196 ns of simulated time, a VMCALL hypercall 699 ns — the 3.5x gap the
// whole design exploits.
//
// # Quick start
//
//	sys, _ := elisa.NewSystem(elisa.Config{})
//	obj, _ := sys.Manager().CreateObject("bulletin", 4096)
//	_ = sys.Manager().RegisterFunc(1, func(c *elisa.CallContext) (uint64, error) {
//	    return 0, c.CopyExchangeToObject(0, 0, int(c.Args[0]))
//	})
//	vm, _ := sys.NewGuestVM("tenant-a", 64*1024)
//	h, _ := vm.Attach("bulletin")
//	_ = h.ExchangeWrite(vm.VCPU(), 0, []byte("hello"))
//	_, _ = h.Call(vm.VCPU(), 1, 5) // exit-less: 196ns + the copy
//	_ = obj
//
// See examples/ for runnable programs and internal/experiments for the
// paper's full evaluation.
package elisa

import (
	"fmt"
	"math"

	"github.com/elisa-go/elisa/internal/cluster"
	"github.com/elisa-go/elisa/internal/core"
	"github.com/elisa-go/elisa/internal/cpu"
	"github.com/elisa-go/elisa/internal/ept"
	"github.com/elisa-go/elisa/internal/fault"
	"github.com/elisa-go/elisa/internal/fleet"
	"github.com/elisa-go/elisa/internal/hv"
	"github.com/elisa-go/elisa/internal/mem"
	"github.com/elisa-go/elisa/internal/obs"
	"github.com/elisa-go/elisa/internal/shm"
	"github.com/elisa-go/elisa/internal/simtime"
	"github.com/elisa-go/elisa/internal/trace"
)

// Re-exported core types: these are the public vocabulary of the library.
type (
	// Manager is the ELISA manager-VM runtime: it owns shared objects,
	// builds gate/sub EPT contexts, and publishes manager functions.
	Manager = core.Manager
	// Object is a shared in-memory object.
	Object = core.Object
	// Handle is a guest's attached capability to one object.
	Handle = core.Handle
	// CallContext is what a manager function sees during a call.
	CallContext = core.CallContext
	// ObjectFunc is a manager-published function guests invoke exit-less.
	ObjectFunc = core.ObjectFunc
	// Req is one operation of a batched Handle.CallMulti.
	Req = core.Req
	// VCPU is a guest virtual CPU; guest code runs against it.
	VCPU = cpu.VCPU
	// VM is a guest virtual machine.
	VM = hv.VM
	// Hypervisor is the host of the simulated machine.
	Hypervisor = hv.Hypervisor
	// Perm is an EPT permission mask.
	Perm = ept.Perm
	// Duration is simulated time in nanoseconds.
	Duration = simtime.Duration
	// CostModel is the simulated-machine cost model.
	CostModel = simtime.CostModel
	// ObserveConfig configures the fast-path flight recorder
	// (Config.Observe).
	ObserveConfig = obs.Config
	// Recorder is the fast-path flight recorder: sampled call spans plus
	// per-(guest, object, fn) latency histograms.
	Recorder = obs.Recorder
	// Span is one recorded exit-less call, decomposed into the phases of
	// the paper's Table 2 cost breakdown.
	Span = obs.Span
	// CausalLog is the flight recorder's causal-event log: every ring
	// descriptor's submit→flush/drain→complete→deliver chain, with
	// busy→backoff→retry loops and overload refusals linked in
	// (Recorder.Causal).
	CausalLog = obs.CausalLog
	// RingEvent is one step in a ring descriptor's causal chain.
	RingEvent = obs.RingEvent
	// RingEventKind classifies a causal-chain step (submit, flush,
	// drain, complete, busy, backoff, retry, deliver, fail, shed,
	// throttle, breaker).
	RingEventKind = obs.EventKind
	// RingPhase indexes one interval of a ring descriptor's causal
	// chain; its names are shared with the pprof labels obs.WithPhase
	// applies, so wall-clock profiles and sim-time histograms line up.
	RingPhase = obs.RingPhase
	// Registry is the metrics registry behind System.Metrics, with
	// Prometheus-text and JSON exporters.
	Registry = obs.Registry
	// Metric is one exported metric family.
	Metric = obs.Metric
	// Fleet is a deterministic multi-tenant scheduler over the system's
	// shards: one scheduler per populated shard, each tenant on the shard
	// that holds its objects (System.NewFleet, Cluster.NewFleet).
	Fleet = cluster.Fleet
	// FleetConfig configures the per-shard schedulers of a Fleet.
	FleetConfig = fleet.Config
	// TenantSpec describes one fleet tenant to admit.
	TenantSpec = fleet.TenantSpec
	// FleetReport is a fleet run's per-tenant result set.
	FleetReport = fleet.Report
	// TenantReport is one tenant's accounting within a FleetReport.
	TenantReport = fleet.TenantReport
	// SlotStats is a guest's slot-virtualisation accounting
	// (Manager.SlotStats).
	SlotStats = core.SlotStats
	// FaultPlan is a seeded, fully materialised fault schedule
	// (System.ArmFaults, FleetConfig.Faults).
	FaultPlan = fault.Plan
	// FaultPlanConfig shapes NewFaultPlan's generated schedule.
	FaultPlanConfig = fault.PlanConfig
	// FaultClass enumerates the injectable fault classes.
	FaultClass = fault.Class
	// FaultInjector hands a plan's armed injections to the manager's hook
	// points and records the deterministic fault/recovery trace.
	FaultInjector = fault.Injector
	// RecoveryStats is the manager's recovery-side counter snapshot.
	RecoveryStats = core.RecoveryStats
	// RingConfig configures Handle.Ring: descriptor-ring depth and the
	// adaptive batching deadline.
	RingConfig = core.RingConfig
	// RingCaller drives an attachment's exit-less call ring: Submit
	// enqueues operations without a gate crossing, Flush batches queued
	// ones through a single crossing, Poll collects completions.
	RingCaller = core.RingCaller
	// RingStats is one call ring's accounting snapshot
	// (Manager.RingStats, System.RingStats).
	RingStats = core.RingStats
	// Comp is one ring completion: the function's return value plus a
	// status (CompOK, CompErr, or CompBusy).
	Comp = shm.Comp
	// OverloadConfig arms the manager's drain-side overload control:
	// CompBusy bounce-backs and weighted-fair poll-budget splits
	// (Manager.SetOverload, FleetConfig.Overload).
	OverloadConfig = core.OverloadConfig
	// RetryPolicy is a ring caller's bounded, jittered backoff-and-retry
	// answer to CompBusy (RingConfig.Retry, FleetConfig.RingRetry).
	RetryPolicy = core.RetryPolicy
	// TenantClass is a fleet tenant's load-shedding priority class
	// (TenantSpec.Class; 0 is shed first, FleetConfig.Classes-1 never).
	TenantClass = fleet.TenantClass
	// Cluster is the system's control plane: Config.Shards independent
	// manager machines behind a consistent-hash placement ring
	// (System.Cluster).
	Cluster = cluster.Cluster
	// ClusterShard is one manager machine of a Cluster.
	ClusterShard = cluster.Shard
	// ClusterGuest is a cluster tenant: one logical guest with a replica
	// on every shard it touches (Cluster.NewGuest).
	ClusterGuest = cluster.Guest
	// ClusterHandle is a routed attachment — the owning shard resolved
	// once at attach time, exit-less thereafter.
	ClusterHandle = cluster.Handle
	// MultiReq is one operation of a cross-shard ClusterGuest.CallMulti.
	MultiReq = cluster.MultiReq
	// ClusterFleetConfig configures a Fleet built with Cluster.NewFleet:
	// the per-shard FleetConfig plus windowing, rebalancing and
	// cluster-wide admission.
	ClusterFleetConfig = cluster.FleetConfig
	// ClusterStats is a cluster-wide accounting snapshot (Cluster.Stats).
	ClusterStats = cluster.Stats
	// ShardStats is one shard's slice of a ClusterStats.
	ShardStats = cluster.ShardStats
	// PlacementRing is the cluster's seeded consistent-hash object
	// placement ring (Cluster.Ring).
	PlacementRing = cluster.PlacementRing
	// PlacementConfig configures a standalone PlacementRing.
	PlacementConfig = cluster.PlacementConfig
)

// Ring completion statuses and geometry limits.
const (
	// CompOK marks a completion whose function returned without error.
	CompOK = shm.CompOK
	// CompErr marks a failed or administratively completed descriptor.
	CompErr = shm.CompErr
	// CompBusy marks a descriptor bounced back unserved under overload;
	// the guest may retry after backing off (RetryPolicy).
	CompBusy = shm.CompBusy
	// MaxTenantClasses caps FleetConfig.Classes.
	MaxTenantClasses = fleet.MaxTenantClasses
	// DefaultRingDepth is the ring depth RingConfig zero values pick.
	DefaultRingDepth = core.DefaultRingDepth
	// MaxRingDepth caps the negotiable ring depth.
	MaxRingDepth = core.MaxRingDepth
)

// The injectable fault classes (see package fault for the fault model).
const (
	FaultCrashMidGate     = fault.ClassCrashMidGate
	FaultNegotiateFail    = fault.ClassNegotiateFail
	FaultNegotiateTimeout = fault.ClassNegotiateTimeout
	FaultEPTPCorrupt      = fault.ClassEPTPCorrupt
	FaultSlotStorm        = fault.ClassSlotStorm
	FaultRevokeRace       = fault.ClassRevokeRace
)

// NewFaultPlan expands a config into a deterministic fault schedule: the
// same (seed, config) always yields the same plan, and replaying it on the
// deterministic machine yields the identical fault trace.
func NewFaultPlan(cfg FaultPlanConfig) (*FaultPlan, error) { return fault.NewPlan(cfg) }

// Permission bits for grants.
const (
	PermRead  = ept.PermRead
	PermWrite = ept.PermWrite
	PermRW    = ept.PermRW
)

// PageSize is the machine's page size.
const PageSize = mem.PageSize

// DefaultCostModel returns the calibrated cost model (paper Table 2:
// ELISA 196 ns, VMCALL 699 ns round trips).
func DefaultCostModel() CostModel { return simtime.Default() }

// Config configures a System.
type Config struct {
	// PhysBytes is the simulated physical memory, split evenly across
	// the shards in whole pages (default 256 MiB).
	PhysBytes int
	// ManagerRAM is the manager VM's private RAM (default 64 KiB).
	ManagerRAM int
	// Cost overrides the calibrated cost model.
	Cost *CostModel
	// TraceEvents, when positive, retains the last N machine events
	// (exits, kills, negotiations) readable via System.Trace.
	TraceEvents int
	// Observe, when non-nil, attaches a flight recorder to the exit-less
	// fast path: every Handle.Call/CallMulti reports a phase-decomposed
	// span (sampled 1-in-N into a bounded ring) and feeds per-attachment
	// latency histograms. Recording reads the simulated clock but never
	// charges it, so latencies are identical with and without it. Nil
	// leaves observability off; the fast path then pays only a nil check.
	Observe *ObserveConfig
	// SlotBudget caps the physical EPTP-list slots each guest may occupy
	// at once (0 = the whole list minus the default and gate slots).
	// Attachments beyond the budget still succeed virtualised: their
	// first call re-negotiates a physical slot over one HCSlotFault exit.
	SlotBudget int
	// Shards is the number of manager machines (default 1). A System is
	// always a cluster: Shards independent hosts behind a seeded
	// consistent-hash placement ring, reachable via System.Cluster, and a
	// single host is a 1-shard cluster. The single-machine accessors
	// (Manager, Hypervisor, NewGuestVM, …) address shard 0. ShardSeed
	// feeds the placement ring.
	Shards    int
	ShardSeed int64
}

// System is ELISA installed on a cluster of simulated machines, each
// with a hypervisor, a manager VM, and any number of guests.
type System struct {
	cluster *cluster.Cluster
	metrics *obs.Registry
}

// NewSystem boots Config.Shards machines, each with its ELISA manager.
func NewSystem(cfg Config) (*System, error) {
	if cfg.PhysBytes == 0 {
		cfg.PhysBytes = 256 * 1024 * 1024
	}
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	c, err := cluster.New(cluster.Config{
		Shards:      cfg.Shards,
		Seed:        cfg.ShardSeed,
		PhysBytes:   cfg.PhysBytes / cfg.Shards / PageSize * PageSize,
		ManagerRAM:  cfg.ManagerRAM,
		Cost:        cfg.Cost,
		SlotBudget:  cfg.SlotBudget,
		TraceEvents: cfg.TraceEvents,
		Observe:     cfg.Observe,
	})
	if err != nil {
		return nil, err
	}
	return &System{cluster: c, metrics: newMetricsRegistry(c)}, nil
}

// Cluster returns the system's control plane (never nil).
func (s *System) Cluster() *Cluster { return s.cluster }

// shard0 is the machine the single-machine accessors address.
func (s *System) shard0() *ClusterShard { return s.cluster.Shard(0) }

// Manager returns shard 0's ELISA manager runtime.
func (s *System) Manager() *Manager { return s.shard0().Manager() }

// Hypervisor exposes shard 0's host (for baselines: direct mapping via
// ShareDirect, host interposition via RegisterHypercall).
func (s *System) Hypervisor() *Hypervisor { return s.shard0().Hypervisor() }

// Trace returns shard 0's event buffer (nil unless Config.TraceEvents
// was set).
func (s *System) Trace() *trace.Buffer { return s.Hypervisor().Trace() }

// Metrics returns the system's metrics registry: live counters and gauges
// from every shard's hypervisor and manager, labelled by shard, plus —
// when Config.Observe is set — the fast-path latency summaries. Render
// with Prometheus() or JSON().
func (s *System) Metrics() *Registry { return s.metrics }

// Recorder returns shard 0's fast-path flight recorder (nil unless
// Config.Observe was set). A nil Recorder is safe to query; every
// accessor returns empty results.
func (s *System) Recorder() *Recorder { return s.shard0().Recorder() }

// Spans returns shard 0's retained sampled call spans, oldest first (nil
// unless Config.Observe was set).
func (s *System) Spans() []Span { return s.Recorder().Spans() }

// NewFleet builds a deterministic multi-tenant scheduler over the
// system's shards; its per-tenant goodput/drop/latency gauges export
// through System.Metrics. Tenants are admitted with Fleet.Admit (each
// runs on the shard holding its objects) and driven with Fleet.Run; every
// op is a real exit-less call, so the slot-virtualisation slow path
// shows up in the fleet's latency histograms. Each Run or Replay call
// advances the fleet as one scheduling window.
func (s *System) NewFleet(cfg FleetConfig) (*Fleet, error) {
	return s.cluster.NewFleet(cluster.FleetConfig{Config: cfg, Slice: math.MaxInt64})
}

// SlotStats returns shard 0's per-guest slot-virtualisation accounting
// (budget, backed, faults, evictions), ordered by guest name.
func (s *System) SlotStats() []SlotStats { return s.Manager().SlotStats() }

// RingStats returns every call ring's accounting snapshot on shard 0
// (occupancy, drain counters by side, batch-size percentiles), ordered by
// guest then virtual slot. Empty until some attachment negotiates a ring
// with Handle.Ring.
func (s *System) RingStats() []RingStats { return s.Manager().RingStats() }

// ArmFaults arms a fault plan on shard 0's manager hook points and
// returns the injector (nil plan disarms chaos). While armed, the fault classes of
// the plan fire at their scheduled virtual times; drive recovery with
// Manager().PumpFaults / FsckRepair / RecoverDead, or let a fleet built
// with FleetConfig.Faults do all of it. An armed but never-firing injector
// leaves the hot path at exactly the calibrated 196 ns.
func (s *System) ArmFaults(p *FaultPlan) *FaultInjector {
	if p == nil {
		s.Manager().SetInjector(nil)
		return nil
	}
	inj := fault.NewInjector(p)
	s.Manager().SetInjector(inj)
	return inj
}

// Injector returns shard 0's armed fault injector (nil when chaos is off).
func (s *System) Injector() *FaultInjector { return s.Manager().Injector() }

// RecoveryStats returns shard 0's recovery counters: quarantines,
// mid-gate deaths, Fsck repairs, negotiation retries.
func (s *System) RecoveryStats() RecoveryStats { return s.Manager().RecoveryStats() }

// GuestVM is a guest with the ELISA library initialised.
type GuestVM struct {
	vm  *hv.VM
	lib *core.Guest
}

// NewGuestVM boots a guest VM on shard 0 with ramBytes of private RAM (a
// multiple of PageSize, at least two pages) and initialises its ELISA
// library.
func (s *System) NewGuestVM(name string, ramBytes int) (*GuestVM, error) {
	sh := s.shard0()
	vm, err := sh.Hypervisor().CreateVM(name, ramBytes)
	if err != nil {
		return nil, err
	}
	lib, err := core.NewGuest(vm, sh.Manager())
	if err != nil {
		return nil, err
	}
	return &GuestVM{vm: vm, lib: lib}, nil
}

// Name returns the guest's name.
func (g *GuestVM) Name() string { return g.vm.Name() }

// VM exposes the underlying hypervisor VM.
func (g *GuestVM) VM() *VM { return g.vm }

// VCPU returns the guest's virtual CPU.
func (g *GuestVM) VCPU() *VCPU { return g.vm.VCPU() }

// Attach negotiates access to a named shared object (the slow path; the
// only exits in the protocol).
func (g *GuestVM) Attach(object string) (*Handle, error) {
	return g.lib.Attach(object)
}

// Detach gracefully releases an attachment.
func (g *GuestVM) Detach(object string) error { return g.lib.Detach(object) }

// Run executes a guest program on the guest's vCPU.
func (g *GuestVM) Run(program func(*VCPU) error) error { return g.vm.Run(program) }

// Dead reports whether the hypervisor killed this guest (the outcome of
// every isolation violation).
func (g *GuestVM) Dead() bool { return g.vm.Dead() }

// Elapsed returns the guest's consumed simulated time.
func (g *GuestVM) Elapsed() Duration {
	return simtime.Duration(g.vm.VCPU().Clock().Now())
}

// Stats returns the guest's vCPU event counters (exits, VMFUNCs, TLB).
func (g *GuestVM) Stats() cpu.Stats { return g.vm.VCPU().Stats() }

// Validate is a cheap self-check that the headline calibration holds on
// this system's cost model; it returns the two round-trip costs.
func (s *System) Validate() (elisaRTT, vmcallRTT Duration, err error) {
	m := s.Hypervisor().Cost()
	e, v := m.ELISARoundTrip(), m.VMCallRoundTrip()
	if e <= 0 || v <= 0 || v <= e {
		return e, v, fmt.Errorf("elisa: degenerate cost model: elisa=%v vmcall=%v", e, v)
	}
	return e, v, nil
}
