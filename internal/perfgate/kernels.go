package perfgate

import (
	"fmt"
	"runtime"
	"time"

	"github.com/elisa-go/elisa/internal/cluster"
	"github.com/elisa-go/elisa/internal/core"
	"github.com/elisa-go/elisa/internal/fleet"
	"github.com/elisa-go/elisa/internal/hv"
	"github.com/elisa-go/elisa/internal/mem"
	"github.com/elisa-go/elisa/internal/shm"
	"github.com/elisa-go/elisa/internal/simtime"
	"github.com/elisa-go/elisa/internal/workload"
)

// Kernel is one bench kernel: a deterministic simulated workload whose
// op count and simulated elapsed time reproduce bit-for-bit run to run.
// Measure wraps the prepared body with the host-side wall-clock and
// allocation counters.
type Kernel struct {
	// ID is the stable identifier Diff matches results by.
	ID string
	// Title is the human-readable description.
	Title string
	// Prepare builds the kernel's fixture (machines, guests, warm
	// slots) at quick (CI) or full scale and returns the measured body,
	// which executes the workload and reports the operation count and
	// the simulated time those ops consumed. Measure's wall-clock and
	// allocation window covers only the body, so allocs_per_op reads
	// the steady-state per-op cost, not amortised fixture setup.
	Prepare func(quick bool) (run func() (ops int64, elapsed simtime.Duration, err error), err error)
}

// LaneParallelism is the lane fan-out the parallel_fleet kernel hands to
// its cluster fleet (elisa-bench -parallel overrides it). The simulated
// figures are byte-identical at any setting — lanes only move the
// simulator's own wall-clock — so snapshots taken at different widths
// stay comparable on the gated metrics.
var LaneParallelism = defaultLaneParallelism()

func defaultLaneParallelism() int {
	if n := runtime.GOMAXPROCS(0); n < 4 {
		return n
	}
	return 4
}

// Manager function IDs and the hypercall number the kernels register on
// their private fixtures.
const (
	kfnNop  uint64 = 0xBE9C0010
	kfnEcho uint64 = 0xBE9C0011
	khcNop  uint64 = 0xBE9C0012
)

// kernelFixture is the one-guest ELISA machine the micro kernels run on.
type kernelFixture struct {
	hv  *hv.Hypervisor
	mgr *core.Manager
	vm  *hv.VM
	h   *core.Handle
}

func newKernelFixture() (*kernelFixture, error) {
	h, err := hv.New(hv.Config{PhysBytes: 64 * 1024 * 1024})
	if err != nil {
		return nil, err
	}
	mgr, err := core.NewManager(h, core.ManagerConfig{})
	if err != nil {
		return nil, err
	}
	if _, err := mgr.CreateObject("perf", mem.PageSize); err != nil {
		return nil, err
	}
	if err := mgr.RegisterFunc(kfnNop, func(*core.CallContext) (uint64, error) { return 0, nil }); err != nil {
		return nil, err
	}
	if err := mgr.RegisterFunc(kfnEcho, func(c *core.CallContext) (uint64, error) {
		var b [64]byte
		if err := c.ReadExchange(0, b[:]); err != nil {
			return 0, err
		}
		return uint64(b[0]), nil
	}); err != nil {
		return nil, err
	}
	vm, err := h.CreateVM("perf-guest", 16*mem.PageSize)
	if err != nil {
		return nil, err
	}
	g, err := core.NewGuest(vm, mgr)
	if err != nil {
		return nil, err
	}
	handle, err := g.Attach("perf")
	if err != nil {
		return nil, err
	}
	return &kernelFixture{hv: h, mgr: mgr, vm: vm, h: handle}, nil
}

func scale(quick bool, full, q int) int {
	if quick {
		return q
	}
	return full
}

// prepareCallRTT measures the steady-state per-call ELISA gate round
// trip.
func prepareCallRTT(quick bool) (func() (int64, simtime.Duration, error), error) {
	f, err := newKernelFixture()
	if err != nil {
		return nil, err
	}
	v := f.vm.VCPU()
	if _, err := f.h.Call(v, kfnNop); err != nil { // warm the slot
		return nil, err
	}
	ops := scale(quick, 10000, 500)
	return func() (int64, simtime.Duration, error) {
		start := v.Clock().Now()
		for i := 0; i < ops; i++ {
			if _, err := f.h.Call(v, kfnNop); err != nil {
				return 0, 0, err
			}
		}
		return int64(ops), v.Clock().Elapsed(start), nil
	}, nil
}

// prepareVMCallRTT measures the empty hypercall — the exit-ful baseline
// the paper compares ELISA against.
func prepareVMCallRTT(quick bool) (func() (int64, simtime.Duration, error), error) {
	f, err := newKernelFixture()
	if err != nil {
		return nil, err
	}
	if err := f.hv.RegisterHypercall(khcNop, func(*hv.VM, [4]uint64) (uint64, error) { return 0, nil }); err != nil {
		return nil, err
	}
	v := f.vm.VCPU()
	ops := scale(quick, 10000, 500)
	return func() (int64, simtime.Duration, error) {
		start := v.Clock().Now()
		for i := 0; i < ops; i++ {
			if _, err := v.VMCall(khcNop); err != nil {
				return 0, 0, err
			}
		}
		return int64(ops), v.Clock().Elapsed(start), nil
	}, nil
}

// prepareRingFlush measures the batched ring datapath: descriptors
// amortise one gate crossing per 32-op batch through explicit flushes.
func prepareRingFlush(quick bool) (func() (int64, simtime.Duration, error), error) {
	f, err := newKernelFixture()
	if err != nil {
		return nil, err
	}
	v := f.vm.VCPU()
	rc, err := f.h.Ring(v, core.RingConfig{Depth: 64, Deadline: simtime.Duration(1) << 40})
	if err != nil {
		return nil, err
	}
	const batch = 32
	batches := scale(quick, 256, 16)
	comps := make([]shm.Comp, batch)
	return func() (int64, simtime.Duration, error) {
		start := v.Clock().Now()
		for b := 0; b < batches; b++ {
			for i := 0; i < batch; i++ {
				if err := rc.Submit(v, kfnNop, uint64(i)); err != nil {
					return 0, 0, err
				}
			}
			if err := rc.Flush(v); err != nil {
				return 0, 0, err
			}
			for rc.Pending() > 0 {
				if _, err := rc.Poll(v, comps); err != nil {
					return 0, 0, err
				}
			}
		}
		return int64(batch * batches), v.Clock().Elapsed(start), nil
	}, nil
}

// prepareRingPoller measures the fully exit-less datapath: the guest
// only submits; the manager-side poller drains every batch.
func prepareRingPoller(quick bool) (func() (int64, simtime.Duration, error), error) {
	f, err := newKernelFixture()
	if err != nil {
		return nil, err
	}
	v := f.vm.VCPU()
	rc, err := f.h.Ring(v, core.RingConfig{Depth: 64, Deadline: simtime.Duration(1) << 40})
	if err != nil {
		return nil, err
	}
	const batch = 32
	batches := scale(quick, 256, 16)
	comps := make([]shm.Comp, batch)
	return func() (int64, simtime.Duration, error) {
		start := v.Clock().Now()
		for b := 0; b < batches; b++ {
			for i := 0; i < batch; i++ {
				if err := rc.Submit(v, kfnNop, uint64(i)); err != nil {
					return 0, 0, err
				}
			}
			for rc.Pending() > 0 {
				if _, err := f.mgr.DrainRings(batch); err != nil {
					return 0, 0, err
				}
				if _, err := rc.Poll(v, comps); err != nil {
					return 0, 0, err
				}
			}
		}
		return int64(batch * batches), v.Clock().Elapsed(start), nil
	}, nil
}

// prepareExchangePut measures an exchange-buffer put plus the call that
// consumes it — the isolated data-passing path.
func prepareExchangePut(quick bool) (func() (int64, simtime.Duration, error), error) {
	f, err := newKernelFixture()
	if err != nil {
		return nil, err
	}
	v := f.vm.VCPU()
	ops := scale(quick, 5000, 250)
	return func() (int64, simtime.Duration, error) {
		var payload [64]byte
		payload[0] = 1
		start := v.Clock().Now()
		for i := 0; i < ops; i++ {
			if err := f.h.ExchangeWrite(v, 0, payload[:]); err != nil {
				return 0, 0, err
			}
			if ret, err := f.h.Call(v, kfnEcho); err != nil {
				return 0, 0, err
			} else if ret != 1 {
				return 0, 0, fmt.Errorf("perfgate: exchange echo returned %d", ret)
			}
		}
		return int64(ops), v.Clock().Elapsed(start), nil
	}, nil
}

// prepareFleetMix measures the multi-tenant scheduler end to end: four
// tenants on two cores over the exit-less ring datapath with the
// manager poller interleaved. Ops are completed operations; elapsed is
// the fixed run horizon.
func prepareFleetMix(quick bool) (func() (int64, simtime.Duration, error), error) {
	h, err := hv.New(hv.Config{PhysBytes: 256 * 1024 * 1024})
	if err != nil {
		return nil, err
	}
	mgr, err := core.NewManager(h, core.ManagerConfig{})
	if err != nil {
		return nil, err
	}
	if err := mgr.RegisterFunc(kfnNop, func(*core.CallContext) (uint64, error) { return 0, nil }); err != nil {
		return nil, err
	}
	for i := 0; i < 4; i++ {
		if _, err := mgr.CreateObject(fmt.Sprintf("mix-%d", i), mem.PageSize); err != nil {
			return nil, err
		}
	}
	s, err := fleet.New(h, mgr, fleet.Config{
		Cores: 2, Seed: 42, QueueDepth: 64,
		RingDepth: 64, PollBudget: 64,
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < 4; i++ {
		spec := fleet.TenantSpec{
			Name:    fmt.Sprintf("mix%d", i),
			Weight:  1 + i%2,
			Objects: []string{fmt.Sprintf("mix-%d", i)},
			Fn:      kfnNop,
			RateOPS: 2_000_000,
		}
		if _, err := s.Admit(spec); err != nil {
			return nil, err
		}
	}
	horizon := simtime.Duration(scale(quick, 2_000_000, 300_000)) // 2ms / 300µs
	return func() (int64, simtime.Duration, error) {
		rep, err := s.Run(horizon)
		if err != nil {
			return 0, 0, err
		}
		var done int64
		for _, tr := range rep.Tenants {
			done += int64(tr.Completed)
		}
		if done == 0 {
			return 0, 0, fmt.Errorf("perfgate: fleet_mix completed nothing")
		}
		return done, rep.Duration, nil
	}, nil
}

// prepareParallelFleet measures the sharded fleet's lane executor: eight
// tenants over a 4-shard cluster advancing in eight scheduling windows,
// with per-shard lanes fanned out LaneParallelism wide. The simulated
// figures are byte-identical at any parallelism; wall_ns_per_sim_sec is
// the metric lanes move, and the trajectory tracks it. Ops are completed
// operations; elapsed is the run horizon.
func prepareParallelFleet(quick bool) (func() (int64, simtime.Duration, error), error) {
	const shards = 4
	c, err := cluster.New(cluster.Config{Shards: shards, Seed: 21, PhysBytes: 64 * 1024 * 1024})
	if err != nil {
		return nil, err
	}
	if err := c.RegisterFunc(kfnNop, func(*core.CallContext) (uint64, error) { return 0, nil }); err != nil {
		return nil, err
	}
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("lane-%d", i)
		if err := c.Ring().Pin(name, i%shards); err != nil {
			return nil, err
		}
		if _, err := c.CreateObject(name, mem.PageSize); err != nil {
			return nil, err
		}
	}
	horizon := simtime.Duration(scale(quick, 8_000_000, 1_600_000)) // 8ms / 1.6ms
	f, err := c.NewFleet(cluster.FleetConfig{
		Config: fleet.Config{
			Cores: 2, Seed: 42, QueueDepth: 32, RingDepth: 32,
			Parallelism: LaneParallelism,
		},
		Slice: horizon / 8,
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < 8; i++ {
		spec := fleet.TenantSpec{
			Name:    fmt.Sprintf("lane%d", i),
			Objects: []string{fmt.Sprintf("lane-%d", i)},
			Fn:      kfnNop,
			RateOPS: 1_000_000,
		}
		if _, err := f.Admit(spec); err != nil {
			return nil, err
		}
	}
	return func() (int64, simtime.Duration, error) {
		rep, err := f.Run(horizon)
		if err != nil {
			return 0, 0, err
		}
		var done int64
		for _, tr := range rep.Tenants {
			done += int64(tr.Completed)
		}
		if done == 0 {
			return 0, 0, fmt.Errorf("perfgate: parallel_fleet completed nothing")
		}
		return done, rep.Duration, nil
	}, nil
}

// prepareClusterRoute measures the sharded control plane's datapaths:
// routed single-shard calls (resolved once at attach, exit-less
// thereafter — same 196 ns as an unsharded call) interleaved with
// cross-shard CallMulti fan-outs over a 4-shard cluster (one gate
// crossing per owning shard, merged deterministically). Ops count
// individual manager calls; elapsed is the guest's summed simulated
// time across replicas.
func prepareClusterRoute(quick bool) (func() (int64, simtime.Duration, error), error) {
	const shards = 4
	c, err := cluster.New(cluster.Config{Shards: shards, Seed: 7, PhysBytes: 32 * 1024 * 1024})
	if err != nil {
		return nil, err
	}
	if err := c.RegisterFunc(kfnNop, func(*core.CallContext) (uint64, error) { return 0, nil }); err != nil {
		return nil, err
	}
	objs := make([]string, shards)
	for i := range objs {
		objs[i] = fmt.Sprintf("route-%d", i)
		if err := c.Ring().Pin(objs[i], i); err != nil {
			return nil, err
		}
		if _, err := c.CreateObject(objs[i], mem.PageSize); err != nil {
			return nil, err
		}
	}
	g, err := c.NewGuest("route-guest", 16*mem.PageSize)
	if err != nil {
		return nil, err
	}
	handles := make([]*cluster.Handle, shards)
	for i, name := range objs {
		h, err := g.Attach(name) // routing slow path + warm slot, outside the window
		if err != nil {
			return nil, err
		}
		if _, err := h.Call(kfnNop); err != nil {
			return nil, err
		}
		handles[i] = h
	}
	singles := scale(quick, 4000, 200)
	batches := scale(quick, 500, 25)
	reqs := make([]cluster.MultiReq, shards)
	return func() (int64, simtime.Duration, error) {
		start := g.Elapsed()
		for i := 0; i < singles; i++ {
			if _, err := handles[i%shards].Call(kfnNop); err != nil {
				return 0, 0, err
			}
		}
		for b := 0; b < batches; b++ {
			for i := range reqs {
				reqs[i] = cluster.MultiReq{Object: objs[i], Fn: kfnNop}
			}
			if err := g.CallMulti(reqs); err != nil {
				return 0, 0, err
			}
			for i := range reqs {
				if reqs[i].Err != nil {
					return 0, 0, reqs[i].Err
				}
			}
		}
		return int64(singles + batches*shards), g.Elapsed() - start, nil
	}, nil
}

// prepareRebalanceConverge measures the auto-rebalancing control loop
// end to end: the committed skewed trace (four tenants, every object
// pinned on shard 0 of 4) replayed with the rebalancer armed, over the
// exit-less ring datapath. Ops are completed operations; elapsed is the
// replay horizon. The kernel errors if the controller never migrates —
// a bench of the control plane has to exercise the control plane — and,
// at full scale, if the final imbalance misses the convergence target.
func prepareRebalanceConverge(quick bool) (func() (int64, simtime.Duration, error), error) {
	specs, err := workload.RebalanceSpecs()
	if err != nil {
		return nil, err
	}
	tr, err := workload.RebalanceTrace()
	if err != nil {
		return nil, err
	}
	horizon := workload.RebalanceHorizon
	events := tr.Events
	if quick {
		// Half the horizon: the three migrations land by tick 3 (120 µs),
		// so the loop is still fully exercised — only the converged tail
		// is shorter.
		horizon = workload.RebalanceHorizon / 2
		cut := 0
		for cut < len(events) && simtime.Duration(events[cut].At) < horizon {
			cut++
		}
		events = events[:cut]
	}
	c, err := cluster.New(cluster.Config{Shards: 4, Seed: 11})
	if err != nil {
		return nil, err
	}
	if err := c.RegisterFunc(workload.RebalanceFn, func(*core.CallContext) (uint64, error) { return 0, nil }); err != nil {
		return nil, err
	}
	for _, sp := range specs {
		for _, obj := range sp.Objects {
			if err := c.Ring().Pin(obj, 0); err != nil {
				return nil, err
			}
			if _, err := c.CreateObject(obj, mem.PageSize); err != nil {
				return nil, err
			}
		}
	}
	f, err := c.NewFleet(cluster.FleetConfig{
		Config:    fleet.Config{Cores: 2, Seed: 42, QueueDepth: 32, RingDepth: 16},
		Rebalance: &cluster.RebalanceConfig{},
	})
	if err != nil {
		return nil, err
	}
	for _, sp := range specs {
		ts, err := fleet.SpecFromWorkload(sp, 42)
		if err != nil {
			return nil, err
		}
		if _, err := f.Admit(ts); err != nil {
			return nil, err
		}
	}
	return func() (int64, simtime.Duration, error) {
		rep, err := f.Replay(&workload.Trace{Events: events}, horizon)
		if err != nil {
			return 0, 0, err
		}
		st := c.Stats()
		if st.Rebalances == 0 {
			return 0, 0, fmt.Errorf("perfgate: rebalance_converge executed no migrations")
		}
		if !quick && st.Imbalance > 1.25 {
			return 0, 0, fmt.Errorf("perfgate: rebalance_converge finished at imbalance %.3f, want <= 1.25", st.Imbalance)
		}
		var done int64
		for _, t := range rep.Tenants {
			done += int64(t.Completed)
		}
		if done == 0 {
			return 0, 0, fmt.Errorf("perfgate: rebalance_converge completed nothing")
		}
		return done, rep.Duration, nil
	}, nil
}

// Kernels returns the bench-kernel registry in snapshot order.
func Kernels() []Kernel {
	return []Kernel{
		{ID: "call_rtt", Title: "ELISA gate call round trip (per-op path)", Prepare: prepareCallRTT},
		{ID: "vmcall_rtt", Title: "VMCALL hypercall round trip (exit-ful baseline)", Prepare: prepareVMCallRTT},
		{ID: "ring_flush", Title: "call ring, guest-flushed 32-op batches", Prepare: prepareRingFlush},
		{ID: "ring_poller", Title: "call ring, manager-poller drained (exit-less)", Prepare: prepareRingPoller},
		{ID: "exchange_put", Title: "exchange-buffer put + consuming call", Prepare: prepareExchangePut},
		{ID: "fleet_mix", Title: "4-tenant fleet on 2 cores over rings", Prepare: prepareFleetMix},
		{ID: "parallel_fleet", Title: "8-tenant 4-shard fleet through parallel lanes", Prepare: prepareParallelFleet},
		{ID: "cluster_route", Title: "routed calls + 4-shard CallMulti fan-out", Prepare: prepareClusterRoute},
		{ID: "rebalance_converge", Title: "auto-rebalancer convergence on the committed skewed trace", Prepare: prepareRebalanceConverge},
	}
}

// Measure prepares one kernel, runs its body, and derives the
// KernelResult: the simulated figures come from the kernel's
// deterministic clock; wall time and allocations come from one
// instrumented host run (testing.B-style Mallocs-delta accounting
// around a single pass, which is exact for fixed-op kernels and keeps
// CI time bounded). Fixture construction happens in Prepare, outside
// the per-op window, so allocs_per_op is the steady-state per-op
// figure — a kernel whose hot path is allocation-free reads 0.0 here.
// Prepare is measured on its own window: the heap bytes it allocates
// (setup_bytes) and its wall time (setup_wall_ns).
func Measure(k Kernel, quick bool) (KernelResult, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	setupStart := time.Now()
	run, err := k.Prepare(quick)
	setupWall := time.Since(setupStart)
	runtime.ReadMemStats(&after)
	if err != nil {
		return KernelResult{}, fmt.Errorf("perfgate: kernel %s: %w", k.ID, err)
	}
	setupBytes := after.TotalAlloc - before.TotalAlloc
	runtime.GC()
	runtime.ReadMemStats(&before)
	wallStart := time.Now()
	ops, elapsed, err := run()
	wall := time.Since(wallStart)
	runtime.ReadMemStats(&after)
	if err != nil {
		return KernelResult{}, fmt.Errorf("perfgate: kernel %s: %w", k.ID, err)
	}
	if ops <= 0 || elapsed <= 0 {
		return KernelResult{}, fmt.Errorf("perfgate: kernel %s: degenerate run (ops=%d, elapsed=%d)", k.ID, ops, elapsed)
	}
	simSecs := float64(elapsed) / 1e9
	return KernelResult{
		ID:              k.ID,
		Title:           k.Title,
		SimOps:          ops,
		SimElapsedNS:    int64(elapsed),
		SimOpsPerSec:    float64(ops) / simSecs,
		WallNsPerSimSec: float64(wall.Nanoseconds()) / simSecs,
		AllocsPerOp:     float64(after.Mallocs-before.Mallocs) / float64(ops),
		SetupBytes:      int64(setupBytes),
		SetupWallNS:     setupWall.Nanoseconds(),
	}, nil
}

// MeasureAll runs every registered kernel and assembles a snapshot.
func MeasureAll(quick bool) (*Bench, error) {
	b := &Bench{Schema: SchemaVersion, Quick: quick}
	for _, k := range Kernels() {
		r, err := Measure(k, quick)
		if err != nil {
			return nil, err
		}
		b.Kernels = append(b.Kernels, r)
	}
	return b, nil
}
