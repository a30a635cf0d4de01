package perfgate

import (
	"fmt"
	"runtime"
	"time"

	"github.com/elisa-go/elisa/internal/cluster"
	"github.com/elisa-go/elisa/internal/core"
	"github.com/elisa-go/elisa/internal/cpu"
	"github.com/elisa-go/elisa/internal/des"
	"github.com/elisa-go/elisa/internal/ept"
	"github.com/elisa-go/elisa/internal/fleet"
	"github.com/elisa-go/elisa/internal/hv"
	"github.com/elisa-go/elisa/internal/mem"
	"github.com/elisa-go/elisa/internal/obs"
	"github.com/elisa-go/elisa/internal/overload"
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

// prepareRingPollerSparse measures the manager poller where most of its
// ring visits find nothing: eight guests each hold a ring, and one
// descriptor is queued per DrainRings pass, round-robin over the guests
// — about the one descriptor per crossing of a fleet whose poller runs
// after every quantum. Each pass visits all eight rings twice (the
// budget is never used up), so the wall figure is dominated by idle
// visits. Ops are descriptors; elapsed is the manager clock, which pays
// for every visit.
func prepareRingPollerSparse(quick bool) (func() (int64, simtime.Duration, error), error) {
	f, err := newKernelFixture()
	if err != nil {
		return nil, err
	}
	const guests = 8
	vcpus := []*cpu.VCPU{f.vm.VCPU()}
	rc, err := f.h.Ring(f.vm.VCPU(), core.RingConfig{Depth: 64, Deadline: simtime.Duration(1) << 40})
	if err != nil {
		return nil, err
	}
	rings := []*core.RingCaller{rc}
	for i := 1; i < guests; i++ {
		vm, err := f.hv.CreateVM(fmt.Sprintf("perf-guest-%d", i), 16*mem.PageSize)
		if err != nil {
			return nil, err
		}
		g, err := core.NewGuest(vm, f.mgr)
		if err != nil {
			return nil, err
		}
		h, err := g.Attach("perf")
		if err != nil {
			return nil, err
		}
		rc, err := h.Ring(vm.VCPU(), core.RingConfig{Depth: 64, Deadline: simtime.Duration(1) << 40})
		if err != nil {
			return nil, err
		}
		vcpus = append(vcpus, vm.VCPU())
		rings = append(rings, rc)
	}
	var comps [1]shm.Comp
	// pass queues descriptor i on guest i mod 8's ring, runs one poller
	// pass and polls the completion back.
	pass := func(i int) error {
		v, rc := vcpus[i%guests], rings[i%guests]
		if err := rc.Submit(v, kfnNop, uint64(i)); err != nil {
			return err
		}
		if n, err := f.mgr.DrainRings(64); err != nil {
			return err
		} else if n != 1 {
			return fmt.Errorf("perfgate: ring_poller_sparse pass drained %d descriptors, want 1", n)
		}
		if n, err := rc.Poll(v, comps[:]); err != nil {
			return err
		} else if n != 1 {
			return fmt.Errorf("perfgate: ring_poller_sparse polled %d completions, want 1", n)
		}
		return nil
	}
	for i := 0; i < guests; i++ { // warm every ring once
		if err := pass(i); err != nil {
			return nil, err
		}
	}
	ops := scale(quick, 8192, 512)
	clk := f.mgr.VM().VCPU().Clock()
	return func() (int64, simtime.Duration, error) {
		start := clk.Now()
		for i := 0; i < ops; i++ {
			if err := pass(i); err != nil {
				return 0, 0, err
			}
		}
		return int64(ops), clk.Elapsed(start), nil
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
	return prepareFleet(quick, false)
}

// prepareFleetObserved is fleet_mix with observation armed: a flight
// recorder on the manager (causal chains, ring-batch and latency
// series) and a decision trace on the scheduler. Observation charges no
// simulated time, so its sim figures equal fleet_mix's; the difference
// in host time is what emitting costs per op.
func prepareFleetObserved(quick bool) (func() (int64, simtime.Duration, error), error) {
	return prepareFleet(quick, true)
}

// prepareFleet builds fleet_mix's machine and fleet, observed or not.
func prepareFleet(quick, observed bool) (func() (int64, simtime.Duration, error), error) {
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
	cfg := fleet.Config{
		Cores: 2, Seed: 42, QueueDepth: 64,
		RingDepth: 64, PollBudget: 64,
	}
	if observed {
		mgr.SetRecorder(obs.NewRecorder(obs.Config{}))
		cfg.Decisions = overload.NewDecisionTrace(0)
	}
	s, err := fleet.New(h, mgr, cfg)
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
		if err := s.Run(horizon); err != nil {
			return 0, 0, err
		}
		rep := s.Snapshot()
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
		Rebalance: true,
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

// prepareDESStep measures the event core alone: 16 servers behind one
// FIFO queue at 90 % load, each request an arrival pulled from a
// source plus a completion scheduled on the heap. The arrival gaps come
// from a fixed xorshift stream, so nothing else runs between events.
// The fixture runs the workload once to grow the heap, so the measured
// pass reads the steady-state cost. An event is true when a request
// finishes service and false when one arrives. Ops are events fired;
// elapsed is the simulated span they cover.
func prepareDESStep(quick bool) (func() (int64, simtime.Duration, error), error) {
	const servers, service = 16, 1_600 // one completion per 100ns at full load
	requests := scale(quick, 1_000_000, 100_000)
	var (
		sim          *des.Sim[bool]
		idle, queued = servers, 0
		pulled       int
		at           simtime.Time
		x            uint64
	)
	src := func() (simtime.Time, bool, bool) {
		if pulled == requests {
			return 0, false, false
		}
		pulled++
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		at = at.Add(simtime.Duration(x % 223)) // mean gap 111ns
		return at, false, true
	}
	sim = des.New(func(_ simtime.Time, done bool) {
		switch {
		case done && queued > 0:
			queued-- // the freed server takes the oldest waiting request
		case done:
			idle++
			return
		case idle == 0:
			queued++
			return
		default:
			idle--
		}
		_ = sim.After(service, true)
	})
	run := func() (int64, simtime.Duration, error) {
		pulled, at, x = 0, sim.Now(), 88172645463325252
		fired, start := sim.Fired(), sim.Now()
		sim.Pull(src)
		sim.Run()
		if queued != 0 || idle != servers {
			return 0, 0, fmt.Errorf("perfgate: des_step left %d queued, %d of %d servers idle", queued, idle, servers)
		}
		return int64(sim.Fired() - fired), sim.Now().Sub(start), nil
	}
	if _, _, err := run(); err != nil {
		return nil, err
	}
	return run, nil
}

// prepareTLBWalk is the ept/TLB layer alone: one guest loads one word
// per page, first over a working set the TLB holds (every load a hit),
// then over a disjoint one four times larger that overflows it (every
// load a miss and a four-level EPT walk).
func prepareTLBWalk(quick bool) (func() (int64, simtime.Duration, error), error) {
	const hot = ept.DefaultTLBCapacity * 2 / 3 // 1024 pages
	const cold = 4 * hot
	h, err := hv.New(hv.Config{PhysBytes: 64 * 1024 * 1024})
	if err != nil {
		return nil, err
	}
	vm, err := h.CreateVM("tlb-guest", (hot+cold)*mem.PageSize)
	if err != nil {
		return nil, err
	}
	v := vm.VCPU()
	walk := func(first, pages int) error {
		for p := first; p < first+pages; p++ {
			if _, err := v.ReadU64GPA(mem.GPA(p * mem.PageSize)); err != nil {
				return err
			}
		}
		return nil
	}
	// One overflowing pass grows the TLB's eviction ring to its steady
	// size, so the measured runs allocate nothing.
	if err := walk(hot, cold); err != nil {
		return nil, err
	}
	passes := scale(quick, 20, 2)
	return func() (int64, simtime.Duration, error) {
		// Start every run from the same TLB: the hot set, loaded
		// before the measured span.
		v.TLB().Flush()
		if err := walk(0, hot); err != nil {
			return 0, 0, err
		}
		start := v.Clock().Now()
		for i := 0; i < passes; i++ {
			if err := walk(0, hot); err != nil {
				return 0, 0, err
			}
		}
		for i := 0; i < passes; i++ {
			if err := walk(hot, cold); err != nil {
				return 0, 0, err
			}
		}
		return int64(passes * (hot + cold)), v.Clock().Elapsed(start), nil
	}, nil
}

// prepareMemBoot is the mem layer: Prepare boots a 512 MiB machine and
// one guest, so setup_bytes reads what that boot costs the host (the
// frame allocator, the chunk index, the guest's EPT, vCPU and backed
// RAM). The body has the guest write one word per page of its RAM, more
// pages than the TLB holds, so every write walks the EPT to the frame.
// Two passes in Prepare grow the TLB's eviction ring to its steady size
// (it runs to twice the TLB's capacity before it compacts), so the
// measured pass allocates nothing.
func prepareMemBoot(quick bool) (func() (int64, simtime.Duration, error), error) {
	pages := scale(quick, 16384, 2048)
	h, err := hv.New(hv.Config{PhysBytes: 512 * 1024 * 1024})
	if err != nil {
		return nil, err
	}
	vm, err := h.CreateVM("mem-guest", pages*mem.PageSize)
	if err != nil {
		return nil, err
	}
	v := vm.VCPU()
	run := func() (int64, simtime.Duration, error) {
		start := v.Clock().Now()
		for p := 0; p < pages; p++ {
			if err := v.WriteU64GPA(mem.GPA(p*mem.PageSize), uint64(p)); err != nil {
				return 0, 0, err
			}
		}
		return int64(pages), v.Clock().Elapsed(start), nil
	}
	for i := 0; i < 2; i++ {
		if _, _, err := run(); err != nil {
			return nil, err
		}
	}
	return run, nil
}

// Kernels returns the bench-kernel registry in snapshot order.
func Kernels() []Kernel {
	return []Kernel{
		{ID: "call_rtt", Title: "ELISA gate call round trip (per-op path)", Prepare: prepareCallRTT},
		{ID: "vmcall_rtt", Title: "VMCALL hypercall round trip (exit-ful baseline)", Prepare: prepareVMCallRTT},
		{ID: "ring_flush", Title: "call ring, guest-flushed 32-op batches", Prepare: prepareRingFlush},
		{ID: "ring_poller", Title: "call ring, manager-poller drained (exit-less)", Prepare: prepareRingPoller},
		{ID: "ring_poller_sparse", Title: "manager poller over 8 guests' rings, one descriptor per pass", Prepare: prepareRingPollerSparse},
		{ID: "exchange_put", Title: "exchange-buffer put + consuming call", Prepare: prepareExchangePut},
		{ID: "fleet_mix", Title: "4-tenant fleet on 2 cores over rings", Prepare: prepareFleetMix},
		{ID: "fleet_observed", Title: "fleet_mix with a flight recorder and a decision trace armed", Prepare: prepareFleetObserved},
		{ID: "parallel_fleet", Title: "8-tenant 4-shard fleet through parallel lanes", Prepare: prepareParallelFleet},
		{ID: "cluster_route", Title: "routed calls + 4-shard CallMulti fan-out", Prepare: prepareClusterRoute},
		{ID: "rebalance_converge", Title: "auto-rebalancer convergence on the committed skewed trace", Prepare: prepareRebalanceConverge},
		{ID: "des_step", Title: "event core alone: pulled arrivals and heap completions, 16 servers", Prepare: prepareDESStep},
		{ID: "tlb_walk", Title: "one word per page: a TLB-resident set, then a 4x set of EPT walks", Prepare: prepareTLBWalk},
		{ID: "mem_boot", Title: "boot a 512 MiB machine and one guest, then one word written per page", Prepare: prepareMemBoot},
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
