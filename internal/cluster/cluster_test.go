package cluster

import (
	"fmt"
	"strings"
	"testing"

	"github.com/elisa-go/elisa/internal/core"
	"github.com/elisa-go/elisa/internal/fault"
	"github.com/elisa-go/elisa/internal/fleet"
	"github.com/elisa-go/elisa/internal/obs"
	"github.com/elisa-go/elisa/internal/shm"
	"github.com/elisa-go/elisa/internal/simtime"
)

const fnNop = 1

var observeCfg = obs.Config{SampleEvery: 1, CausalEvents: 256}

func newTestCluster(t *testing.T, shards int, seed int64) *Cluster {
	t.Helper()
	c, err := New(Config{Shards: shards, Seed: seed, PhysBytes: 32 * 1024 * 1024})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := c.RegisterFunc(fnNop, func(*core.CallContext) (uint64, error) { return 0, nil }); err != nil {
		t.Fatalf("RegisterFunc: %v", err)
	}
	return c
}

// TestClusterPlacementDeterministic: two rings built from the same
// (Seed, Shards, VirtualNodes) agree on every owner; a different seed
// produces a different placement; pins override and Unpin reverts.
func TestClusterPlacementDeterministic(t *testing.T) {
	mk := func(seed int64) *PlacementRing {
		r, err := NewPlacementRing(PlacementConfig{Shards: 8, Seed: seed})
		if err != nil {
			t.Fatalf("NewPlacementRing: %v", err)
		}
		return r
	}
	a, b, c := mk(42), mk(42), mk(43)
	counts := make([]int, 8)
	moved := 0
	for i := 0; i < 1000; i++ {
		name := fmt.Sprintf("obj-%d", i)
		oa, ob := a.Owner(name), b.Owner(name)
		if oa != ob {
			t.Fatalf("same-seed rings disagree on %q: %d vs %d", name, oa, ob)
		}
		counts[oa]++
		if c.Owner(name) != oa {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("different seeds produced identical placements")
	}
	for s, n := range counts {
		if n == 0 {
			t.Fatalf("shard %d got no objects across 1000 placements", s)
		}
	}

	hashOwner := a.Owner("pinned-obj")
	pinTo := (hashOwner + 1) % 8
	if err := a.Pin("pinned-obj", pinTo); err != nil {
		t.Fatalf("Pin: %v", err)
	}
	if got := a.Owner("pinned-obj"); got != pinTo {
		t.Fatalf("pinned owner = %d, want %d", got, pinTo)
	}
	if s, ok := a.Pinned("pinned-obj"); !ok || s != pinTo {
		t.Fatalf("Pinned = (%d,%v), want (%d,true)", s, ok, pinTo)
	}
	a.Unpin("pinned-obj")
	if got := a.Owner("pinned-obj"); got != hashOwner {
		t.Fatalf("after Unpin owner = %d, want hash owner %d", got, hashOwner)
	}
	if err := a.Pin("x", 8); err == nil {
		t.Fatal("Pin out of range succeeded")
	}
	if _, err := NewPlacementRing(PlacementConfig{Shards: 0}); err == nil {
		t.Fatal("0-shard ring succeeded")
	}
}

// TestClusterRoutedCallCost: the routing slow path runs at attach time;
// after that a routed call through any shard costs exactly the
// calibrated exit-less round trip — 196 ns, same as an unsharded call.
func TestClusterRoutedCallCost(t *testing.T) {
	c := newTestCluster(t, 4, 7)
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("obj-%d", i)
		if err := c.Ring().Pin(name, i); err != nil {
			t.Fatalf("Pin: %v", err)
		}
		if _, err := c.CreateObject(name, 4096); err != nil {
			t.Fatalf("CreateObject: %v", err)
		}
	}
	g, err := c.NewGuest("tenant", 16*4096)
	if err != nil {
		t.Fatalf("NewGuest: %v", err)
	}
	want := c.Shard(0).Hypervisor().Cost().ELISARoundTrip()
	for i := 0; i < 4; i++ {
		h, err := g.Attach(fmt.Sprintf("obj-%d", i))
		if err != nil {
			t.Fatalf("Attach: %v", err)
		}
		if h.Shard() != i {
			t.Fatalf("obj-%d routed to shard %d, want %d", i, h.Shard(), i)
		}
		if _, err := h.Call(fnNop); err != nil { // warm: slot already bound at attach
			t.Fatalf("warm call: %v", err)
		}
		before := g.Elapsed()
		if _, err := h.Call(fnNop); err != nil {
			t.Fatalf("Call: %v", err)
		}
		if got := g.Elapsed() - before; got != want {
			t.Fatalf("routed call on shard %d cost %d ns, want exactly %d ns", i, got, want)
		}
	}
}

// TestClusterCallMultiMerge: a cross-shard batch merges back
// deterministically — results land at submission indices, group issue
// order is (shard, object) ascending, and two same-seed clusters render
// the identical result bytes.
func TestClusterCallMultiMerge(t *testing.T) {
	run := func() string {
		c := newTestCluster(t, 4, 11)
		if err := c.RegisterFunc(2, func(cc *core.CallContext) (uint64, error) {
			return cc.Args[0] * 2, nil
		}); err != nil {
			t.Fatalf("RegisterFunc: %v", err)
		}
		for i := 0; i < 4; i++ {
			name := fmt.Sprintf("obj-%d", i)
			if err := c.Ring().Pin(name, i); err != nil {
				t.Fatalf("Pin: %v", err)
			}
			if _, err := c.CreateObject(name, 4096); err != nil {
				t.Fatalf("CreateObject: %v", err)
			}
		}
		g, err := c.NewGuest("tenant", 16*4096)
		if err != nil {
			t.Fatalf("NewGuest: %v", err)
		}
		// Interleave shards in submission order: 3,1,3,0,2,1,0,2.
		order := []int{3, 1, 3, 0, 2, 1, 0, 2}
		reqs := make([]MultiReq, len(order))
		for i, s := range order {
			reqs[i] = MultiReq{Object: fmt.Sprintf("obj-%d", s), Fn: 2, Args: [4]uint64{uint64(i + 1)}}
		}
		if err := g.CallMulti(reqs); err != nil {
			t.Fatalf("CallMulti: %v", err)
		}
		for i := range reqs {
			if reqs[i].Err != nil {
				t.Fatalf("req %d: %v", i, reqs[i].Err)
			}
			if want := uint64(i+1) * 2; reqs[i].Ret != want {
				t.Fatalf("req %d: ret %d, want %d (merge misplaced a completion)", i, reqs[i].Ret, want)
			}
		}
		return fmt.Sprintf("%+v elapsed=%d", reqs, g.Elapsed())
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same-seed CallMulti runs differ:\n%s\n%s", a, b)
	}
}

// TestClusterCallMultiUnknownObject: routing fails closed on an object
// the cluster never created.
func TestClusterCallMultiUnknownObject(t *testing.T) {
	c := newTestCluster(t, 2, 1)
	g, _ := c.NewGuest("tenant", 16*4096)
	if err := g.CallMulti([]MultiReq{{Object: "ghost", Fn: fnNop}}); err == nil {
		t.Fatal("CallMulti on unknown object succeeded")
	}
	if err := g.CallMulti(nil); err == nil {
		t.Fatal("empty CallMulti succeeded")
	}
}

// TestClusterRevokeMidFanout: revocation on one shard mid-fan-out never
// strands a descriptor — queued work on the revoked shard completes
// administratively (CompErr via the failRing path), and the other
// shard's group is untouched.
func TestClusterRevokeMidFanout(t *testing.T) {
	c := newTestCluster(t, 2, 3)
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("obj-%d", i)
		if err := c.Ring().Pin(name, i); err != nil {
			t.Fatalf("Pin: %v", err)
		}
		if _, err := c.CreateObject(name, 4096); err != nil {
			t.Fatalf("CreateObject: %v", err)
		}
	}
	g, err := c.NewGuest("tenant", 16*4096)
	if err != nil {
		t.Fatalf("NewGuest: %v", err)
	}
	h0, err := g.Attach("obj-0")
	if err != nil {
		t.Fatalf("Attach obj-0: %v", err)
	}
	h1, err := g.Attach("obj-1")
	if err != nil {
		t.Fatalf("Attach obj-1: %v", err)
	}
	// Queue descriptors on both shards' rings without flushing: a long
	// deadline keeps them parked for the poller.
	rc0, err := h0.Ring(core.RingConfig{Depth: 8, Deadline: 1_000_000_000})
	if err != nil {
		t.Fatalf("Ring obj-0: %v", err)
	}
	rc1, err := h1.Ring(core.RingConfig{Depth: 8, Deadline: 1_000_000_000})
	if err != nil {
		t.Fatalf("Ring obj-1: %v", err)
	}
	for i := 0; i < 4; i++ {
		if err := rc0.Submit(h0.VCPU(), fnNop); err != nil {
			t.Fatalf("Submit shard 0: %v", err)
		}
		if err := rc1.Submit(h1.VCPU(), fnNop); err != nil {
			t.Fatalf("Submit shard 1: %v", err)
		}
	}
	// Revoke shard 0's attachment with 4 descriptors still queued.
	vm := g.VCPU(0)
	_ = vm
	if err := c.Shard(0).Manager().Revoke(g.replicas[0].vm, "obj-0"); err != nil {
		t.Fatalf("Revoke: %v", err)
	}
	if _, err := c.DrainAll(64); err != nil {
		t.Fatalf("DrainAll: %v", err)
	}
	// Shard 0: all 4 administratively failed, none stranded.
	comps := make([]shm.Comp, 8)
	n, err := rc0.Poll(h0.VCPU(), comps)
	if err != nil {
		t.Fatalf("Poll shard 0: %v", err)
	}
	if n != 4 {
		t.Fatalf("revoked ring delivered %d completions, want 4 (stranded descriptors)", n)
	}
	for i := 0; i < n; i++ {
		if comps[i].Status != shm.CompErr {
			t.Fatalf("revoked completion %d status %d, want CompErr", i, comps[i].Status)
		}
	}
	// Shard 1: all 4 served normally.
	n, err = rc1.Poll(h1.VCPU(), comps)
	if err != nil {
		t.Fatalf("Poll shard 1: %v", err)
	}
	if n != 4 {
		t.Fatalf("healthy ring delivered %d completions, want 4", n)
	}
	for i := 0; i < n; i++ {
		if comps[i].Status != shm.CompOK {
			t.Fatalf("healthy completion %d status %d, want CompOK", i, comps[i].Status)
		}
	}
	for _, sh := range c.Shards() {
		for _, rs := range sh.Manager().RingStats() {
			if rs.Queued != 0 {
				t.Fatalf("shard %d ring %s/%s still has %d queued after drain", sh.ID, rs.Guest, rs.Object, rs.Queued)
			}
		}
	}
	// A CallMulti that touches the revoked object errors on that group
	// only; the healthy shard's group still completes.
	reqs := []MultiReq{
		{Object: "obj-0", Fn: fnNop},
		{Object: "obj-1", Fn: fnNop},
	}
	if err := g.CallMulti(reqs); err != nil {
		t.Fatalf("CallMulti after revoke: %v", err)
	}
	if reqs[0].Err == nil {
		t.Fatal("call on revoked attachment succeeded")
	}
	if reqs[1].Err != nil {
		t.Fatalf("healthy group failed: %v", reqs[1].Err)
	}
}

// TestClusterMoveObject: rebalancing copies bytes, revokes source
// attachments (their rings fail closed), re-pins, and the next Attach
// routes to the destination with the data intact.
func TestClusterMoveObject(t *testing.T) {
	c := newTestCluster(t, 4, 5)
	if err := c.RegisterFunc(3, func(cc *core.CallContext) (uint64, error) {
		return uint64(cc.ObjectSize), nil
	}); err != nil {
		t.Fatalf("RegisterFunc: %v", err)
	}
	src, err := c.CreateObject("ledger", 8192)
	if err != nil {
		t.Fatalf("CreateObject: %v", err)
	}
	obj, _ := c.Shard(src).Manager().Object("ledger")
	payload := []byte("rebalance me")
	if err := obj.Region().Write(nil, 100, payload); err != nil {
		t.Fatalf("seed write: %v", err)
	}
	g, err := c.NewGuest("tenant", 16*4096)
	if err != nil {
		t.Fatalf("NewGuest: %v", err)
	}
	h, err := g.Attach("ledger")
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	if _, err := h.Call(3); err != nil {
		t.Fatalf("pre-move call: %v", err)
	}
	dst := (src + 1) % 4
	if err := c.MoveObject("ledger", dst); err != nil {
		t.Fatalf("MoveObject: %v", err)
	}
	if got := c.Owner("ledger"); got != dst {
		t.Fatalf("post-move owner %d, want %d", got, dst)
	}
	// The stale handle's shard is refused; re-attach routes to dst.
	if _, err := h.Call(3); err == nil {
		t.Fatal("call on moved-away attachment succeeded")
	}
	h2, err := g.Attach("ledger")
	if err != nil {
		t.Fatalf("re-Attach: %v", err)
	}
	if h2.Shard() != dst {
		t.Fatalf("re-attach routed to shard %d, want %d", h2.Shard(), dst)
	}
	if _, err := h2.Call(3); err != nil {
		t.Fatalf("post-move call: %v", err)
	}
	newObj, ok := c.Shard(dst).Manager().Object("ledger")
	if !ok {
		t.Fatal("object missing on destination shard")
	}
	buf := make([]byte, len(payload))
	if err := newObj.Region().Read(nil, 100, buf); err != nil {
		t.Fatalf("read moved bytes: %v", err)
	}
	if string(buf) != string(payload) {
		t.Fatalf("moved bytes %q, want %q", buf, payload)
	}
	st := c.Stats()
	if st.Moves != 1 {
		t.Fatalf("Stats.Moves = %d, want 1", st.Moves)
	}
	if err := c.MoveObject("ledger", dst); err != nil {
		t.Fatalf("no-op move errored: %v", err)
	}
	if err := c.MoveObject("ghost", 0); err == nil {
		t.Fatal("moving unknown object succeeded")
	}
	if err := c.MoveObject("ledger", 99); err == nil {
		t.Fatal("moving to out-of-range shard succeeded")
	}
}

func admitFleetTenants(t *testing.T, c *Cluster, f *Fleet, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		spec := fleet.TenantSpec{
			Name:    fmt.Sprintf("tenant-%02d", i),
			Objects: []string{fmt.Sprintf("obj-%d", i%4)},
			Fn:      fnNop,
			RateOPS: 500_000,
		}
		if _, err := f.Admit(spec); err != nil {
			t.Fatalf("Admit %s: %v", spec.Name, err)
		}
	}
}

// TestClusterFleetShardCountInvariance: with every object pinned to
// shard 0, the merged report is byte-identical at 1 and 8 shards — the
// shard count changes capacity, never the simulation of the work that
// lands on a shard.
func TestClusterFleetShardCountInvariance(t *testing.T) {
	run := func(shards int) string {
		c := newTestCluster(t, shards, 19)
		for i := 0; i < 4; i++ {
			name := fmt.Sprintf("obj-%d", i)
			if err := c.Ring().Pin(name, 0); err != nil {
				t.Fatalf("Pin: %v", err)
			}
			if _, err := c.CreateObject(name, 4096); err != nil {
				t.Fatalf("CreateObject: %v", err)
			}
		}
		f, err := c.NewFleet(FleetConfig{Config: fleet.Config{Seed: 42, Cores: 2}})
		if err != nil {
			t.Fatalf("NewFleet: %v", err)
		}
		admitFleetTenants(t, c, f, 6)
		rep, err := f.Run(2_000_000) // 2 ms simulated
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return fmt.Sprintf("%+v", rep)
	}
	one, eight := run(1), run(8)
	if one != eight {
		t.Fatalf("reports differ between 1 and 8 shards:\n--- 1 shard\n%s\n--- 8 shards\n%s", one, eight)
	}
}

// TestClusterFleetSameSeedIdentical: repeated same-seed runs at a fixed
// shard count render byte-identical merged reports (objects spread over
// all shards this time, so the interleaved scheduler is exercised).
func TestClusterFleetSameSeedIdentical(t *testing.T) {
	run := func() string {
		c := newTestCluster(t, 4, 23)
		for i := 0; i < 4; i++ {
			name := fmt.Sprintf("obj-%d", i)
			if err := c.Ring().Pin(name, i); err != nil {
				t.Fatalf("Pin: %v", err)
			}
			if _, err := c.CreateObject(name, 4096); err != nil {
				t.Fatalf("CreateObject: %v", err)
			}
		}
		f, err := c.NewFleet(FleetConfig{Config: fleet.Config{Seed: 42, Cores: 2}})
		if err != nil {
			t.Fatalf("NewFleet: %v", err)
		}
		admitFleetTenants(t, c, f, 8)
		rep, err := f.Run(2_000_000)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return fmt.Sprintf("%+v\n%+v", rep, c.Stats())
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same-seed cluster fleet runs differ:\n%s\n---\n%s", a, b)
	}
}

// TestClusterFleetSpanningTenantRefused: a tenant whose working set
// spans shards is refused at admission (per-call fleet datapaths are
// shard-local by design).
func TestClusterFleetSpanningTenantRefused(t *testing.T) {
	c := newTestCluster(t, 2, 29)
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("obj-%d", i)
		if err := c.Ring().Pin(name, i); err != nil {
			t.Fatalf("Pin: %v", err)
		}
		if _, err := c.CreateObject(name, 4096); err != nil {
			t.Fatalf("CreateObject: %v", err)
		}
	}
	f, err := c.NewFleet(FleetConfig{Config: fleet.Config{Seed: 1}})
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	if _, err := f.Admit(fleet.TenantSpec{Name: "t", Objects: []string{"obj-0", "obj-1"}, Fn: fnNop, RateOPS: 1000}); err == nil {
		t.Fatal("cross-shard tenant admitted")
	}
	if _, err := f.Run(1000); err == nil {
		t.Fatal("empty fleet ran")
	}
}

// TestClusterFleetFaultPlanFleetTime: fault-plan times are fleet time,
// not window time. Twelve asynchronous injections spread over 1.5 ms all
// fire in a 2 ms run whether it runs as 40 µs windows (the default
// Slice) or as one window.
func TestClusterFleetFaultPlanFleetTime(t *testing.T) {
	plan := &fault.Plan{Seed: 1}
	for i := 0; i < 12; i++ {
		class := fault.ClassEPTPCorrupt
		if i%2 == 1 {
			class = fault.ClassSlotStorm
		}
		plan.Injections = append(plan.Injections, fault.Injection{
			Seq: i, At: simtime.Time(125_000 * (i + 1)), Class: class,
			Guest: fmt.Sprintf("tenant-%02d", i%2), Count: 1, Arg: uint64(i),
		})
	}
	for _, slice := range []simtime.Duration{0, 2_000_000} {
		c := newTestCluster(t, 1, 5)
		for i := 0; i < 2; i++ {
			if _, err := c.CreateObject(fmt.Sprintf("obj-%d", i), 4096); err != nil {
				t.Fatalf("CreateObject: %v", err)
			}
		}
		f, err := c.NewFleet(FleetConfig{Config: fleet.Config{Seed: 7, Cores: 2, Faults: plan}, Slice: slice})
		if err != nil {
			t.Fatalf("NewFleet: %v", err)
		}
		admitFleetTenants(t, c, f, 2)
		rep, err := f.Run(2_000_000)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if rep.FaultsFired != 12 || rep.FaultsPending != 0 {
			t.Errorf("Slice %d: %d injections fired, %d pending; want all 12 fired",
				slice, rep.FaultsFired, rep.FaultsPending)
		}
	}

	// A shard first populated after an earlier run reads the same fleet
	// clock: injections due after 1 ms fire during the second 1 ms run.
	late := &fault.Plan{Seed: 2}
	for i := 0; i < 6; i++ {
		late.Injections = append(late.Injections, fault.Injection{
			Seq: i, At: simtime.Time(1_100_000 + 50_000*i), Class: fault.ClassSlotStorm,
			Guest: "tenant-01", Count: 1, Arg: uint64(i),
		})
	}
	c := newTestCluster(t, 2, 5)
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("obj-%d", i)
		if err := c.Ring().Pin(name, i); err != nil {
			t.Fatalf("Pin: %v", err)
		}
		if _, err := c.CreateObject(name, 4096); err != nil {
			t.Fatalf("CreateObject: %v", err)
		}
	}
	f, err := c.NewFleet(FleetConfig{Config: fleet.Config{Seed: 7, Faults: late}, FaultShard: 1})
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	admitFleetTenants(t, c, f, 1) // tenant-00 on shard 0
	if _, err := f.Run(1_000_000); err != nil {
		t.Fatalf("Run 1: %v", err)
	}
	if _, err := f.Admit(fleet.TenantSpec{Name: "tenant-01", Objects: []string{"obj-1"}, Fn: fnNop, RateOPS: 500_000}); err != nil {
		t.Fatalf("Admit: %v", err)
	}
	rep, err := f.Run(1_000_000)
	if err != nil {
		t.Fatalf("Run 2: %v", err)
	}
	if rep.FaultsFired != 6 || rep.FaultsPending != 0 {
		t.Errorf("late shard: %d injections fired, %d pending; want all 6 fired", rep.FaultsFired, rep.FaultsPending)
	}
}

// TestClusterRebalanceUnderChaos: with the fault injector armed on one
// shard (the fault domain), a rebalance mid-run stays consistent — Fsck
// is clean on every shard afterwards, no descriptor is stranded, and the
// whole chaotic trajectory is reproducible from the seed.
func TestClusterRebalanceUnderChaos(t *testing.T) {
	run := func() string {
		c := newTestCluster(t, 4, 31)
		for i := 0; i < 8; i++ {
			name := fmt.Sprintf("obj-%d", i)
			if err := c.Ring().Pin(name, i%4); err != nil {
				t.Fatalf("Pin: %v", err)
			}
			if _, err := c.CreateObject(name, 4096); err != nil {
				t.Fatalf("CreateObject: %v", err)
			}
		}
		plan, err := fault.NewPlan(fault.PlanConfig{
			Seed:    99,
			Horizon: 800_000,
			N:       12,
			Guests:  []string{"tenant-01", "tenant-05"}, // shard 1's tenants
		})
		if err != nil {
			t.Fatalf("NewPlan: %v", err)
		}
		f, err := c.NewFleet(FleetConfig{
			Config:     fleet.Config{Seed: 7, Cores: 2, Faults: plan},
			Slice:      1_000_000,
			FaultShard: 1,
		})
		if err != nil {
			t.Fatalf("NewFleet: %v", err)
		}
		for i := 0; i < 8; i++ {
			spec := fleet.TenantSpec{
				Name:    fmt.Sprintf("tenant-%02d", i),
				Objects: []string{fmt.Sprintf("obj-%d", i)},
				Fn:      fnNop,
				RateOPS: 500_000,
			}
			if _, err := f.Admit(spec); err != nil {
				t.Fatalf("Admit: %v", err)
			}
		}
		if _, err := f.Run(1_000_000); err != nil {
			t.Fatalf("Run 1: %v", err)
		}
		// Rebalance an un-faulted shard's object mid-chaos: obj-2 lives on
		// shard 2 (no injector), moves into the fault domain.
		if err := c.MoveObject("obj-2", 1); err != nil {
			t.Fatalf("MoveObject: %v", err)
		}
		if _, err := f.Run(1_000_000); err != nil {
			t.Fatalf("Run 2: %v", err)
		}
		for _, sh := range c.Shards() {
			if err := sh.Manager().Fsck(); err != nil {
				t.Fatalf("shard %d Fsck after chaos+rebalance: %v", sh.ID, err)
			}
			for _, rs := range sh.Manager().RingStats() {
				if rs.Queued != 0 {
					t.Fatalf("shard %d stranded %d descriptors", sh.ID, rs.Queued)
				}
			}
		}
		rep := f.Snapshot()
		if rep.FaultsFired == 0 {
			t.Fatal("fault plan never fired; chaos test is vacuous")
		}
		return fmt.Sprintf("%+v\n%+v", rep, c.Stats())
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("chaotic rebalance not reproducible:\n%s\n---\n%s", a, b)
	}
}

// TestClusterStats: per-shard accounting and the imbalance ratio.
func TestClusterStats(t *testing.T) {
	c := newTestCluster(t, 2, 13)
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("obj-%d", i)
		if err := c.Ring().Pin(name, i); err != nil {
			t.Fatalf("Pin: %v", err)
		}
		if _, err := c.CreateObject(name, 4096); err != nil {
			t.Fatalf("CreateObject: %v", err)
		}
	}
	g, _ := c.NewGuest("tenant", 16*4096)
	h, err := g.Attach("obj-0")
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	for i := 0; i < 10; i++ {
		if _, err := h.Call(fnNop); err != nil {
			t.Fatalf("Call: %v", err)
		}
	}
	st := c.Stats()
	if len(st.Shards) != 2 || st.Objects != 2 {
		t.Fatalf("Stats = %+v, want 2 shards / 2 objects", st)
	}
	if st.Shards[0].Calls != 10 || st.Shards[1].Calls != 0 {
		t.Fatalf("calls = %d/%d, want 10/0", st.Shards[0].Calls, st.Shards[1].Calls)
	}
	// All load on one of two shards: max/mean = 2.
	if st.Imbalance != 2.0 {
		t.Fatalf("Imbalance = %v, want 2.0", st.Imbalance)
	}
	if st.Shards[0].Guests != 1 || st.Shards[1].Guests != 0 {
		t.Fatalf("guests = %d/%d, want 1/0", st.Shards[0].Guests, st.Shards[1].Guests)
	}
	if st.Shards[0].Occupancy <= 0 {
		t.Fatalf("shard 0 occupancy %v, want > 0", st.Shards[0].Occupancy)
	}
	desc := c.Describe()
	if !strings.Contains(desc, "shard 0: 1 objects") || !strings.Contains(desc, "shard 1: 1 objects") {
		t.Fatalf("Describe:\n%s", desc)
	}
	if _, err := New(Config{Shards: 0}); err == nil {
		t.Fatal("0-shard cluster booted")
	}
}

// TestClusterCausalShardStamp: per-shard recorders stamp their shard ID
// onto causal events.
func TestClusterCausalShardStamp(t *testing.T) {
	c, err := New(Config{
		Shards: 2, Seed: 3, PhysBytes: 32 * 1024 * 1024,
		Observe: &observeCfg,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := c.RegisterFunc(fnNop, func(*core.CallContext) (uint64, error) { return 0, nil }); err != nil {
		t.Fatalf("RegisterFunc: %v", err)
	}
	if err := c.Ring().Pin("obj", 1); err != nil {
		t.Fatalf("Pin: %v", err)
	}
	if _, err := c.CreateObject("obj", 4096); err != nil {
		t.Fatalf("CreateObject: %v", err)
	}
	g, _ := c.NewGuest("tenant", 16*4096)
	h, err := g.Attach("obj")
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	rc, err := h.Ring(core.RingConfig{Depth: 8})
	if err != nil {
		t.Fatalf("Ring: %v", err)
	}
	if err := rc.Submit(h.VCPU(), fnNop); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	events := c.Shard(1).Recorder().Causal().Events()
	if len(events) == 0 {
		t.Fatal("no causal events on the owning shard")
	}
	for _, e := range events {
		if e.Shard != 1 {
			t.Fatalf("event %s stamped shard %d, want 1", e.Kind, e.Shard)
		}
		if !strings.Contains(e.String(), " shard=1") {
			t.Fatalf("event render missing shard token: %s", e.String())
		}
	}
	if n := len(c.Shard(0).Recorder().Causal().Events()); n != 0 {
		t.Fatalf("non-owning shard recorded %d events", n)
	}
}
