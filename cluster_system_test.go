package elisa

import (
	"fmt"
	"strings"
	"testing"
)

const clusterFnNop = 0xC1A50001

// TestClusterPublicSurface is the facade-level acceptance test for the
// sharded cluster: Config.Shards boots it, System.Cluster() exposes it,
// the single-machine accessors alias shard 0, routed calls stay at the
// calibrated 196ns round trip, and CallMulti merges across shards.
func TestClusterPublicSurface(t *testing.T) {
	sys, err := NewSystem(Config{Shards: 4, ShardSeed: 11, PhysBytes: 256 * 1024 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.Cluster()
	if c == nil {
		t.Fatal("Config.Shards=4 but System.Cluster() is nil")
	}
	if c.NumShards() != 4 {
		t.Fatalf("NumShards = %d, want 4", c.NumShards())
	}
	if sys.Manager() != c.Shard(0).Manager() {
		t.Error("single-machine Manager() accessor must alias shard 0")
	}
	if err := c.RegisterFunc(clusterFnNop, func(*CallContext) (uint64, error) { return 7, nil }); err != nil {
		t.Fatal(err)
	}
	objs := make([]string, 8)
	for i := range objs {
		objs[i] = fmt.Sprintf("co-%d", i)
		if _, err := c.CreateObject(objs[i], PageSize); err != nil {
			t.Fatal(err)
		}
	}
	g, err := c.NewGuest("facade-guest", 16*PageSize)
	if err != nil {
		t.Fatal(err)
	}
	// Routing resolves at attach time; every handle must land on the
	// shard the placement ring names, and the warm call must cost exactly
	// the ELISA round trip — the exit-less hot path is untouched.
	rtt := c.Shard(0).Hypervisor().Cost().ELISARoundTrip()
	for _, name := range objs {
		h, err := g.Attach(name)
		if err != nil {
			t.Fatal(err)
		}
		if h.Shard() != c.Owner(name) {
			t.Fatalf("handle for %q bound to shard %d, ring owner is %d", name, h.Shard(), c.Owner(name))
		}
		if _, err := h.Call(clusterFnNop); err != nil { // warm the slot
			t.Fatal(err)
		}
		before := g.Elapsed()
		if ret, err := h.Call(clusterFnNop); err != nil || ret != 7 {
			t.Fatalf("routed call: ret=%d err=%v", ret, err)
		}
		if d := g.Elapsed() - before; d != rtt {
			t.Fatalf("warm routed call to %q cost %dns, want exactly %dns", name, int64(d), int64(rtt))
		}
	}
	reqs := make([]MultiReq, len(objs))
	for i, name := range objs {
		reqs[i] = MultiReq{Object: name, Fn: clusterFnNop}
	}
	if err := g.CallMulti(reqs); err != nil {
		t.Fatal(err)
	}
	for i := range reqs {
		if reqs[i].Err != nil || reqs[i].Ret != 7 {
			t.Fatalf("CallMulti req %d: ret=%d err=%v", i, reqs[i].Ret, reqs[i].Err)
		}
	}
	st := c.Stats()
	if st.Objects != len(objs) {
		t.Errorf("cluster stats: %d objects, want %d", st.Objects, len(objs))
	}
	var calls uint64
	for _, ss := range st.Shards {
		calls += ss.Calls
	}
	if want := uint64(3 * len(objs)); calls != want { // warm + timed + multi per object
		t.Errorf("cluster stats: %d calls across shards, want %d", calls, want)
	}
}

// TestClusterMetricsExported: a sharded system must export the
// shard-labelled elisa_cluster_* series alongside the existing
// single-machine families.
func TestClusterMetricsExported(t *testing.T) {
	sys, err := NewSystem(Config{Shards: 2, PhysBytes: 64 * 1024 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.Cluster()
	if err := c.RegisterFunc(clusterFnNop, func(*CallContext) (uint64, error) { return 0, nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateObject("mo-0", PageSize); err != nil {
		t.Fatal(err)
	}
	g, err := c.NewGuest("metrics-guest", 16*PageSize)
	if err != nil {
		t.Fatal(err)
	}
	h, err := g.Attach("mo-0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Call(clusterFnNop); err != nil {
		t.Fatal(err)
	}
	text := sys.Metrics().Prometheus()
	for _, want := range []string{
		"elisa_cluster_shards", "elisa_cluster_imbalance_ratio", "elisa_cluster_moves_total",
		"elisa_cluster_goodput_ops", "elisa_cluster_occupancy_ratio", "elisa_cluster_objects",
		"elisa_cluster_guests", "elisa_cluster_calls_total", "elisa_cluster_slot_remaps_total",
		`shard="1"`, // the per-shard families carry the shard label
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("cluster metric %q missing from export:\n%s", want, text)
		}
	}
	// Every shard reports its own resident memory, not only shard 0.
	for _, sh := range c.Shards() {
		want := fmt.Sprintf(`elisa_mem_resident_bytes{shard="%d"} %d`, sh.ID, sh.Hypervisor().Phys().ResidentBytes())
		if sh.Hypervisor().Phys().ResidentBytes() == 0 || !strings.Contains(text, want) {
			t.Errorf("export lacks %q", want)
		}
	}
	if _, err := sys.Metrics().JSON(); err != nil {
		t.Fatalf("JSON export: %v", err)
	}
}

// TestClusterZeroConfigIsOneShard: a zero Config boots a 1-shard cluster;
// the single-machine accessors return shard 0's objects and the export
// labels every per-machine sample shard="0".
func TestClusterZeroConfigIsOneShard(t *testing.T) {
	sys, err := NewSystem(Config{})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.Cluster()
	if c == nil || c.NumShards() != 1 {
		t.Fatalf("zero Config booted %v, want a 1-shard cluster", c)
	}
	sh := c.Shard(0)
	if sys.Manager() != sh.Manager() || sys.Hypervisor() != sh.Hypervisor() || sys.Recorder() != sh.Recorder() {
		t.Error("single-machine accessors must return shard 0's objects")
	}
	if got := sh.Hypervisor().Phys().Size(); got != 256*1024*1024 {
		t.Errorf("shard 0 has %d bytes of physical memory, want the 256 MiB default", got)
	}
	text := sys.Metrics().Prometheus()
	for _, want := range []string{
		`elisa_vms{shard="0"} 1`, `elisa_objects{shard="0"} 0`,
		`elisa_slot_list_capacity{shard="0"}`, `elisa_cluster_shards 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("export lacks %q:\n%s", want, text)
		}
	}
	for _, m := range sys.Metrics().Gather() {
		if strings.HasPrefix(m.Name, "elisa_cluster_") {
			continue // cluster-wide families
		}
		for _, smp := range m.Samples {
			if smp.Labels["shard"] != "0" {
				t.Errorf("%s sample %v lacks shard=\"0\"", m.Name, smp.Labels)
			}
		}
	}
}

// TestClusterMetricsCoverEveryShard: every per-machine family exports every
// shard. With a guest, a ring and a fleet tenant living only on shard 1,
// the ring, slot, attachment, vCPU, recorder and fleet families must
// carry shard="1" samples.
func TestClusterMetricsCoverEveryShard(t *testing.T) {
	sys, err := NewSystem(Config{Shards: 2, ShardSeed: 3, Observe: &ObserveConfig{SampleEvery: 1}})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.Cluster()
	if err := c.RegisterFunc(clusterFnNop, func(*CallContext) (uint64, error) { return 0, nil }); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"ring-obj", "fleet-obj"} {
		if err := c.Ring().Pin(name, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := c.CreateObject(name, PageSize); err != nil {
			t.Fatal(err)
		}
	}
	g, err := c.NewGuest("ring-guest", 16*PageSize)
	if err != nil {
		t.Fatal(err)
	}
	h, err := g.Attach("ring-obj")
	if err != nil {
		t.Fatal(err)
	}
	rc, err := h.Ring(RingConfig{Depth: 8})
	if err != nil {
		t.Fatal(err)
	}
	v := h.VCPU()
	for i := 0; i < 4; i++ {
		if err := rc.Submit(v, clusterFnNop); err != nil {
			t.Fatal(err)
		}
	}
	if err := rc.Flush(v); err != nil {
		t.Fatal(err)
	}
	f, err := sys.NewFleet(FleetConfig{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Admit(TenantSpec{Name: "fleet-tenant", Objects: []string{"fleet-obj"},
		Fn: clusterFnNop, RateOPS: 1_000_000}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Run(200_000); err != nil {
		t.Fatal(err)
	}
	covered := map[string]bool{}
	for _, m := range sys.Metrics().Gather() {
		for _, smp := range m.Samples {
			if smp.Labels["shard"] == "1" {
				covered[m.Name] = true
			}
		}
	}
	checked := 0
	for _, m := range sys.Metrics().Gather() {
		switch {
		case strings.HasPrefix(m.Name, "elisa_fleet_lane_"):
			continue // per-fleet lane counters, not per-shard
		case strings.HasPrefix(m.Name, "elisa_ring_"), strings.HasPrefix(m.Name, "elisa_slot_"),
			m.Name == "elisa_attachment_calls_total", strings.HasPrefix(m.Name, "elisa_vcpu_"),
			strings.HasPrefix(m.Name, "elisa_fleet_"), m.Name == "elisa_call_latency_ns":
			checked++
			if !covered[m.Name] {
				t.Errorf("%s has no shard=\"1\" sample", m.Name)
			}
		}
	}
	if checked < 20 {
		t.Errorf("only %d families checked; the export lost families", checked)
	}
}

// TestFacadeObjectsCounted: the shard managers are the one object
// directory, so objects made through sys.Manager() — the quick-start
// path — count in elisa_cluster_objects, Stats and Describe like those
// made through Cluster().CreateObject.
func TestFacadeObjectsCounted(t *testing.T) {
	sys, err := NewSystem(Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := sys.Manager().CreateObject(fmt.Sprintf("mgr-%d", i), PageSize); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sys.Cluster().CreateObject("placed", PageSize); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Cluster().CreateObject("mgr-0", PageSize); err == nil {
		t.Fatal("Cluster().CreateObject accepted a name shard 0's manager holds")
	}
	if got := sys.Metrics().Prometheus(); !strings.Contains(got, `elisa_cluster_objects{shard="0"} 4`) {
		t.Fatalf("elisa_cluster_objects does not count all 4 objects:\n%s", got)
	}
	if st := sys.Cluster().Stats(); st.Objects != 4 || st.Shards[0].Objects != 4 {
		t.Fatalf("Stats counts %d objects (%d on shard 0), want 4", st.Objects, st.Shards[0].Objects)
	}
	if got, want := sys.Cluster().Describe(), "shard 0: 4 objects [mgr-0 mgr-1 mgr-2 placed]\n"; got != want {
		t.Fatalf("Describe = %q, want %q", got, want)
	}
}
