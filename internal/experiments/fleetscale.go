package experiments

import (
	"fmt"

	"github.com/elisa-go/elisa/internal/cluster"
	"github.com/elisa-go/elisa/internal/core"
	"github.com/elisa-go/elisa/internal/fleet"
	"github.com/elisa-go/elisa/internal/mem"
	"github.com/elisa-go/elisa/internal/simtime"
	"github.com/elisa-go/elisa/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "ext_fleet_scaling",
		Title: "Extension: fleet scaling — goodput and p99 vs tenant count under slot oversubscription",
		Paper: "extension past the paper's 510-sub-context cap: virtualised EPTP slots trade hot 196ns calls for occasional 895ns re-binds, so oversubscribing the slot budget costs tail latency, not correctness",
		Run:   runFleetScaling,
	})
}

// runFleetScaling sweeps tenant count at three slot-oversubscription
// ratios. Every tenant round-robins a 16-object working set, so budget 16
// never faults (1x), budget 4 faults on most calls (4x), and budget 1
// faults on every call (16x). The scheduler is deterministic, so these
// numbers reproduce exactly.
func runFleetScaling(cfg Config) (*stats.Table, error) {
	const workingSet = 16
	counts := []int{8, 32, 128}
	window := simtime.Duration(cfg.ops(2000, 250)) * simtime.Microsecond
	oversubs := []struct {
		label  string
		budget int
	}{
		{"1x", workingSet},
		{"4x", workingSet / 4},
		{"16x", 1},
	}
	t := stats.NewTable(
		"Fleet scaling: aggregate goodput [Mops/s] and worst-tenant p99 [ns] vs tenants",
		"Oversub", "Metric", "8 tenants", "32 tenants", "128 tenants")
	for _, os := range oversubs {
		goodRow := []any{os.label, "goodput"}
		p99Row := []any{os.label, "p99"}
		for _, n := range counts {
			good, p99, err := runFleetPoint(n, os.budget, window)
			if err != nil {
				return nil, fmt.Errorf("fleet point (%d tenants, budget %d): %w", n, os.budget, err)
			}
			goodRow = append(goodRow, good)
			p99Row = append(p99Row, p99)
		}
		t.AddRow(goodRow...)
		t.AddRow(p99Row...)
	}
	t.AddNote("hot call %dns, re-bind after eviction %dns: a 16x-oversubscribed slot budget pays the slow path on every call yet never kills or refuses",
		int64(simtime.Default().ELISARoundTrip()),
		int64(simtime.Default().ELISARoundTrip()+simtime.Default().VMCallRoundTrip()))
	return t, nil
}

// runFleetPoint runs one (tenants, budget) cell and returns aggregate
// goodput [Mops/s] and the worst tenant's p99 [ns].
func runFleetPoint(tenants, budget int, window simtime.Duration) (float64, int64, error) {
	const fn = 0xF1EE0001
	const workingSet = 16
	objs := make([]string, workingSet)
	for i := range objs {
		objs[i] = fmt.Sprintf("so-%02d", i)
	}
	c, f, err := oneShardFleet(512*1024*1024, budget, fn, objs, fleet.Config{Cores: 8, Seed: 77, QueueDepth: 64}, window)
	if err != nil {
		return 0, 0, err
	}
	for i := 0; i < tenants; i++ {
		if _, err := f.Admit(fleet.TenantSpec{
			Name:    fmt.Sprintf("ft-%03d", i),
			Objects: objs,
			Fn:      fn,
			RateOPS: 1_000_000, // 8 tenants underload the 8 cores; 128 swamp them
		}); err != nil {
			return 0, 0, err
		}
	}
	rep, err := f.Run(window)
	if err != nil {
		return 0, 0, err
	}
	for _, tn := range f.Scheduler(0).Tenants() {
		if tn.VM().Dead() {
			return 0, 0, fmt.Errorf("tenant %s killed", tn.Name())
		}
	}
	if err := c.Shard(0).Manager().Fsck(); err != nil {
		return 0, 0, err
	}
	var agg float64
	var worstP99 int64
	for _, tr := range rep.Tenants {
		agg += tr.GoodputOPS
		if int64(tr.P99) > worstP99 {
			worstP99 = int64(tr.P99)
		}
	}
	return agg / 1e6, worstP99, nil
}

// oneShardFleet boots the machine the fleet experiments share: a 1-shard
// cluster of physBytes with the given per-guest slot budget, fn
// published as a no-op, and each of objs created as a one-page object.
// The fleet's Slice is window, so a Run or Replay of that length runs as
// one scheduling window.
func oneShardFleet(physBytes, slotBudget int, fn uint64, objs []string, cfg fleet.Config, window simtime.Duration) (*cluster.Cluster, *cluster.Fleet, error) {
	c, err := cluster.New(cluster.Config{Shards: 1, PhysBytes: physBytes, SlotBudget: slotBudget})
	if err != nil {
		return nil, nil, err
	}
	if err := c.RegisterFunc(fn, func(*core.CallContext) (uint64, error) { return 0, nil }); err != nil {
		return nil, nil, err
	}
	for _, obj := range objs {
		if _, err := c.CreateObject(obj, mem.PageSize); err != nil {
			return nil, nil, err
		}
	}
	f, err := c.NewFleet(cluster.FleetConfig{Config: cfg, Slice: window})
	if err != nil {
		return nil, nil, err
	}
	return c, f, nil
}
