package cluster

import (
	"fmt"
	"runtime"
	"testing"

	"github.com/elisa-go/elisa/internal/fault"
	"github.com/elisa-go/elisa/internal/fleet"
	"github.com/elisa-go/elisa/internal/simtime"
	"github.com/elisa-go/elisa/internal/workload"
)

// parallelChaosFleet boots the determinism suite's worst-case fleet: 8
// tenants over 4 shards with ring datapaths, a fault plan armed on
// shard 1, and the load-driven auto-rebalancer on — everything that
// could conceivably observe host-side execution order.
func parallelChaosFleet(t *testing.T, parallelism int) (*Cluster, *Fleet) {
	t.Helper()
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
		Config: fleet.Config{
			Seed: 7, Cores: 2, Faults: plan,
			RingDepth: 32, Parallelism: parallelism,
		},
		Slice:      1_000_000,
		FaultShard: 1,
		Rebalance:  true,
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
	return c, f
}

// runParallelChaos advances the chaos fleet four windows and renders
// everything comparable: the merged report table, the raw report, and
// the cluster stats.
func runParallelChaos(t *testing.T, parallelism int) string {
	t.Helper()
	c, f := parallelChaosFleet(t, parallelism)
	rep, err := f.Run(4_000_000)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.FaultsFired == 0 {
		t.Fatal("fault plan never fired; parallel chaos test is vacuous")
	}
	return fmt.Sprintf("%s\n%+v\n%+v", rep.Table().String(), rep, c.Stats())
}

// TestParallelLanesDeterministic: the same seed renders byte-identical
// merged reports at parallelism 1 and 4, with faults armed and the
// rebalancer on — the acceptance gate for lane execution. Run under
// -race this also proves the lanes share no unsynchronised state.
func TestParallelLanesDeterministic(t *testing.T) {
	serial := runParallelChaos(t, 1)
	parallel := runParallelChaos(t, 4)
	if serial != parallel {
		t.Fatalf("parallelism changed the report:\n--- parallelism 1\n%s\n--- parallelism 4\n%s", serial, parallel)
	}
	zero := runParallelChaos(t, 0)
	if zero != serial {
		t.Fatalf("parallelism 0 (default) differs from explicit serial:\n%s\nvs\n%s", zero, serial)
	}
}

// TestParallelLanesGOMAXPROCS: parallelism 4 renders the same bytes at
// GOMAXPROCS=1 (goroutines multiplexed on one OS thread) and at the
// host's full width — determinism cannot depend on the Go scheduler's
// thread count.
func TestParallelLanesGOMAXPROCS(t *testing.T) {
	wide := runParallelChaos(t, 4)
	prev := runtime.GOMAXPROCS(1)
	narrow := runParallelChaos(t, 4)
	runtime.GOMAXPROCS(prev)
	if wide != narrow {
		t.Fatalf("GOMAXPROCS changed the report:\n--- GOMAXPROCS=N\n%s\n--- GOMAXPROCS=1\n%s", wide, narrow)
	}
}

// TestParallelLanesStats: the lane executor's counters reflect what
// actually ran — parallel windows when parallelism allows fan-out,
// serial windows otherwise, and one lane run per populated shard per
// window either way.
func TestParallelLanesStats(t *testing.T) {
	_, f := parallelChaosFleet(t, 4)
	if _, err := f.Run(4_000_000); err != nil {
		t.Fatalf("Run: %v", err)
	}
	ls := f.LaneStats()
	if ls.Windows != 4 {
		t.Fatalf("want 4 windows, got %+v", ls)
	}
	if ls.Parallel != 4 || ls.Sequential != 0 || ls.ForcedSerial != 0 {
		t.Fatalf("want all 4 windows parallel, got %+v", ls)
	}
	if ls.LaneRuns != 16 { // 4 populated shards x 4 windows
		t.Fatalf("want 16 lane runs, got %+v", ls)
	}

	_, fs := parallelChaosFleet(t, 1)
	if _, err := fs.Run(4_000_000); err != nil {
		t.Fatalf("Run serial: %v", err)
	}
	if ls := fs.LaneStats(); ls.Parallel != 0 || ls.Sequential != 4 {
		t.Fatalf("serial fleet fanned out: %+v", ls)
	}
}

// TestParallelLanesForcedSerial: cluster-wide admission buckets are
// shared order-sensitive state, so windows demote to serial execution
// (counted as ForcedSerial) and the report matches a serial run
// exactly — the executor never trades determinism for wall-clock.
func TestParallelLanesForcedSerial(t *testing.T) {
	run := func(parallelism int) (string, fleet.LaneStats) {
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
		f, err := c.NewFleet(FleetConfig{
			Config:         fleet.Config{Seed: 42, Cores: 2, Parallelism: parallelism},
			GlobalAdmitOPS: map[string]float64{"tenant-00": 100_000},
		})
		if err != nil {
			t.Fatalf("NewFleet: %v", err)
		}
		admitFleetTenants(t, c, f, 8)
		rep, err := f.Run(2_000_000)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return fmt.Sprintf("%+v", rep), f.LaneStats()
	}
	serial, _ := run(1)
	demoted, ls := run(4)
	if ls.ForcedSerial == 0 || ls.Parallel != 0 {
		t.Fatalf("global admission did not force serial execution: %+v", ls)
	}
	if serial != demoted {
		t.Fatalf("forced-serial report differs from serial run:\n%s\nvs\n%s", serial, demoted)
	}
}

// TestParallelLanesReplay: trace replay through parallel lanes renders
// the same bytes as serial replay — window bucketing happens before the
// fan-out, so routing cannot depend on lane timing.
func TestParallelLanesReplay(t *testing.T) {
	tr, err := workload.RegressionTrace()
	if err != nil {
		t.Fatal(err)
	}
	run := func(parallelism int) string {
		f := replayCluster(t, 4, nil)
		f.cfg.Parallelism = parallelism
		f.cfg.Slice = simtime.Duration(workload.RegressionHorizon) / 4
		rep, err := f.Replay(tr, workload.RegressionHorizon)
		if err != nil {
			t.Fatalf("Replay: %v", err)
		}
		return rep.Table().String()
	}
	serial := run(1)
	parallel := run(4)
	if serial != parallel {
		t.Fatalf("parallel replay differs:\n--- serial\n%s\n--- parallel\n%s", serial, parallel)
	}
}
