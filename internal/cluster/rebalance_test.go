package cluster

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/elisa-go/elisa/internal/core"
	"github.com/elisa-go/elisa/internal/fault"
	"github.com/elisa-go/elisa/internal/fleet"
	"github.com/elisa-go/elisa/internal/mem"
	"github.com/elisa-go/elisa/internal/obs"
	"github.com/elisa-go/elisa/internal/overload"
	"github.com/elisa-go/elisa/internal/simtime"
	"github.com/elisa-go/elisa/internal/workload"
)

// skewedCluster boots a cluster with every rebalance-scenario object
// pinned on shard 0 — balanced demand over maximally skewed placement —
// and admits the four committed tenants to a fleet. rebalance arms the
// auto-rebalancer; ring selects the exit-less ring datapath.
func skewedCluster(t *testing.T, shards int, rebalance bool, ring bool, dec *overload.DecisionTrace, global map[string]float64) (*Cluster, *Fleet) {
	t.Helper()
	fc := FleetConfig{
		Config:         fleet.Config{Cores: 2, Seed: 42, QueueDepth: 32, Decisions: dec},
		Rebalance:      rebalance,
		GlobalAdmitOPS: global,
	}
	if ring {
		fc.RingDepth = 16
	}
	return skewedFleet(t, shards, fc)
}

// skewedFleet is skewedCluster with the whole fleet config supplied.
func skewedFleet(t *testing.T, shards int, fc FleetConfig) (*Cluster, *Fleet) {
	t.Helper()
	c, err := New(Config{Shards: shards, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterFunc(workload.RebalanceFn, func(*core.CallContext) (uint64, error) { return 0, nil }); err != nil {
		t.Fatal(err)
	}
	specs, err := workload.RebalanceSpecs()
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range specs {
		for _, obj := range sp.Objects {
			if err := c.Ring().Pin(obj, 0); err != nil {
				t.Fatal(err)
			}
			if _, err := c.CreateObject(obj, mem.PageSize); err != nil {
				t.Fatal(err)
			}
		}
	}
	f, err := c.NewFleet(fc)
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range specs {
		ts, err := fleet.SpecFromWorkload(sp, fc.Seed)
		if err != nil {
			t.Fatal(err)
		}
		if shard, err := f.Admit(ts); err != nil {
			t.Fatal(err)
		} else if shard != 0 {
			t.Fatalf("tenant %q placed on shard %d, want the pinned shard 0", ts.Name, shard)
		}
	}
	return c, f
}

// TestRebalanceConvergesOnSkewedTrace is the tentpole acceptance: the
// committed skewed trace, replayed with the rebalancer armed, must drive
// the cluster from imbalance 4.0 down to <= 1.25, with no tenant moving
// more than twice, no oscillation, and not one descriptor stranded or
// administratively failed (the fleet path drains before every detach).
func TestRebalanceConvergesOnSkewedTrace(t *testing.T) {
	dec := overload.NewDecisionTrace(0)
	c, f := skewedCluster(t, 4, true, true, dec, nil)
	if imb := c.Stats().Imbalance; imb < 2.0 {
		t.Fatalf("initial imbalance %.2f, want the skewed >= 2.0", imb)
	}
	tr, err := workload.RebalanceTrace()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := f.Replay(tr, workload.RebalanceHorizon)
	if err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Imbalance > 1.25 {
		t.Errorf("final imbalance %.3f, want <= 1.25", st.Imbalance)
	}
	if st.Rebalances == 0 {
		t.Error("rebalancer armed on a 4x-skewed cluster executed no migrations")
	}
	reb := f.Rebalancer()
	if reb == nil {
		t.Fatal("armed fleet returned a nil Rebalancer")
	}
	for name, n := range reb.TenantMoves() {
		if n > 2 {
			t.Errorf("tenant %q moved %d times — oscillation (want <= 2)", name, n)
		}
	}
	if s := reb.Stats(); s.Moves != st.Rebalances {
		t.Errorf("rebalancer counted %d moves, cluster counted %d", s.Moves, st.Rebalances)
	}
	// Every tenant survived the migrations whole: nothing crashed, lost,
	// failed, or bounced. A stranded or administratively-failed ring
	// descriptor would surface as Lost or FnErrors.
	var completed uint64
	for _, tr := range rep.Tenants {
		if tr.Crashed || tr.Lost != 0 || tr.FnErrors != 0 || tr.Busied != 0 {
			t.Errorf("tenant %q: crashed=%v lost=%d fnErrors=%d busied=%d", tr.Name, tr.Crashed, tr.Lost, tr.FnErrors, tr.Busied)
		}
		if tr.Completed == 0 {
			t.Errorf("tenant %q completed nothing", tr.Name)
		}
		completed += tr.Completed
	}
	if completed == 0 {
		t.Fatal("no work completed")
	}
	// The migrations land in the decision trace as rebalance verdicts.
	moves := uint64(0)
	for _, cnt := range dec.Counts() {
		if cnt.Key.Verdict == overload.VerdictRebalance {
			moves += cnt.Count
		}
	}
	if moves != st.Rebalances {
		t.Errorf("decision trace recorded %d rebalance verdicts, cluster executed %d", moves, st.Rebalances)
	}
}

// TestRebalanceDeterministicAcrossRuns pins same-seed determinism at 1,
// 4, and 16 shards: two armed replays of the committed trace must render
// byte-identical reports and identical decision lists.
func TestRebalanceDeterministicAcrossRuns(t *testing.T) {
	for _, shards := range []int{1, 4, 16} {
		run := func() (string, []RebalanceDecision, Stats) {
			_, f := skewedCluster(t, shards, true, true, nil, nil)
			tr, err := workload.RebalanceTrace()
			if err != nil {
				t.Fatal(err)
			}
			rep, err := f.Replay(tr, workload.RebalanceHorizon)
			if err != nil {
				t.Fatal(err)
			}
			return rep.Table().String(), f.Rebalancer().Decisions(), f.c.Stats()
		}
		tab1, dec1, st1 := run()
		tab2, dec2, st2 := run()
		if tab1 != tab2 {
			t.Errorf("%d shards: same-seed reports differ:\n%s\nvs\n%s", shards, tab1, tab2)
		}
		if len(dec1) != len(dec2) {
			t.Fatalf("%d shards: decision counts differ: %d vs %d", shards, len(dec1), len(dec2))
		}
		for i := range dec1 {
			if dec1[i] != dec2[i] {
				t.Errorf("%d shards: decision %d differs: %+v vs %+v", shards, i, dec1[i], dec2[i])
			}
		}
		if st1.Rebalances != st2.Rebalances || st1.Imbalance != st2.Imbalance {
			t.Errorf("%d shards: stats differ: %+v vs %+v", shards, st1, st2)
		}
		if shards == 1 && st1.Rebalances != 0 {
			t.Errorf("1 shard: rebalancer has nowhere to move, executed %d migrations", st1.Rebalances)
		}
	}
}

// TestRebalanceUnarmedIdentical pins the no-rebalancer bit-identity: an
// armed fleet whose trigger is never reached must match the unarmed
// fleet byte for byte.
func TestRebalanceUnarmedIdentical(t *testing.T) {
	run := func(shards int, armed bool) (string, *Fleet) {
		_, f := skewedCluster(t, shards, armed, true, nil, nil)
		tr, err := workload.RebalanceTrace()
		if err != nil {
			t.Fatal(err)
		}
		rep, err := f.Replay(tr, workload.RebalanceHorizon)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Table().String(), f
	}
	unarmed, _ := run(4, false)
	// One shard: armed, but its demand is always the mean (imbalance 1),
	// so the controller ticks every window and never reaches the trigger.
	// Placement stays static, so every window must replay identically.
	held, f := run(1, true)
	if st := f.Rebalancer().Stats(); st.Ticks == 0 || st.Moves != 0 || st.Held != 0 {
		t.Fatalf("armed 1-shard rebalancer stats %+v, want ticks and no decisions", st)
	}
	if unarmed != held {
		t.Errorf("armed-but-idle fleet diverged from unarmed fleet:\n%s\nvs\n%s", held, unarmed)
	}
}

// TestEvictAdoptCarriesState migrates one tenant by hand between runs
// and checks the merged report reads one continuous tenant: counters
// carried, the tenant listed once on its new shard only, placement
// updated.
func TestEvictAdoptCarriesState(t *testing.T) {
	c, f := skewedCluster(t, 4, false, false, nil, nil)
	if _, err := f.Run(100 * 1000); err != nil {
		t.Fatal(err)
	}
	before := f.Snapshot()
	var moved fleet.TenantReport
	for _, tr := range before.Tenants {
		if tr.Name == "rb-b" {
			moved = tr
		}
	}
	if moved.Submitted == 0 || moved.Completed == 0 {
		t.Fatalf("tenant rb-b idle before migration: %+v", moved)
	}
	if err := f.migrateTenant("rb-b", 2); err != nil {
		t.Fatal(err)
	}
	if got, _ := f.TenantShard("rb-b"); got != 2 {
		t.Fatalf("rb-b on shard %d after migration, want 2", got)
	}
	if got := c.Owner("rb-obj-b"); got != 2 {
		t.Fatalf("rb-obj-b owned by shard %d after migration, want 2", got)
	}
	after := f.Snapshot()
	var adopted fleet.TenantReport
	for _, tr := range after.Tenants {
		if tr.Name == "rb-b" {
			adopted = tr
		}
	}
	if adopted.Submitted != moved.Submitted || adopted.Completed != moved.Completed {
		t.Errorf("carried counters drifted: before %+v, after %+v", moved, adopted)
	}
	// The source scheduler no longer lists the tenant; the destination
	// lists it once.
	listed := func(shard int) int {
		n := 0
		for _, tn := range f.Scheduler(shard).Tenants() {
			if tn.Name() == "rb-b" {
				n++
			}
		}
		return n
	}
	if src, dst := listed(0), listed(2); src != 0 || dst != 1 {
		t.Errorf("rb-b listed %d times on the source and %d on the destination, want 0 and 1", src, dst)
	}
	// The tenant keeps running on its new shard.
	if _, err := f.Run(100 * 1000); err != nil {
		t.Fatal(err)
	}
	final := f.Snapshot()
	for _, tr := range final.Tenants {
		if tr.Name == "rb-b" && tr.Completed <= adopted.Completed {
			t.Errorf("migrated tenant stopped completing: %d -> %d", adopted.Completed, tr.Completed)
		}
	}
}

// TestEvictAdoptRefusesStaleTenant: once a tenant has moved, its old
// scheduler's Evict and ReplayOps refuse it, and its new scheduler
// replays its ops.
func TestEvictAdoptRefusesStaleTenant(t *testing.T) {
	_, f := skewedCluster(t, 2, false, false, nil, nil)
	if _, err := f.Run(100 * 1000); err != nil {
		t.Fatal(err)
	}
	moved := f.admissions[f.byName["rb-b"]].t
	if err := f.migrateTenant("rb-b", 1); err != nil {
		t.Fatal(err)
	}
	op := []fleet.ReplayOp{{Tenant: moved, Fn: workload.RebalanceFn}}
	if err := f.Scheduler(0).Evict(moved); err == nil {
		t.Error("the old scheduler evicted a tenant it no longer has")
	}
	if err := f.Scheduler(0).ReplayOps(op, 1000); err == nil {
		t.Error("the old scheduler replayed an op for a tenant it no longer has")
	}
	if err := f.Scheduler(1).ReplayOps(op, 1000); err != nil {
		t.Errorf("the new scheduler refused its tenant's op: %v", err)
	}
}

// TestEvictAdoptEmptiedShardKeepsRunning: a shard scheduler whose last
// tenant has left keeps running its windows. Its clock stays on fleet
// time, and its fault pump fires the injections due after the shard
// emptied.
func TestEvictAdoptEmptiedShardKeepsRunning(t *testing.T) {
	plan := &fault.Plan{Seed: 3}
	for i := 0; i < 4; i++ {
		plan.Injections = append(plan.Injections, fault.Injection{
			Seq: i, At: simtime.Time(120_000 + 20_000*i), Class: fault.ClassEPTPCorrupt, Guest: "rb-a", Arg: uint64(i),
		})
	}
	_, f := skewedFleet(t, 2, FleetConfig{Config: fleet.Config{Cores: 2, Seed: 42, QueueDepth: 32, Faults: plan}})
	if _, err := f.Run(100 * 1000); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"rb-a", "rb-b", "rb-c", "rb-d"} {
		if err := f.migrateTenant(name, 1); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(f.Scheduler(0).Tenants()); n != 0 {
		t.Fatalf("shard 0 lists %d tenants after every tenant left", n)
	}
	rep, err := f.Run(100 * 1000)
	if err != nil {
		t.Fatalf("run with an emptied shard: %v", err)
	}
	if got := f.Scheduler(0).Elapsed(); got != f.elapsed {
		t.Errorf("emptied shard's scheduler at %v, fleet at %v", got, f.elapsed)
	}
	if rep.FaultsFired != 4 || rep.FaultsPending != 0 {
		t.Errorf("emptied fault shard: %d injections fired, %d pending; want all 4 fired", rep.FaultsFired, rep.FaultsPending)
	}
}

// TestRebalanceGlobalAdmissionCap layers the cluster-wide token buckets
// over the skewed scenario: every tenant is capped at half its demand
// rate, so the aggregate admitted volume must respect burst + rate x
// horizon no matter where the rebalancer places anyone — and a migrated
// tenant must keep being refused on its new shard (the bucket follows
// the tenant, not the placement).
func TestRebalanceGlobalAdmissionCap(t *testing.T) {
	const capOPS = 800_000.0 // half of the specs' 1.6M demand
	global := map[string]float64{"rb-a": capOPS, "rb-b": capOPS, "rb-c": capOPS, "rb-d": capOPS}
	dec := overload.NewDecisionTrace(0)
	c, f := skewedCluster(t, 4, true, true, dec, global)
	tr, err := workload.RebalanceTrace()
	if err != nil {
		t.Fatal(err)
	}
	// Split the committed trace in half so the bucket's post-migration
	// behaviour is observable: phase 1 triggers the migrations, phase 2
	// replays onto the rebalanced placement.
	half := workload.RebalanceHorizon / 2
	var phase1, phase2 []workload.Event
	for _, ev := range tr.Events {
		if simtime.Duration(ev.At) < half {
			phase1 = append(phase1, ev)
		} else {
			ev.At -= simtime.Time(half)
			phase2 = append(phase2, ev)
		}
	}
	rep1, err := f.Replay(&workload.Trace{Events: phase1}, half)
	if err != nil {
		t.Fatal(err)
	}
	if c.Stats().Rebalances == 0 {
		t.Fatal("phase 1 executed no migrations; the follows-the-tenant check needs at least one")
	}
	throttledAt := map[string]uint64{}
	for _, trp := range rep1.Tenants {
		throttledAt[trp.Name] = trp.Throttled
	}
	rep2, err := f.Replay(&workload.Trace{Events: phase2}, half)
	if err != nil {
		t.Fatal(err)
	}
	// Aggregate cap: admitted (submitted minus globally refused) within
	// burst + rate x horizon, regardless of the migrations in between.
	budget := uint64(16 + capOPS*float64(workload.RebalanceHorizon)/1e9)
	for _, trp := range rep2.Tenants {
		if trp.Throttled == 0 {
			t.Errorf("tenant %q capped at half demand was never throttled", trp.Name)
		}
		if admitted := trp.Submitted - trp.Throttled; admitted > budget {
			t.Errorf("tenant %q admitted %d ops, global budget %d", trp.Name, admitted, budget)
		}
		if trp.Completed == 0 {
			t.Errorf("tenant %q completed nothing under the cap", trp.Name)
		}
	}
	// Every migrated tenant kept being refused after its move: the global
	// bucket is keyed by tenant, not by shard.
	moved := f.Rebalancer().TenantMoves()
	if len(moved) == 0 {
		t.Fatal("rebalancer reports no tenant moves")
	}
	for _, trp := range rep2.Tenants {
		if moved[trp.Name] == 0 {
			continue
		}
		if trp.Throttled <= throttledAt[trp.Name] {
			t.Errorf("migrated tenant %q stopped being globally throttled after its move (%d -> %d)",
				trp.Name, throttledAt[trp.Name], trp.Throttled)
		}
	}
	// The refusals are the global rung's, by name.
	gb := uint64(0)
	for _, d := range dec.Events() {
		if d.Verdict == overload.VerdictThrottle {
			if d.Note != "global-bucket" {
				t.Fatalf("throttle with note %q; the scenario has no per-shard buckets", d.Note)
			}
			gb++
		}
	}
	var totThrottled uint64
	for _, trp := range rep2.Tenants {
		totThrottled += trp.Throttled
	}
	if gb != totThrottled {
		t.Errorf("decision trace logged %d global-bucket throttles, reports count %d", gb, totThrottled)
	}
}

// TestFleetSchedulersShareFleetTime pins what the cluster-wide
// admission buckets rely on: at the start of every window, every live
// shard scheduler's elapsed time equals the fleet's, including a
// scheduler first created mid-call by a migration to an empty shard.
// Each scheduler reads a tenant's global bucket at its own window base,
// so this equality is what keeps one bucket on one clock.
func TestFleetSchedulersShareFleetTime(t *testing.T) {
	global := map[string]float64{"rb-a": 800_000, "rb-b": 800_000}
	c, f := skewedCluster(t, 4, true, true, nil, global)
	checked := 0
	for call := 0; call < 3; call++ {
		base := f.elapsed
		var start simtime.Duration
		_, err := f.windows(workload.RebalanceHorizon/3, func(off, _ simtime.Duration) { start = base + off },
			func(shard int, s *fleet.Scheduler, step simtime.Duration) error {
				if got := s.Elapsed(); got != start {
					t.Errorf("call %d: shard %d scheduler at %v at a window starting at fleet time %v", call, shard, got, start)
				}
				checked++
				return s.Run(step)
			})
		if err != nil {
			t.Fatal(err)
		}
	}
	if c.Stats().Rebalances == 0 {
		t.Fatal("no migration ran; the check needs a scheduler created mid-call")
	}
	live := 0
	for _, s := range f.scheds {
		if s != nil {
			live++
			if s.Elapsed() != f.elapsed {
				t.Errorf("scheduler at %v after the calls, fleet at %v", s.Elapsed(), f.elapsed)
			}
		}
	}
	if live < 2 || checked == 0 {
		t.Fatalf("%d live schedulers, %d lane windows checked", live, checked)
	}
}

// TestRebalanceCausalNotes: each migration lands in the causal logs of
// both shards it joins as a rebalance event for the tenant, its note
// naming the move, the tenant's load and the imbalance that set it off.
func TestRebalanceCausalNotes(t *testing.T) {
	c, f := skewedCluster(t, 4, true, true, nil, nil)
	recs := make([]*obs.Recorder, len(c.shards))
	for i, sh := range c.shards {
		recs[i] = obs.NewRecorder(obs.Config{}) // the default capacity holds the whole replay
		sh.mgr.SetRecorder(recs[i])
	}
	tr, err := workload.RebalanceTrace()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Replay(tr, workload.RebalanceHorizon); err != nil {
		t.Fatal(err)
	}
	want := make([][]string, len(recs))
	for _, d := range f.Rebalancer().Decisions() {
		if d.Moved {
			line := fmt.Sprintf("%s (shard %d -> %d, load %d, imbalance %.2f)", d.Tenant, d.From, d.To, d.Load, d.Imbalance)
			want[d.From] = append(want[d.From], line)
			want[d.To] = append(want[d.To], line)
		}
	}
	if len(want[0]) == 0 {
		t.Fatal("the skewed replay moved no tenant off shard 0")
	}
	for i, rec := range recs {
		var got []string
		for _, e := range rec.Causal().Events() {
			if e.Kind == obs.EvRebalance {
				got = append(got, fmt.Sprintf("%s (%s)", e.Guest, e.Note))
			}
		}
		if !reflect.DeepEqual(got, want[i]) {
			t.Errorf("shard %d rebalance events:\n got %q\nwant %q", i, got, want[i])
		}
	}
}
