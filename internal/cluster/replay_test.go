package cluster

import (
	"fmt"
	"strings"
	"testing"

	"github.com/elisa-go/elisa/internal/core"
	"github.com/elisa-go/elisa/internal/fleet"
	"github.com/elisa-go/elisa/internal/overload"
	"github.com/elisa-go/elisa/internal/simtime"
	"github.com/elisa-go/elisa/internal/workload"
)

// replayCluster boots a cluster with the regression scenario's objects
// pinned to shard 0 and its three tenants admitted — the placement that
// makes the merged report shard-count invariant.
func replayCluster(t *testing.T, shards int, d *overload.DecisionTrace) *Fleet {
	t.Helper()
	c, specs := regressionCluster(t, shards)
	f, err := c.NewFleet(FleetConfig{Config: fleet.Config{Seed: 42, Cores: 2, QueueDepth: 32, Classes: 3, Decisions: d}})
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	for _, sp := range specs {
		ts, err := fleet.SpecFromWorkload(sp, 42)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Admit(ts); err != nil {
			t.Fatalf("Admit %s: %v", sp.Name, err)
		}
	}
	return f
}

// regressionCluster boots a cluster with the regression scenario's fn
// registered and its objects pinned to shard 0, and returns its specs.
func regressionCluster(t *testing.T, shards int) (*Cluster, []workload.Spec) {
	t.Helper()
	c := newTestCluster(t, shards, 19)
	if err := c.RegisterFunc(workload.RegressionFn, func(*core.CallContext) (uint64, error) { return 0, nil }); err != nil {
		t.Fatalf("RegisterFunc: %v", err)
	}
	specs, err := workload.RegressionSpecs()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, sp := range specs {
		for _, obj := range sp.Objects {
			if seen[obj] {
				continue
			}
			seen[obj] = true
			if err := c.Ring().Pin(obj, 0); err != nil {
				t.Fatalf("Pin: %v", err)
			}
			if _, err := c.CreateObject(obj, 4096); err != nil {
				t.Fatalf("CreateObject: %v", err)
			}
		}
	}
	return c, specs
}

// TestReplayClusterShardCountInvariance: the committed regression trace
// replayed through a 1-shard and a 4-shard cluster (same placement:
// everything pinned to shard 0) renders byte-identical merged report
// tables and decision summaries — the acceptance gate for the replay
// harness.
func TestReplayClusterShardCountInvariance(t *testing.T) {
	tr, err := workload.RegressionTrace()
	if err != nil {
		t.Fatal(err)
	}
	run := func(shards int) (string, string) {
		d := overload.NewDecisionTrace(0)
		f := replayCluster(t, shards, d)
		rep, err := f.Replay(tr, workload.RegressionHorizon)
		if err != nil {
			t.Fatalf("Replay: %v", err)
		}
		return rep.Table().String(), d.Summary()
	}
	t1, d1 := run(1)
	t4, d4 := run(4)
	if t1 != t4 {
		t.Fatalf("reports differ between 1 and 4 shards:\n--- 1 shard\n%s\n--- 4 shards\n%s", t1, t4)
	}
	if d1 != d4 {
		t.Fatalf("decision summaries differ between 1 and 4 shards:\n%s\nvs\n%s", d1, d4)
	}
	if !strings.Contains(t1, "web") || !strings.Contains(t1, "batch") || !strings.Contains(t1, "svc") {
		t.Fatalf("merged report missing tenants:\n%s", t1)
	}
}

// TestReplayClusterDeterministic: two same-configured 4-shard replays of
// the committed trace are byte-identical, and every trace event lands
// (submitted counts match the trace).
func TestReplayClusterDeterministic(t *testing.T) {
	tr, err := workload.RegressionTrace()
	if err != nil {
		t.Fatal(err)
	}
	run := func() (*fleet.Report, string) {
		f := replayCluster(t, 4, nil)
		rep, err := f.Replay(tr, workload.RegressionHorizon)
		if err != nil {
			t.Fatalf("Replay: %v", err)
		}
		return rep, rep.Table().String()
	}
	repA, a := run()
	_, b := run()
	if a != b {
		t.Fatalf("same-trace cluster replays diverged:\n%s\nvs\n%s", a, b)
	}
	want := map[string]uint64{}
	for _, ev := range tr.Events {
		want[ev.Tenant]++
	}
	for _, ten := range repA.Tenants {
		if ten.Submitted != want[ten.Name] {
			t.Errorf("%s submitted %d, trace has %d events", ten.Name, ten.Submitted, want[ten.Name])
		}
	}
}

// TestReplayClusterRejectsBadTrace: unadmitted tenants and
// out-of-window events refuse before any shard advances.
func TestReplayClusterRejectsBadTrace(t *testing.T) {
	f := replayCluster(t, 2, nil)
	bad := &workload.Trace{Events: []workload.Event{{At: 0, Tenant: "ghost", Object: "wk-00", Fn: workload.RegressionFn}}}
	if _, err := f.Replay(bad, workload.RegressionHorizon); err == nil {
		t.Fatal("replay accepted an unadmitted tenant")
	}
	late := &workload.Trace{Events: []workload.Event{{At: 5_000_000_000, Tenant: "web", Object: "wk-00", Fn: workload.RegressionFn}}}
	if _, err := f.Replay(late, workload.RegressionHorizon); err == nil {
		t.Fatal("replay accepted an event past the window")
	}
	if _, err := f.Replay(nil, workload.RegressionHorizon); err == nil {
		t.Fatal("replay accepted a nil trace")
	}
}

// TestReplayClusterRefusesUnorderedTrace: a trace that goes back in time
// refuses up front, with an error naming the first event out of order
// and both times — whether the step back crosses windows (the last
// event moved to the front) or stays inside one (two neighbours
// swapped).
func TestReplayClusterRefusesUnorderedTrace(t *testing.T) {
	tr, err := workload.RegressionTrace()
	if err != nil {
		t.Fatal(err)
	}
	orig := tr.Events
	swap := 0
	for orig[swap].At == orig[swap+1].At {
		swap++
	}
	cases := []struct {
		name   string
		events []workload.Event
		bad    int // first event out of order
	}{
		{"last moved to front", append([]workload.Event{orig[len(orig)-1]}, orig[:len(orig)-1]...), 1},
		{"neighbours swapped", func() []workload.Event {
			evs := append([]workload.Event(nil), orig...)
			evs[swap], evs[swap+1] = evs[swap+1], evs[swap]
			return evs
		}(), swap + 1},
	}
	for _, tc := range cases {
		f := replayCluster(t, 4, nil)
		_, err := f.Replay(&workload.Trace{Events: tc.events}, workload.RegressionHorizon)
		if err == nil {
			t.Errorf("%s: replay accepted", tc.name)
			continue
		}
		for _, want := range []string{
			fmt.Sprintf("event %d at %d", tc.bad, tc.events[tc.bad].At),
			fmt.Sprintf("event %d at %d", tc.bad-1, tc.events[tc.bad-1].At),
		} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q does not name %q", tc.name, err, want)
			}
		}
	}
}

// checkTallies asserts that each tenant's decision-trace tallies equal
// its report counters verdict by verdict, not only in sum, and returns
// the fleet-wide count of each verdict.
func checkTallies(t *testing.T, rep *fleet.Report, d *overload.DecisionTrace, moves map[string]int) map[overload.Verdict]uint64 {
	t.Helper()
	seen := map[overload.Verdict]uint64{}
	for _, tr := range rep.Tenants {
		want := map[overload.Verdict]uint64{
			overload.VerdictAdmit:      tr.Submitted - tr.Throttled - tr.Shed - tr.Dropped,
			overload.VerdictThrottle:   tr.Throttled,
			overload.VerdictQuarantine: tr.BreakerShed,
			overload.VerdictShed:       tr.Shed,
			overload.VerdictDrop:       tr.Dropped,
			overload.VerdictBusy:       tr.Busied,
			overload.VerdictRebalance:  uint64(moves[tr.Name]),
		}
		for _, v := range overload.Verdicts() {
			got := d.Count(tr.Name, v)
			if got != want[v] {
				t.Errorf("%s %s: decision tally %d, counter %d", tr.Name, v, got, want[v])
			}
			seen[v] += got
		}
	}
	return seen
}

// TestDecisionTalliesEqualCounters pins that the decision trace and the
// tenant counters tell one story: per tenant, each verdict's tally
// equals the counter the fleet keeps for it. It runs a bare scheduler
// over the regression trace, and a 4-shard cluster fleet with the
// rebalancer and overload control armed over the skewed rebalance
// trace, and requires every verdict each run can issue to occur. Both
// runs starve a one-core fleet's ring poller (budget 1) so busy
// bounce-backs happen; the cluster run replays its trace 16x faster
// so one core saturates, in 5µs windows so the rebalancer ticks
// between them.
func TestDecisionTalliesEqualCounters(t *testing.T) {
	starved := fleet.Config{
		Cores: 1, Seed: 7,
		RingDepth: 16, PollBudget: 1,
		Classes: 3, ShedLow: 0.3, ShedHigh: 0.6,
		Overload: core.OverloadConfig{Enabled: true},
	}
	arrivalVerdicts := []overload.Verdict{overload.VerdictAdmit, overload.VerdictThrottle,
		overload.VerdictShed, overload.VerdictDrop, overload.VerdictBusy}
	requireVerdicts := func(t *testing.T, seen map[overload.Verdict]uint64, want []overload.Verdict) {
		t.Helper()
		for _, v := range want {
			if seen[v] == 0 {
				t.Errorf("no %s verdict: the run does not exercise it (%v)", v, seen)
			}
		}
	}

	t.Run("bare scheduler", func(t *testing.T) {
		tr, err := workload.RegressionTrace()
		if err != nil {
			t.Fatal(err)
		}
		c, specs := regressionCluster(t, 1)
		cfg := starved
		cfg.QueueDepth = 8
		cfg.Decisions = overload.NewDecisionTrace(0)
		s, err := fleet.New(c.Shard(0).Hypervisor(), c.Shard(0).Manager(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		byName := make(map[string]*fleet.Tenant)
		for _, sp := range specs {
			ts, err := fleet.SpecFromWorkload(sp, cfg.Seed)
			if err != nil {
				t.Fatal(err)
			}
			if byName[ts.Name], err = s.Admit(ts); err != nil {
				t.Fatal(err)
			}
		}
		ops := make([]fleet.ReplayOp, len(tr.Events))
		for i, ev := range tr.Events {
			tn := byName[ev.Tenant]
			ops[i] = fleet.ReplayOp{At: ev.At, Tenant: tn, Obj: tn.ObjectIndex(ev.Object), Fn: ev.Fn}
		}
		if err := s.ReplayOps(ops, workload.RegressionHorizon); err != nil {
			t.Fatal(err)
		}
		rep := s.Snapshot()
		requireVerdicts(t, checkTallies(t, rep, cfg.Decisions, nil), arrivalVerdicts)
	})

	t.Run("armed 4-shard cluster", func(t *testing.T) {
		const speedup = 16
		tr, err := workload.RebalanceTrace()
		if err != nil {
			t.Fatal(err)
		}
		for i := range tr.Events {
			tr.Events[i].At /= speedup
		}
		cfg := starved
		cfg.QueueDepth = 4
		cfg.Decisions = overload.NewDecisionTrace(0)
		_, f := skewedFleet(t, 4, FleetConfig{
			Config:         cfg,
			Slice:          5 * simtime.Microsecond,
			Rebalance:      true,
			GlobalAdmitOPS: map[string]float64{"rb-a": speedup * 400_000},
		})
		rep, err := f.Replay(tr, workload.RebalanceHorizon/speedup)
		if err != nil {
			t.Fatal(err)
		}
		seen := checkTallies(t, rep, cfg.Decisions, f.Rebalancer().TenantMoves())
		requireVerdicts(t, seen, append(arrivalVerdicts, overload.VerdictRebalance))
	})
}

// TestReplayClusterRefusesUnknownObjectUpFront: an event naming an
// object its tenant never attached refuses the whole call before any
// shard advances, and the error names the event's index in the trace —
// not its index inside some window, found after earlier windows ran.
func TestReplayClusterRefusesUnknownObjectUpFront(t *testing.T) {
	tr, err := workload.RegressionTrace()
	if err != nil {
		t.Fatal(err)
	}
	evs := append([]workload.Event(nil), tr.Events...)
	last := len(evs) - 1
	evs[last].Object = "no-such-object"
	f := replayCluster(t, 1, nil)
	_, err = f.Replay(&workload.Trace{Events: evs}, workload.RegressionHorizon)
	if err == nil {
		t.Fatal("replay accepted an event on an unattached object")
	}
	if want := fmt.Sprintf("event %d: tenant %q has no attachment for object %q", last, evs[last].Tenant, "no-such-object"); !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not name %q", err, want)
	}
	if got := f.Scheduler(0).Elapsed(); got != 0 {
		t.Fatalf("shard 0 advanced %v before the refusal", got)
	}
	rep := f.Snapshot()
	if rep.Duration != 0 {
		t.Fatalf("fleet advanced %v", rep.Duration)
	}
	for _, tr := range rep.Tenants {
		if tr.Submitted != 0 {
			t.Fatalf("tenant %q submitted %d ops before the refusal", tr.Name, tr.Submitted)
		}
	}
	// The refused call left nothing half done: the intact trace replays.
	if _, err := f.Replay(tr, workload.RegressionHorizon); err != nil {
		t.Fatalf("intact replay after the refusal: %v", err)
	}
}
