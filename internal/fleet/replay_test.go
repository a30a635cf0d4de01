package fleet

import (
	"fmt"
	"strings"
	"testing"

	"github.com/elisa-go/elisa/internal/core"
	"github.com/elisa-go/elisa/internal/mem"
	"github.com/elisa-go/elisa/internal/overload"
	"github.com/elisa-go/elisa/internal/simtime"
	"github.com/elisa-go/elisa/internal/workload"
)

// replayRig boots a machine with the regression scenario's objects and
// fn registered, and admits the three regression tenants.
func replayRig(t *testing.T, cfg Config) *Scheduler {
	t.Helper()
	r := newRig(t, 0, 4)
	if err := r.mgr.RegisterFunc(workload.RegressionFn, func(*core.CallContext) (uint64, error) { return 0, nil }); err != nil {
		t.Fatal(err)
	}
	specs, err := workload.RegressionSpecs()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, sp := range specs {
		for _, obj := range sp.Objects {
			if !seen[obj] {
				seen[obj] = true
				if _, err := r.mgr.CreateObject(obj, mem.PageSize); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	s, err := New(r.hv, r.mgr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range specs {
		ts, err := SpecFromWorkload(sp, cfg.Seed)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Admit(ts); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// replayEvents resolves each event's names against the scheduler's
// admitted tenants, as cluster.Fleet.Replay does, and replays the ops. An
// unknown tenant resolves to nil and an unknown object to -1, both of
// which ReplayOps must refuse.
func replayEvents(s *Scheduler, events []workload.Event, d simtime.Duration) (*Report, error) {
	byName := make(map[string]*Tenant)
	for _, t := range s.Tenants() {
		byName[t.Name()] = t
	}
	ops := make([]ReplayOp, len(events))
	for i, ev := range events {
		ops[i] = ReplayOp{At: ev.At, Tenant: byName[ev.Tenant], Obj: -1, Fn: ev.Fn}
		if t := ops[i].Tenant; t != nil {
			ops[i].Obj = t.ObjectIndex(ev.Object)
		}
	}
	return s.ReplayOps(ops, d)
}

// TestReplayDeterministic: replaying the committed regression trace
// twice through identically configured fleets renders byte-identical
// report tables and decision summaries.
func TestReplayDeterministic(t *testing.T) {
	tr, err := workload.RegressionTrace()
	if err != nil {
		t.Fatal(err)
	}
	run := func() (string, string) {
		d := overload.NewDecisionTrace(0)
		s := replayRig(t, Config{Seed: 42, Cores: 2, QueueDepth: 32, Classes: 3, Decisions: d})
		rep, err := replayEvents(s, tr.Events, workload.RegressionHorizon)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Table().String(), d.Summary()
	}
	t1, d1 := run()
	t2, d2 := run()
	if t1 != t2 {
		t.Fatalf("same-trace replays diverged:\n%s\nvs\n%s", t1, t2)
	}
	if d1 != d2 {
		t.Fatalf("decision summaries diverged:\n%s\nvs\n%s", d1, d2)
	}
	if !strings.Contains(t1, "web") || !strings.Contains(d1, "admit") {
		t.Fatalf("report or decisions look empty:\n%s\n%s", t1, d1)
	}
}

// TestReplayMatchesTraceAccounting: every trace event is accounted for —
// per-tenant submitted counts equal the trace's event counts, and the
// decision trace's per-tenant verdict tallies sum to submitted.
func TestReplayMatchesTraceAccounting(t *testing.T) {
	tr, err := workload.RegressionTrace()
	if err != nil {
		t.Fatal(err)
	}
	d := overload.NewDecisionTrace(0)
	s := replayRig(t, Config{Seed: 7, Cores: 1, QueueDepth: 16, Decisions: d})
	rep, err := replayEvents(s, tr.Events, workload.RegressionHorizon)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]uint64{}
	for _, ev := range tr.Events {
		want[ev.Tenant]++
	}
	for _, ten := range rep.Tenants {
		if ten.Submitted != want[ten.Name] {
			t.Errorf("%s submitted %d, trace has %d events", ten.Name, ten.Submitted, want[ten.Name])
		}
		var verdictSum uint64
		for _, v := range overload.Verdicts() {
			if v != overload.VerdictBusy { // busy is drain-side, not an arrival verdict
				verdictSum += d.Count(ten.Name, v)
			}
		}
		if verdictSum != ten.Submitted {
			t.Errorf("%s decision tallies sum %d, submitted %d", ten.Name, verdictSum, ten.Submitted)
		}
		if ten.Completed == 0 {
			t.Errorf("%s completed nothing", ten.Name)
		}
	}
}

// TestReplayRejectsBadEvents: events naming unadmitted tenants, foreign
// objects, instants outside the window, or instants before the previous
// event's refuse up front.
func TestReplayRejectsBadEvents(t *testing.T) {
	s := replayRig(t, Config{Seed: 1})
	ok := workload.Event{At: 10, Tenant: "web", Object: "wk-00", Fn: workload.RegressionFn}
	cases := []struct {
		name string
		ev   workload.Event
	}{
		{"unadmitted tenant", workload.Event{At: 10, Tenant: "ghost", Object: "wk-00"}},
		{"foreign object", workload.Event{At: 10, Tenant: "svc", Object: "wk-07"}},
		{"past window", workload.Event{At: simtime.Time(workload.RegressionHorizon), Tenant: "web", Object: "wk-00"}},
		{"negative time", workload.Event{At: -1, Tenant: "web", Object: "wk-00"}},
		{"out of time order", workload.Event{At: 9, Tenant: "web", Object: "wk-00", Fn: workload.RegressionFn}},
	}
	for _, tc := range cases {
		if _, err := replayEvents(s, []workload.Event{ok, tc.ev}, workload.RegressionHorizon); err == nil {
			t.Errorf("%s: replay accepted", tc.name)
		}
	}
}

// TestReplayTargetsTraceObject: a replayed op runs against the handle
// the trace row names, not the round-robin cursor — visible through a
// registered fn recording each call's object size when every object has
// a distinct size.
func TestReplayTargetsTraceObject(t *testing.T) {
	r := newRig(t, 0, 4)
	for i := 0; i < 4; i++ {
		if _, err := r.mgr.CreateObject(fmt.Sprintf("obj-%02d", i), (i+1)*mem.PageSize); err != nil {
			t.Fatal(err)
		}
	}
	var touched []int
	const fnRec uint64 = 77
	if err := r.mgr.RegisterFunc(fnRec, func(cc *core.CallContext) (uint64, error) {
		touched = append(touched, cc.ObjectSize/mem.PageSize)
		return 0, nil
	}); err != nil {
		t.Fatal(err)
	}
	s, err := New(r.hv, r.mgr, Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Admit(TenantSpec{Name: "a", Objects: objects(4), Fn: fnRec, RateOPS: 1}); err != nil {
		t.Fatal(err)
	}
	evs := []workload.Event{
		{At: 0, Tenant: "a", Object: "obj-03", Fn: fnRec},
		{At: 1, Tenant: "a", Object: "obj-01", Fn: fnRec},
		{At: 2, Tenant: "a", Object: "obj-03", Fn: fnRec},
	}
	rep, err := replayEvents(s, evs, simtime.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tenants[0].Completed != 3 {
		t.Fatalf("completed %d of 3", rep.Tenants[0].Completed)
	}
	if got := fmt.Sprintf("%v", touched); got != "[4 2 4]" {
		t.Fatalf("touched page counts %s, want [4 2 4] (the trace's object order)", got)
	}
}
