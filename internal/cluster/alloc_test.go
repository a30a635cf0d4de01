package cluster

import (
	"fmt"
	"testing"

	"github.com/elisa-go/elisa/internal/core"
	"github.com/elisa-go/elisa/internal/fleet"
	"github.com/elisa-go/elisa/internal/mem"
	"github.com/elisa-go/elisa/internal/obs"
	"github.com/elisa-go/elisa/internal/overload"
	"github.com/elisa-go/elisa/internal/simtime"
	"github.com/elisa-go/elisa/internal/workload"
)

// TestObservedFleetReplayAllocsFlat: an armed, observed cluster fleet
// replay — rings, the poller, overload trims, shedding, cluster-wide
// admission buckets, a decision trace and a flight recorder on every
// shard — allocates per call and per window, never per op: once warm, a
// replay of four times the events over the same windows makes the same
// number of mallocs. Causal and decision records are fixed-size and
// hold interned ids, and the recorder's series are reached by handle.
func TestObservedFleetReplayAllocsFlat(t *testing.T) {
	const (
		shards  = 2
		tenants = 4
		slice   = 40 * simtime.Microsecond
		horizon = 4 * slice
	)
	c, err := New(Config{Shards: shards, Seed: 5, PhysBytes: 64 * 1024 * 1024, Observe: &obs.Config{}})
	if err != nil {
		t.Fatal(err)
	}
	// Each op costs 1 µs of service, so the dense trace overloads both
	// shards and every rung of the refusal ladder runs.
	const fnSlow = 2
	if err := c.RegisterFunc(fnSlow, func(cc *core.CallContext) (uint64, error) {
		cc.VCPU.Charge(simtime.Microsecond)
		return 0, nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tenants; i++ {
		obj := fmt.Sprintf("obs-%d", i)
		if err := c.Ring().Pin(obj, i%shards); err != nil {
			t.Fatal(err)
		}
		if _, err := c.CreateObject(obj, mem.PageSize); err != nil {
			t.Fatal(err)
		}
	}
	// A small decision cap fills during the warm-up, so the measured
	// replays only count past it.
	f, err := c.NewFleet(FleetConfig{
		Config: fleet.Config{
			Cores: 1, Seed: 5, QueueDepth: 32, RingDepth: 32, PollBudget: 16,
			Classes: 3, ShedLow: 0.15, ShedHigh: 0.4,
			Overload:  core.OverloadConfig{Enabled: true},
			Decisions: overload.NewDecisionTrace(256),
		},
		Slice:          slice,
		GlobalAdmitOPS: map[string]float64{"obs0": 1_000_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tenants; i++ {
		spec := fleet.TenantSpec{
			Name: fmt.Sprintf("obs%d", i), Objects: []string{fmt.Sprintf("obs-%d", i)},
			Fn: fnSlow, RateOPS: 1, Class: fleet.TenantClass(i % 3), Weight: 1 + i%2,
		}
		if _, err := f.Admit(spec); err != nil {
			t.Fatal(err)
		}
	}
	// trace spreads n events per tenant over the horizon in bursts of 32
	// simultaneous arrivals, which fill queues past the shed watermarks.
	trace := func(n int) *workload.Trace {
		tr := &workload.Trace{}
		gap := horizon / simtime.Duration(n/32)
		for k := 0; k < n; k++ {
			for i := 0; i < tenants; i++ {
				tr.Events = append(tr.Events, workload.Event{
					At: simtime.Time(simtime.Duration(k/32) * gap), Tenant: fmt.Sprintf("obs%d", i),
					Object: fmt.Sprintf("obs-%d", i), Fn: fnSlow,
				})
			}
		}
		return tr
	}
	sparse, dense := trace(256), trace(1024)
	replay := func(tr *workload.Trace) {
		if _, err := f.Replay(tr, horizon); err != nil {
			t.Fatal(err)
		}
	}
	replay(dense) // warm: scratch buffers, maps, histogram buckets, the decision cap
	replay(dense)
	before := c.Shard(0).Recorder().Causal().EventsSeen()
	// Averaged over five replays each, and allowed a couple of mallocs
	// of slack: the runtime's own background allocations (a GC cycle
	// starting) can land a stray one in either measurement, while a
	// per-op allocation would add thousands.
	short := testing.AllocsPerRun(5, func() { replay(sparse) })
	long := testing.AllocsPerRun(5, func() { replay(dense) })
	if long > short+2 {
		t.Fatalf("replaying %d events makes %v mallocs, %d events %v: allocations grow with the op count",
			len(sparse.Events), short, len(dense.Events), long)
	}
	if c.Shard(0).Recorder().Causal().EventsSeen() == before {
		t.Fatal("the recorder saw no events; the pin needs observation armed")
	}
	rep := f.Snapshot()
	var throttled, shed, completed uint64
	for _, tr := range rep.Tenants {
		throttled += tr.Throttled
		shed += tr.Shed
		completed += tr.Completed
	}
	if completed == 0 || throttled == 0 || shed == 0 {
		t.Fatalf("completed %d, throttled %d, shed %d: the pin needs work done, throttled and shed", completed, throttled, shed)
	}
}
