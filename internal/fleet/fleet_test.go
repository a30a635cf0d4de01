package fleet

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/elisa-go/elisa/internal/core"
	"github.com/elisa-go/elisa/internal/hv"
	"github.com/elisa-go/elisa/internal/mem"
)

const fnNop uint64 = 1

type rig struct {
	hv  *hv.Hypervisor
	mgr *core.Manager
}

func newRig(t *testing.T, nObjects, slotBudget int) *rig {
	t.Helper()
	h, err := hv.New(hv.Config{PhysBytes: 256 * 1024 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.NewManager(h, core.ManagerConfig{SlotBudget: slotBudget})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RegisterFunc(fnNop, func(*core.CallContext) (uint64, error) { return 0, nil }); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nObjects; i++ {
		if _, err := m.CreateObject(fmt.Sprintf("obj-%02d", i), mem.PageSize); err != nil {
			t.Fatal(err)
		}
	}
	return &rig{hv: h, mgr: m}
}

func objects(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("obj-%02d", i)
	}
	return out
}

// Same seed, same tenant set: the two reports must be deeply identical —
// the scheduler is an event-ordered simulation, not a racy approximation.
func TestFleetDeterministicRuns(t *testing.T) {
	run := func() *Report {
		r := newRig(t, 6, 2)
		s, err := New(r.hv, r.mgr, Config{Cores: 2, Seed: 42, QueueDepth: 16})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			spec := TenantSpec{
				Name:    fmt.Sprintf("t%02d", i),
				Weight:  1 + i%3,
				Objects: objects(4), // working set 4 > budget 2: constant remaps
				Fn:      fnNop,
				RateOPS: 2_000_000,
			}
			if _, err := s.Admit(spec); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Run(2_000_000); err != nil { // 2ms simulated
			t.Fatal(err)
		}
		return s.Snapshot()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same-seed runs diverged:\n%+v\nvs\n%+v", a, b)
	}
	for _, tr := range a.Tenants {
		if tr.Completed == 0 {
			t.Fatalf("tenant %s completed nothing: %+v", tr.Name, tr)
		}
	}
}

// Under overload, completed work tracks the stride weights.
func TestFleetWeightedSharing(t *testing.T) {
	r := newRig(t, 2, 0)
	s, err := New(r.hv, r.mgr, Config{Cores: 1, Seed: 7, QueueDepth: 256})
	if err != nil {
		t.Fatal(err)
	}
	// Both tenants ask for far more than one core delivers (a hot call is
	// 196ns, so capacity is ~5.1M ops/s; each asks for 20M).
	specs := []TenantSpec{
		{Name: "light", Weight: 1, Objects: objects(1), Fn: fnNop, RateOPS: 20_000_000},
		{Name: "heavy", Weight: 3, Objects: objects(1), Fn: fnNop, RateOPS: 20_000_000},
	}
	for _, spec := range specs {
		if _, err := s.Admit(spec); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Run(5_000_000); err != nil {
		t.Fatal(err)
	}
	rep := s.Snapshot()
	light, heavy := rep.Tenants[0], rep.Tenants[1]
	if light.Dropped == 0 || heavy.Dropped == 0 {
		t.Fatalf("overload should drop: light=%+v heavy=%+v", light, heavy)
	}
	ratio := float64(heavy.Completed) / float64(light.Completed)
	if ratio < 2.5 || ratio > 3.5 {
		t.Fatalf("weight-3 tenant got %.2fx the weight-1 tenant's goodput, want ~3x (light %d, heavy %d)",
			ratio, light.Completed, heavy.Completed)
	}
}

// TestNewRejectsIgnoredConfig: a knob the fleet would otherwise ignore or
// silently clamp is an error, and the valid combinations — zero included,
// which keeps each documented default — still build.
func TestNewRejectsIgnoredConfig(t *testing.T) {
	r := newRig(t, 0, 0)
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"PollBudget without RingDepth", Config{PollBudget: 8}},
		{"poller disabled without RingDepth", Config{PollBudget: -1}},
		{"RingRetry without RingDepth", Config{RingRetry: core.RetryPolicy{MaxAttempts: 2}}},
		{"ShedLow without Classes", Config{ShedLow: 0.5}},
		{"ShedHigh without Classes", Config{ShedHigh: 0.9}},
		{"ShedAfter without Classes", Config{ShedAfter: 1000}},
		{"BusyFrac without Enabled", Config{Overload: core.OverloadConfig{BusyFrac: 0.5}}},
		{"negative BusyFrac", Config{Overload: core.OverloadConfig{Enabled: true, BusyFrac: -0.25}}},
		{"BusyFrac of 1", Config{Overload: core.OverloadConfig{Enabled: true, BusyFrac: 1}}},
		{"too many classes", Config{Classes: MaxTenantClasses + 1}},
	} {
		if _, err := New(r.hv, r.mgr, tc.cfg); err == nil {
			t.Errorf("%s: New accepted %+v", tc.name, tc.cfg)
		}
	}
	for _, cfg := range []Config{
		{},
		{RingDepth: 16, PollBudget: -1, RingRetry: core.RetryPolicy{MaxAttempts: 2}},
		{Classes: 2, ShedLow: 0.5, ShedHigh: 0.9, ShedAfter: 1000},
		{Overload: core.OverloadConfig{Enabled: true}},
		{Overload: core.OverloadConfig{Enabled: true, BusyFrac: 0.25}},
	} {
		if _, err := New(r.hv, r.mgr, cfg); err != nil {
			t.Errorf("New refused valid %+v: %v", cfg, err)
		}
	}
}

// A tenant at 1e-12 ops/s draws gaps too long for a Duration; they
// saturate, so it never arrives in a millisecond's run (a gap that
// wrapped to 1 ns arrived about once a nanosecond).
func TestFleetIdleTenantNeverArrives(t *testing.T) {
	r := newRig(t, 1, 0)
	s, err := New(r.hv, r.mgr, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Admit(TenantSpec{Name: "idle", Objects: objects(1), Fn: fnNop, RateOPS: 1e-12}); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	rep := s.Snapshot()
	if tr := rep.Tenants[0]; tr.Submitted != 0 {
		t.Fatalf("a 1e-12 ops/s tenant submitted %d ops in 1 ms", tr.Submitted)
	}
}

// Adopt takes only a tenant Evict released: one still on a scheduler —
// another over the same manager, or the adopting one — is refused.
func TestFleetAdoptRefusesTenantOnAScheduler(t *testing.T) {
	r := newRig(t, 1, 0)
	a, err := New(r.hv, r.mgr, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(r.hv, r.mgr, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tn, err := a.Admit(TenantSpec{Name: "t", Objects: objects(1), Fn: fnNop, RateOPS: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Adopt(tn); err == nil {
		t.Fatal("Adopt took a tenant still on another scheduler")
	}
	if err := a.Evict(tn); err != nil {
		t.Fatal(err)
	}
	if err := b.Adopt(tn); err != nil {
		t.Fatal(err)
	}
	if err := b.Adopt(tn); err == nil {
		t.Fatal("Adopt took a tenant already on the adopting scheduler")
	}
	if n := len(a.Tenants()) + len(b.Tenants()); n != 1 {
		t.Fatalf("the tenant is listed %d times across both schedulers", n)
	}
}

// Bounded queues: a tenant beyond capacity drops instead of growing an
// unbounded backlog, and the queue high-water mark respects the bound.
func TestFleetQueueBackpressure(t *testing.T) {
	r := newRig(t, 1, 0)
	s, err := New(r.hv, r.mgr, Config{Cores: 1, Seed: 3, QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Admit(TenantSpec{Name: "flood", Objects: objects(1), Fn: fnNop, RateOPS: 50_000_000}); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	rep := s.Snapshot()
	tr := rep.Tenants[0]
	if tr.Dropped == 0 {
		t.Fatalf("flooded tenant dropped nothing: %+v", tr)
	}
	if tr.MaxQueue > 8 {
		t.Fatalf("queue exceeded bound: %d > 8", tr.MaxQueue)
	}
	if tr.Submitted != tr.Completed+tr.Dropped+uint64(0) && tr.Submitted < tr.Completed+tr.Dropped {
		t.Fatalf("accounting: submitted %d < completed %d + dropped %d", tr.Submitted, tr.Completed, tr.Dropped)
	}
	if tr.GoodputOPS <= 0 {
		t.Fatalf("no goodput: %+v", tr)
	}
}

// A fleet whose tenants oversubscribe their slot budgets runs kill-free:
// every miss re-negotiates through HCSlotFault, never an EPT violation.
func TestFleetOversubscribedSlotsKillFree(t *testing.T) {
	r := newRig(t, 8, 2)
	s, err := New(r.hv, r.mgr, Config{Cores: 4, Seed: 11, QueueDepth: 32})
	if err != nil {
		t.Fatal(err)
	}
	const n = 24
	for i := 0; i < n; i++ {
		if _, err := s.Admit(TenantSpec{
			Name:    fmt.Sprintf("t%02d", i),
			Objects: objects(8), // 4x the slot budget
			Fn:      fnNop,
			RateOPS: 1_000_000,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Run(2_000_000); err != nil {
		t.Fatal(err)
	}
	rep := s.Snapshot()
	for i, tn := range s.Tenants() {
		if tn.VM().Dead() {
			t.Fatalf("tenant %d killed", i)
		}
	}
	totalFaults := uint64(0)
	for _, ss := range r.mgr.SlotStats() {
		if ss.Backed > 2 {
			t.Fatalf("over budget: %+v", ss)
		}
		totalFaults += ss.Faults
	}
	if totalFaults == 0 {
		t.Fatal("oversubscribed fleet never faulted — slots not actually contended")
	}
	for _, tr := range rep.Tenants {
		if tr.Completed == 0 {
			t.Fatalf("tenant %s starved: %+v", tr.Name, tr)
		}
	}
	if err := r.mgr.Fsck(); err != nil {
		t.Fatal(err)
	}
}
