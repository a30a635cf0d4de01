package fleet

import (
	"fmt"
	"testing"

	"github.com/elisa-go/elisa/internal/simtime"
)

// TestRingSchedulerRunAllocsFlat: a warm ring-mode scheduler with no
// decision trace and no recorder allocates per Run call, not per op —
// its queues and ring stamp FIFOs pop in place and reuse their backing
// arrays — so a run four times as long makes the same number of
// mallocs.
func TestRingSchedulerRunAllocsFlat(t *testing.T) {
	const base = 500 * simtime.Microsecond
	allocs := func(d simtime.Duration) float64 {
		r := newRig(t, 4, 0)
		s, err := New(r.hv, r.mgr, Config{
			Cores: 2, Seed: 42, QueueDepth: 64,
			RingDepth: 64, PollBudget: 64,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			spec := TenantSpec{
				Name:    fmt.Sprintf("t%d", i),
				Weight:  1 + i%2,
				Objects: []string{fmt.Sprintf("obj-%02d", i)},
				Fn:      fnNop,
				RateOPS: 2_000_000,
			}
			if _, err := s.Admit(spec); err != nil {
				t.Fatal(err)
			}
		}
		// Warm up on the longer run, so the latency histograms already
		// hold every bucket either measured run records into.
		if err := s.Run(4 * base); err != nil {
			t.Fatal(err)
		}
		n := testing.AllocsPerRun(1, func() {
			if err := s.Run(d); err != nil {
				t.Fatal(err)
			}
		})
		if s.Snapshot().Tenants[0].Completed == 0 {
			t.Fatal("tenant t0 completed nothing")
		}
		return n
	}
	short, long := allocs(base), allocs(4*base)
	if short != long {
		t.Fatalf("Run(%v) makes %v mallocs, Run(%v) makes %v: allocations grow with the run", base, short, 4*base, long)
	}
}

// TestWindowAllocsFlat: a scheduler window builds no report (callers
// that want one read Snapshot), so an empty replay window makes the same
// number of mallocs with one tenant as with sixteen. A report per window
// would grow its Tenants slice with every tenant.
func TestWindowAllocsFlat(t *testing.T) {
	allocs := func(tenants int) float64 {
		r := newRig(t, tenants, 0)
		s, err := New(r.hv, r.mgr, Config{Cores: 2, Seed: 7, QueueDepth: 16})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < tenants; i++ {
			spec := TenantSpec{
				Name: fmt.Sprintf("t%02d", i), Objects: []string{fmt.Sprintf("obj-%02d", i)},
				Fn: fnNop, RateOPS: 1,
			}
			if _, err := s.Admit(spec); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(10, func() {
			if err := s.ReplayOps(nil, 40*simtime.Microsecond); err != nil {
				t.Fatal(err)
			}
		})
	}
	if one, many := allocs(1), allocs(16); one != many {
		t.Fatalf("an empty window makes %v mallocs with 1 tenant, %v with 16", one, many)
	}
}
