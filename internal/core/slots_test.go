package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"github.com/elisa-go/elisa/internal/hv"
	"github.com/elisa-go/elisa/internal/mem"
	"github.com/elisa-go/elisa/internal/simtime"
	"github.com/elisa-go/elisa/internal/trace"
)

// slotFixture builds a manager with an explicit per-guest slot budget and
// a trace ring, the harness for the slot-virtualisation tests.
func slotFixture(t *testing.T, budget int, physBytes int) *fixture {
	t.Helper()
	if physBytes == 0 {
		physBytes = 64 * 1024 * 1024
	}
	h, err := hv.New(hv.Config{PhysBytes: physBytes, TraceEvents: 4096})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(h, ManagerConfig{SlotBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RegisterFunc(fnNop, func(c *CallContext) (uint64, error) { return 0, nil }); err != nil {
		t.Fatal(err)
	}
	if err := m.RegisterFunc(fnObjAdd, func(c *CallContext) (uint64, error) {
		v, err := c.ObjectU64(0)
		if err != nil {
			return 0, err
		}
		v += c.Args[0]
		return v, c.SetObjectU64(0, v)
	}); err != nil {
		t.Fatal(err)
	}
	return &fixture{hv: h, mgr: m}
}

// Satellite: Detach and Revoke must return their physical slot to the
// free pool, and a later Attach must reuse it (while virtual slot IDs are
// never reused).
func TestFleetSlotRecycling(t *testing.T) {
	f := newFixture(t)
	for _, n := range []string{"a", "b", "c", "d"} {
		if _, err := f.mgr.CreateObject(n, mem.PageSize); err != nil {
			t.Fatal(err)
		}
	}
	vm, g := f.newGuest(t, "g")
	ha, _ := g.Attach("a")
	hb, _ := g.Attach("b")
	aa, _ := f.mgr.Attachment(vm, "a")
	ab, _ := f.mgr.Attachment(vm, "b")
	if aa.PhysIndex() != firstSubIdx || ab.PhysIndex() != firstSubIdx+1 {
		t.Fatalf("phys slots = %d,%d, want %d,%d", aa.PhysIndex(), ab.PhysIndex(), firstSubIdx, firstSubIdx+1)
	}

	gs := f.mgr.guests[vm.ID()]
	occBefore := gs.list.Occupied()

	// Detach "a": its physical slot must return to the pool.
	if err := g.Detach("a"); err != nil {
		t.Fatal(err)
	}
	if gs.list.Occupied() != occBefore-1 {
		t.Fatalf("detach did not free the list slot: occupied %d -> %d", occBefore, gs.list.Occupied())
	}
	if idx, ok := gs.list.FindFree(firstSubIdx); !ok || idx != firstSubIdx {
		t.Fatalf("freed slot not findable: (%d,%v)", idx, ok)
	}

	// Attach "c": reuses the physical slot, but NOT the virtual slot.
	hc, err := g.Attach("c")
	if err != nil {
		t.Fatal(err)
	}
	ac, _ := f.mgr.Attachment(vm, "c")
	if ac.PhysIndex() != firstSubIdx {
		t.Fatalf("attach after detach got phys %d, want recycled %d", ac.PhysIndex(), firstSubIdx)
	}
	if hc.SubIndex() == ha.SubIndex() {
		t.Fatalf("virtual slot %d reused", hc.SubIndex())
	}
	if _, err := hc.Call(vm.VCPU(), fnNop); err != nil {
		t.Fatal(err)
	}

	// Revoke "b": same story.
	physB := ab.PhysIndex()
	if err := f.mgr.Revoke(vm, "b"); err != nil {
		t.Fatal(err)
	}
	hd, err := g.Attach("d")
	if err != nil {
		t.Fatal(err)
	}
	ad, _ := f.mgr.Attachment(vm, "d")
	if ad.PhysIndex() != physB {
		t.Fatalf("attach after revoke got phys %d, want recycled %d", ad.PhysIndex(), physB)
	}
	if hd.SubIndex() == hb.SubIndex() {
		t.Fatalf("virtual slot %d reused after revoke", hd.SubIndex())
	}
	if _, err := hd.Call(vm.VCPU(), fnNop); err != nil {
		t.Fatal(err)
	}
	if err := f.mgr.Fsck(); err != nil {
		t.Fatal(err)
	}
}

// The hot/cold contract of the virtualised fast path, pinned to the
// paper's numbers: a backed slot costs exactly the Table 2 196 ns; a
// faulting one costs exactly 196 plus one 699 ns hypercall round trip —
// nothing else, because eviction keeps contexts and TLB entries alive.
func TestFleetHotColdRTT(t *testing.T) {
	f := slotFixture(t, 1, 0) // one backed slot: two handles thrash
	_, _ = f.mgr.CreateObject("x", mem.PageSize)
	_, _ = f.mgr.CreateObject("y", mem.PageSize)
	vm, g := f.newGuest(t, "g")
	hx, _ := g.Attach("x")
	hy, _ := g.Attach("y")
	v := vm.VCPU()
	cost := v.Cost()

	// Warm both contexts' TLB entries once (first entry page-walks).
	if _, err := hx.Call(v, fnNop); err != nil {
		t.Fatal(err)
	}
	if _, err := hy.Call(v, fnNop); err != nil {
		t.Fatal(err)
	}

	measure := func(h *Handle) simtime.Duration {
		start := v.Clock().Now()
		if _, err := h.Call(v, fnNop); err != nil {
			t.Fatal(err)
		}
		return v.Clock().Elapsed(start)
	}

	// x is cold now (y owns the only slot): exactly one extra exit.
	cold := measure(hx)
	if want := cost.ELISARoundTrip() + cost.VMCallRoundTrip(); cold != want {
		t.Fatalf("cold call = %dns, want exactly %d (196 + 699)", int64(cold), int64(want))
	}
	// x again, hot: exactly the Table 2 fast path.
	hot := measure(hx)
	if want := cost.ELISARoundTrip(); hot != want {
		t.Fatalf("hot call = %dns, want exactly %d (Table 2)", int64(hot), int64(want))
	}

	// The slow path left its forensic trail.
	if evs := f.hv.Trace().Filter(trace.KindSlotFault, "g"); len(evs) == 0 {
		t.Fatal("no slot-fault trace events")
	}
	if evs := f.hv.Trace().Filter(trace.KindSlotEvict, "g"); len(evs) == 0 {
		t.Fatal("no slot-evict trace events")
	}
}

// LRU policy: with budget 2 and round-robin over 3 objects, every call
// faults (the victim is always the next object to be called); with the
// working set inside the budget, none do.
func TestFleetLRUEviction(t *testing.T) {
	f := slotFixture(t, 2, 0)
	for i := 0; i < 3; i++ {
		_, _ = f.mgr.CreateObject(fmt.Sprintf("o%d", i), mem.PageSize)
	}
	vm, g := f.newGuest(t, "g")
	hs := make([]*Handle, 3)
	for i := range hs {
		hs[i], _ = g.Attach(fmt.Sprintf("o%d", i))
	}
	v := vm.VCPU()

	// Round-robin over all three: LRU thrashes on every call.
	for round := 0; round < 5; round++ {
		for _, h := range hs {
			if _, err := h.Call(v, fnNop); err != nil {
				t.Fatal(err)
			}
		}
	}
	ss := f.mgr.SlotStats()
	if len(ss) != 1 {
		t.Fatalf("slot stats: %d guests", len(ss))
	}
	// o2 is unbacked at attach (budget full), so round 1 faults 3 times
	// and every later round faults 3 more.
	if ss[0].Faults < 10 || ss[0].Evictions < 10 {
		t.Fatalf("round-robin over budget should thrash: %+v", ss[0])
	}
	if ss[0].Backed != 2 || ss[0].Live != 3 || ss[0].Budget != 2 {
		t.Fatalf("slot accounting: %+v", ss[0])
	}

	// Working set of 2 fits: steady state takes zero further faults.
	before := ss[0].Faults
	for round := 0; round < 5; round++ {
		for _, h := range hs[:2] {
			if _, err := h.Call(v, fnNop); err != nil {
				t.Fatal(err)
			}
		}
	}
	ss = f.mgr.SlotStats()
	// The first calls of the pair may fault once each to re-bind, then
	// nothing.
	if ss[0].Faults > before+2 {
		t.Fatalf("working set within budget kept faulting: %d -> %d", before, ss[0].Faults)
	}
	if err := f.mgr.Fsck(); err != nil {
		t.Fatal(err)
	}
}

// Satellite: the miss path at scale — more attachments than one EPTP list
// has slots, spread over many guests and driven concurrently (one
// goroutine per guest, as a fleet harness would), with zero kills and
// consistent bookkeeping. Run under -race this also proves the manager's
// locking.
func TestFleetMissPathManyGuestsKillFree(t *testing.T) {
	const (
		nGuests   = 32
		nObjects  = 20 // 32*20 = 640 attachments > 512 list entries
		budget    = 4  // 128 backed machine-wide
		nCalls    = 8
		physBytes = 512 * 1024 * 1024
	)
	f := slotFixture(t, budget, physBytes)
	for i := 0; i < nObjects; i++ {
		if _, err := f.mgr.CreateObject(fmt.Sprintf("obj-%02d", i), mem.PageSize); err != nil {
			t.Fatal(err)
		}
	}
	type tenant struct {
		vm *hv.VM
		hs []*Handle
	}
	tenants := make([]tenant, nGuests)
	for i := range tenants {
		vm, g := f.newGuest(t, fmt.Sprintf("g%02d", i))
		hs := make([]*Handle, nObjects)
		for j := range hs {
			h, err := g.Attach(fmt.Sprintf("obj-%02d", j))
			if err != nil {
				t.Fatalf("guest %d attach %d: %v", i, j, err)
			}
			hs[j] = h
		}
		tenants[i] = tenant{vm: vm, hs: hs}
	}

	// Drive every guest from its own goroutine; each cycles its whole
	// working set (5x the budget) so the miss path runs constantly.
	var wg sync.WaitGroup
	errs := make([]error, nGuests)
	for i := range tenants {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tn := tenants[i]
			v := tn.vm.VCPU()
			for c := 0; c < nCalls; c++ {
				for _, h := range tn.hs {
					if _, err := h.Call(v, fnNop); err != nil {
						errs[i] = err
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("guest %d: %v", i, err)
		}
	}
	for i := range tenants {
		if tenants[i].vm.Dead() {
			t.Fatalf("guest %d was killed — the miss path must never kill", i)
		}
	}
	if evs := f.hv.Trace().Filter(trace.KindKill, ""); len(evs) != 0 {
		t.Fatalf("kills in trace: %v", evs)
	}

	// Machine-wide: no guest exceeds its budget; all stats add up.
	total := 0
	for _, ss := range f.mgr.SlotStats() {
		if ss.Backed > budget {
			t.Fatalf("%s over budget: %+v", ss.Guest, ss)
		}
		if ss.Live != nObjects {
			t.Fatalf("%s live=%d, want %d", ss.Guest, ss.Live, nObjects)
		}
		total += ss.Backed
	}
	if total > nGuests*budget {
		t.Fatalf("backed slots machine-wide: %d", total)
	}
	if err := f.mgr.Fsck(); err != nil {
		t.Fatal(err)
	}
}

// A guest whose attachments outnumber the whole EPTP list still works:
// the 600th object attaches unbacked and every call completes.
func TestFleetSingleGuestOverListCapacity(t *testing.T) {
	if testing.Short() {
		t.Skip("600 attachments is slow in -short mode")
	}
	const n = 600 // > 510 backable sub slots
	f := slotFixture(t, 0, 2048*1024*1024)
	for i := 0; i < n; i++ {
		if _, err := f.mgr.CreateObject(fmt.Sprintf("o-%03d", i), mem.PageSize); err != nil {
			t.Fatal(err)
		}
	}
	vm, g := f.newGuest(t, "big")
	hs := make([]*Handle, n)
	for i := range hs {
		h, err := g.Attach(fmt.Sprintf("o-%03d", i))
		if err != nil {
			t.Fatalf("attach %d: %v", i, err)
		}
		hs[i] = h
	}
	v := vm.VCPU()
	for i, h := range hs {
		if _, err := h.Call(v, fnObjAdd, uint64(i)); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if vm.Dead() {
		t.Fatal("over-capacity guest was killed")
	}
	ss := f.mgr.SlotStats()
	if ss[0].Backed != 510 || ss[0].Live != n {
		t.Fatalf("slot stats: %+v", ss[0])
	}
	if ss[0].Faults == 0 || ss[0].Evictions == 0 {
		t.Fatalf("expected faults+evictions past list capacity: %+v", ss[0])
	}
	if err := f.mgr.Fsck(); err != nil {
		t.Fatal(err)
	}
}

// Stale handles after detach resolve to a clean gate refusal even when
// their old physical slot has been recycled to a *different* attachment —
// the gate validates the whole (vslot -> phys) binding, so a stale handle
// can never enter someone else's sub context.
func TestFleetStaleHandleAfterRecycling(t *testing.T) {
	f := newFixture(t)
	_, _ = f.mgr.CreateObject("old", mem.PageSize)
	_, _ = f.mgr.CreateObject("new", mem.PageSize)
	vm, g := f.newGuest(t, "g")
	hOld, _ := g.Attach("old")
	oldAtt, _ := f.mgr.Attachment(vm, "old")
	oldPhys := oldAtt.PhysIndex()
	if err := g.Detach("old"); err != nil {
		t.Fatal(err)
	}
	hNew, _ := g.Attach("new")
	newAtt, _ := f.mgr.Attachment(vm, "new")
	if newAtt.PhysIndex() != oldPhys {
		t.Fatalf("phys slot not recycled: %d vs %d", newAtt.PhysIndex(), oldPhys)
	}
	// The stale handle must be refused, not routed into "new"'s context.
	if _, err := hOld.Call(vm.VCPU(), fnNop); err == nil {
		t.Fatal("stale handle entered a recycled slot")
	}
	if vm.Dead() {
		t.Fatal("stale handle killed the guest")
	}
	if _, err := hNew.Call(vm.VCPU(), fnNop); err != nil {
		t.Fatal(err)
	}
}

// NewManager refuses a SlotBudget outside [0, MaxSlotBudget] rather than
// running with the whole list as if it were unset; 0 still means the
// whole list.
func TestNewManagerRefusesSlotBudgetOutsideList(t *testing.T) {
	cases := []struct {
		budget int
		want   int // the per-guest budget the manager runs with; -1 = refused
	}{
		{-1, -1},
		{MaxSlotBudget + 1, -1},
		{0, MaxSlotBudget},
		{1, 1},
		{MaxSlotBudget, MaxSlotBudget},
	}
	for _, c := range cases {
		h, err := hv.New(hv.Config{PhysBytes: 64 * 1024 * 1024})
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewManager(h, ManagerConfig{SlotBudget: c.budget})
		if c.want < 0 {
			if err == nil || !strings.Contains(err.Error(), fmt.Sprint(MaxSlotBudget)) {
				t.Errorf("SlotBudget %d: error %v, want one naming the limit %d", c.budget, err, MaxSlotBudget)
			}
			continue
		}
		if err != nil {
			t.Errorf("SlotBudget %d refused: %v", c.budget, err)
			continue
		}
		if m.slotBudget != c.want {
			t.Errorf("SlotBudget %d: manager runs with %d, want %d", c.budget, m.slotBudget, c.want)
		}
	}
}
