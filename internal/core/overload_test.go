package core

import (
	"testing"

	"github.com/elisa-go/elisa/internal/shm"
	"github.com/elisa-go/elisa/internal/simtime"
)

// TestOverloadRingDeadlineRestampAfterPollerDrain is the regression test
// for the stale firstPending bug: after the manager poller drains the
// ring behind the guest's back, the next lone Submit used to see the old
// deadline stamp, conclude its batch had expired, and burn a 196 ns gate
// crossing flushing a single descriptor the policy should have batched.
// The fix reconciles with the real queue and restarts the batching
// window at the now-oldest descriptor.
func TestOverloadRingDeadlineRestampAfterPollerDrain(t *testing.T) {
	f := newFixture(t)
	if _, err := f.mgr.CreateObject("obj", 4096); err != nil {
		t.Fatal(err)
	}
	vm, g := f.newGuest(t, "g")
	h, err := g.Attach("obj")
	if err != nil {
		t.Fatal(err)
	}
	v := vm.VCPU()
	const deadline = 10 * simtime.Microsecond
	rc, err := h.Ring(v, RingConfig{Depth: 16, Deadline: deadline})
	if err != nil {
		t.Fatal(err)
	}

	// Submit one op and let the poller — not the gate — drain it.
	if err := rc.Submit(v, fnNop); err != nil {
		t.Fatal(err)
	}
	if n, err := f.mgr.DrainRings(-1); err != nil || n != 1 {
		t.Fatalf("DrainRings = %d, %v, want 1 drained", n, err)
	}
	var comps [16]shm.Comp
	if n, err := rc.Poll(v, comps[:]); err != nil || n != 1 {
		t.Fatalf("Poll = %d, %v, want 1", n, err)
	}

	// Age the stale stamp far past the deadline, then submit again: the
	// queue holds only this one fresh descriptor, so no flush may fire.
	v.Charge(2 * deadline)
	before := v.Stats()
	if err := rc.Submit(v, fnNop); err != nil {
		t.Fatal(err)
	}
	if got := v.Stats().VMFuncs - before.VMFuncs; got != 0 {
		t.Fatalf("lone post-drain Submit took %d VMFuncs — spurious flush of a stale batch window", got)
	}
	if st := f.mgr.RingStats()[0]; st.Flushes != 0 {
		t.Fatalf("flushes = %d after poller drain + lone submit, want 0", st.Flushes)
	}

	// Once the *restarted* window genuinely expires, exactly one flush
	// carries the whole accumulated batch.
	v.Charge(2 * deadline)
	if err := rc.Submit(v, fnNop); err != nil {
		t.Fatal(err)
	}
	st := f.mgr.RingStats()[0]
	if st.Flushes != 1 || st.Flushed != 2 {
		t.Fatalf("flushes=%d flushed=%d after the restarted window expired, want 1 flush of 2", st.Flushes, st.Flushed)
	}
	if n, err := rc.Poll(v, comps[:]); err != nil || n != 2 {
		t.Fatalf("Poll = %d, %v, want the 2 batched completions", n, err)
	}
	if rc.Pending() != 0 {
		t.Fatalf("pending = %d after harvest", rc.Pending())
	}
}

// TestOverloadWeightedFairDrainBudget: a positive DrainRings budget is
// split across guests by poll weight, so one tenant's deep ring cannot
// monopolise the pass.
func TestOverloadWeightedFairDrainBudget(t *testing.T) {
	f := newFixture(t)
	if _, err := f.mgr.CreateObject("obj", 4096); err != nil {
		t.Fatal(err)
	}
	vmA, gA := f.newGuest(t, "heavy")
	vmB, gB := f.newGuest(t, "light")
	hA, err := gA.Attach("obj")
	if err != nil {
		t.Fatal(err)
	}
	hB, err := gB.Attach("obj")
	if err != nil {
		t.Fatal(err)
	}
	rcA, err := hA.Ring(vmA.VCPU(), RingConfig{Depth: 64, Deadline: farDeadline})
	if err != nil {
		t.Fatal(err)
	}
	rcB, err := hB.Ring(vmB.VCPU(), RingConfig{Depth: 64, Deadline: farDeadline})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.mgr.SetPollWeight(vmA, 4); err != nil {
		t.Fatal(err)
	}
	if err := f.mgr.SetPollWeight(vmB, 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		if err := rcA.Submit(vmA.VCPU(), fnNop); err != nil {
			t.Fatal(err)
		}
		if err := rcB.Submit(vmB.VCPU(), fnNop); err != nil {
			t.Fatal(err)
		}
	}

	// Budget 10 at weights 4:1 → proportional shares 8 and 2.
	if n, err := f.mgr.DrainRings(10); err != nil || n != 10 {
		t.Fatalf("DrainRings = %d, %v, want 10", n, err)
	}
	st := f.mgr.RingStats()
	if st[0].Drained != 8 || st[1].Drained != 2 {
		t.Fatalf("weighted split drained %d/%d, want 8/2", st[0].Drained, st[1].Drained)
	}

	// Work conservation: once the heavy guest's ring runs dry, its unused
	// share flows to the light guest instead of idling the poller.
	var comps [64]shm.Comp
	for {
		if n, err := f.mgr.DrainRings(24); err != nil {
			t.Fatal(err)
		} else if n == 0 {
			break
		}
		if _, err := rcA.Poll(vmA.VCPU(), comps[:]); err != nil {
			t.Fatal(err)
		}
		if _, err := rcB.Poll(vmB.VCPU(), comps[:]); err != nil {
			t.Fatal(err)
		}
	}
	st = f.mgr.RingStats()
	if st[0].Drained != 32 || st[1].Drained != 32 {
		t.Fatalf("final drained %d/%d, want 32/32 (leftover budget must be work-conserving)", st[0].Drained, st[1].Drained)
	}
}

// TestOverloadBusyBounceAndRetry: with overload control armed, a
// budget-exhausted drain pass trims the saturated ring by bouncing the
// excess back as CompBusy; a RingCaller with a retry policy transparently
// backs off on its own clock and re-submits, and every op still completes
// OK once capacity returns.
func TestOverloadBusyBounceAndRetry(t *testing.T) {
	f := newFixture(t)
	if err := f.mgr.SetOverload(OverloadConfig{Enabled: true, BusyFrac: 0.5}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.mgr.CreateObject("obj", 4096); err != nil {
		t.Fatal(err)
	}
	vm, g := f.newGuest(t, "g")
	h, err := g.Attach("obj")
	if err != nil {
		t.Fatal(err)
	}
	v := vm.VCPU()
	rc, err := h.Ring(v, RingConfig{Depth: 16, Deadline: farDeadline,
		Retry: RetryPolicy{MaxAttempts: 3, BaseBackoff: 2 * simtime.Microsecond, Seed: 5}})
	if err != nil {
		t.Fatal(err)
	}
	const ops = 12
	for i := 0; i < ops; i++ {
		if err := rc.Submit(v, fnNop); err != nil {
			t.Fatal(err)
		}
	}

	// Budget 2 against 12 queued: 2 drain, and the trim bounces the queue
	// down to BusyFrac×depth = 8, i.e. 2 CompBusy.
	if n, err := f.mgr.DrainRings(2); err != nil || n != 2 {
		t.Fatalf("DrainRings = %d, %v, want 2", n, err)
	}
	if st := f.mgr.RingStats()[0]; st.Busied != 2 {
		t.Fatalf("busied = %d after saturated pass, want 2", st.Busied)
	}

	// Poll delivers the 2 OK completions; the 2 bounces are swallowed,
	// backed off on the guest clock, and re-submitted.
	t0 := v.Clock().Now()
	var comps [16]shm.Comp
	n, err := rc.Poll(v, comps[:])
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("Poll = %d, want only the 2 OK completions", n)
	}
	for i := 0; i < n; i++ {
		if comps[i].Status != shm.CompOK {
			t.Fatalf("completion %d = %+v, want OK", i, comps[i])
		}
	}
	if v.Clock().Now().Sub(t0) < 2*(2*simtime.Microsecond) {
		t.Fatal("busy retries did not charge their backoff to the guest clock")
	}
	if st := f.mgr.RingStats()[0]; st.Retried != 2 {
		t.Fatalf("retried = %d, want 2", st.Retried)
	}

	// Capacity returns: everything completes OK, nothing is lost.
	done := 2
	for done < ops {
		if _, err := f.mgr.DrainRings(-1); err != nil {
			t.Fatal(err)
		}
		n, err := rc.Poll(v, comps[:])
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if comps[i].Status != shm.CompOK {
				t.Fatalf("completion %+v after retry, want OK", comps[i])
			}
		}
		done += n
	}
	if rc.Pending() != 0 {
		t.Fatalf("pending = %d after full harvest", rc.Pending())
	}
}

// TestOverloadBusyThenRevokeDeliversErr: CompBusy completions already on
// the ring when the attachment is revoked must surface as CompErr — the
// retry loop must not spin against a dead attachment.
func TestOverloadBusyThenRevokeDeliversErr(t *testing.T) {
	f := newFixture(t)
	if err := f.mgr.SetOverload(OverloadConfig{Enabled: true, BusyFrac: 0.5}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.mgr.CreateObject("obj", 4096); err != nil {
		t.Fatal(err)
	}
	vm, g := f.newGuest(t, "g")
	h, err := g.Attach("obj")
	if err != nil {
		t.Fatal(err)
	}
	v := vm.VCPU()
	rc, err := h.Ring(v, RingConfig{Depth: 16, Deadline: farDeadline,
		Retry: RetryPolicy{MaxAttempts: 3, Seed: 9}})
	if err != nil {
		t.Fatal(err)
	}
	const ops = 12
	for i := 0; i < ops; i++ {
		if err := rc.Submit(v, fnNop); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := f.mgr.DrainRings(2); err != nil || n != 2 {
		t.Fatalf("DrainRings = %d, %v, want 2", n, err)
	}
	// CQ now holds 2 OK + 2 CompBusy; revoke fails the 8 still queued.
	if err := f.mgr.Revoke(vm, "obj"); err != nil {
		t.Fatal(err)
	}
	var comps [16]shm.Comp
	n, err := rc.Poll(v, comps[:])
	if err != nil {
		t.Fatal(err)
	}
	if n != ops {
		t.Fatalf("Poll = %d, want all %d completions", n, ops)
	}
	okN, errN := 0, 0
	for i := 0; i < n; i++ {
		switch comps[i].Status {
		case shm.CompOK:
			okN++
		case shm.CompErr:
			errN++
		default:
			t.Fatalf("completion %d = %+v leaked CompBusy past a revoke", i, comps[i])
		}
	}
	if okN != 2 || errN != ops-2 {
		t.Fatalf("ok=%d err=%d, want 2/%d", okN, errN, ops-2)
	}
	st := f.mgr.RingStats()[0]
	if st.Retried != 0 {
		t.Fatalf("retried = %d against a revoked attachment, want 0", st.Retried)
	}
	if st.Failed != ops-4 || st.Busied != 2 {
		t.Fatalf("failed=%d busied=%d, want %d/2", st.Failed, st.Busied, ops-4)
	}
}

// TestOverloadCallPathStill196ns: arming overload control (and a retry
// policy on the ring) must not tax the single-op Call hot path — still
// exactly the paper's 196 ns.
func TestOverloadCallPathStill196ns(t *testing.T) {
	f := newFixture(t)
	if err := f.mgr.SetOverload(OverloadConfig{Enabled: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.mgr.CreateObject("obj", 4096); err != nil {
		t.Fatal(err)
	}
	vm, g := f.newGuest(t, "g")
	h, err := g.Attach("obj")
	if err != nil {
		t.Fatal(err)
	}
	v := vm.VCPU()
	if _, err := h.Ring(v, RingConfig{Depth: 64, Deadline: farDeadline,
		Retry: RetryPolicy{MaxAttempts: 3, Seed: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Call(v, fnNop); err != nil { // warm the TLB
		t.Fatal(err)
	}
	const iters = 100
	start := v.Clock().Now()
	for i := 0; i < iters; i++ {
		if _, err := h.Call(v, fnNop); err != nil {
			t.Fatal(err)
		}
	}
	if got := v.Clock().Elapsed(start) / iters; got != 196 {
		t.Fatalf("Call round trip with overload armed = %dns, want 196", int64(got))
	}
}

// SetOverload refuses a BusyFrac it would otherwise replace with 0.5
// (below 0, or at or above 1) and keeps the armed configuration; 0 still
// picks the documented default.
func TestSetOverloadRefusesBusyFracOutsideRange(t *testing.T) {
	cases := []struct {
		frac float64
		want float64 // the armed BusyFrac; -1 = refused
	}{
		{-0.25, -1},
		{1, -1},
		{1.5, -1},
		{0, 0.5},
		{0.25, 0.25},
		{0.999, 0.999},
	}
	f := newFixture(t)
	armed := OverloadConfig{Enabled: true, BusyFrac: 0.3}
	for _, c := range cases {
		if err := f.mgr.SetOverload(armed); err != nil {
			t.Fatal(err)
		}
		err := f.mgr.SetOverload(OverloadConfig{Enabled: true, BusyFrac: c.frac})
		if c.want < 0 {
			if err == nil {
				t.Errorf("BusyFrac %v accepted", c.frac)
			}
			if got := f.mgr.Overload(); got != armed {
				t.Errorf("BusyFrac %v refused but the armed config became %+v", c.frac, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("BusyFrac %v refused: %v", c.frac, err)
		} else if got := f.mgr.Overload().BusyFrac; got != c.want {
			t.Errorf("BusyFrac %v armed as %v, want %v", c.frac, got, c.want)
		}
	}
}
