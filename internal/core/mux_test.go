package core

import (
	"testing"

	"github.com/elisa-go/elisa/internal/hv"
	"github.com/elisa-go/elisa/internal/obs"
	"github.com/elisa-go/elisa/internal/shm"
)

// muxFixture builds a guest with nObjects objects and a RingMux with one
// lane per object. reroute wires the mux's Reroute to re-attach the
// lane's object and negotiate a fresh ring (the single-machine analogue
// of the cluster's re-resolve-and-reattach).
func muxFixture(t *testing.T, nObjects, depth int, reroute bool) (*fixture, *hv.VM, *RingMux, []string) {
	t.Helper()
	f := newFixture(t)
	names := make([]string, nObjects)
	for i := range names {
		names[i] = string(rune('a' + i))
		if _, err := f.mgr.CreateObject(names[i], 4096); err != nil {
			t.Fatal(err)
		}
	}
	vm, g := f.newGuest(t, "g")
	v := vm.VCPU()
	lane := func(i int) (*RingCaller, error) {
		h, err := g.Attach(names[i])
		if err != nil {
			return nil, err
		}
		return h.Ring(v, RingConfig{Depth: depth, Deadline: farDeadline})
	}
	lanes := make([]*RingCaller, nObjects)
	for i := range lanes {
		rc, err := lane(i)
		if err != nil {
			t.Fatal(err)
		}
		lanes[i] = rc
	}
	cfg := RingMuxConfig{}
	if reroute {
		cfg.Reroute = lane
	}
	mx, err := NewRingMux(cfg, lanes...)
	if err != nil {
		t.Fatal(err)
	}
	return f, vm, mx, names
}

// TestRingMuxWrapAround pushes many times each lane's capacity through a
// two-lane mux so the underlying rings wrap repeatedly, and checks every
// submission surfaces exactly once, on the right lane, in lane order.
func TestRingMuxWrapAround(t *testing.T) {
	const depth, rounds = 8, 7
	_, _, mx, _ := muxFixture(t, 2, depth, false)
	var comps [2 * depth]shm.Comp
	perLane := [2]uint64{}
	for r := 0; r < rounds; r++ {
		for i := 0; i < depth; i++ {
			for lane := 0; lane < 2; lane++ {
				if err := mx.Submit(lane, fnObjAdd, 1); err != nil {
					t.Fatalf("round %d submit lane %d: %v", r, lane, err)
				}
			}
		}
		got := 0
		for got < 2*depth {
			n, err := mx.Poll(comps[got:])
			if err != nil {
				t.Fatal(err)
			}
			if n == 0 {
				t.Fatalf("round %d: mux went dry at %d of %d completions", r, got, 2*depth)
			}
			got += n
		}
		for _, c := range comps[:got] {
			if c.Status != shm.CompOK {
				t.Fatalf("round %d: completion failed: %+v", r, c)
			}
			if c.Trace&DefaultMuxTraceBase == 0 {
				t.Fatalf("completion trace %#x not mux-minted", c.Trace)
			}
			// fnObjAdd returns the object's running counter: attribute the
			// completion to its lane by which counter it extends.
			switch {
			case c.Ret == perLane[0]+1:
				perLane[0]++
			case c.Ret == perLane[1]+1:
				perLane[1]++
			default:
				t.Fatalf("round %d: completion value %d matches no lane (lane counters %v)", r, c.Ret, perLane)
			}
		}
	}
	if perLane[0] != rounds*depth || perLane[1] != rounds*depth {
		t.Fatalf("per-lane completions %v, want %d each", perLane, rounds*depth)
	}
	if mx.Pending() != 0 {
		t.Fatalf("pending = %d after draining everything", mx.Pending())
	}
}

// TestRingMuxRevokeMidFanoutNoStrand revokes one lane's object with
// descriptors in flight on both lanes and no re-route armed: the dead
// lane's descriptors must every one surface as CompErr — including ones
// still queued in the submission queue — and the live lane must be
// untouched.
func TestRingMuxRevokeMidFanoutNoStrand(t *testing.T) {
	const depth = 16
	f, vm, mx, names := muxFixture(t, 2, depth, false)
	const queued = 5
	submitted := map[uint64]int{} // trace -> lane
	for i := 0; i < queued; i++ {
		for lane := 0; lane < 2; lane++ {
			if err := mx.Submit(lane, fnObjAdd, 1); err != nil {
				t.Fatal(err)
			}
			submitted[mx.cfg.TraceBase|mx.seq&0xffffffff] = lane
		}
	}
	if err := f.mgr.Revoke(vm, names[0]); err != nil {
		t.Fatal(err)
	}
	var comps [4 * depth]shm.Comp
	got := []shm.Comp{}
	for len(got) < 2*queued {
		n, err := mx.Poll(comps[:])
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			// The live lane may still be holding its batch: flush and retry
			// once per dry poll.
			if err := mx.Flush(); err != nil {
				t.Fatal(err)
			}
			n, err = mx.Poll(comps[:])
			if err != nil {
				t.Fatal(err)
			}
			if n == 0 {
				t.Fatalf("mux went dry at %d of %d completions — descriptors stranded", len(got), 2*queued)
			}
		}
		got = append(got, comps[:n]...)
	}
	if mx.Pending() != 0 {
		t.Fatalf("pending = %d after the fan-out drained", mx.Pending())
	}
	seen := map[uint64]bool{}
	for _, c := range got {
		lane, ok := submitted[c.Trace]
		if !ok {
			t.Fatalf("completion with unknown trace %#x", c.Trace)
		}
		if seen[c.Trace] {
			t.Fatalf("trace %#x delivered twice", c.Trace)
		}
		seen[c.Trace] = true
		switch lane {
		case 0:
			if c.Status != shm.CompErr {
				t.Errorf("dead-lane trace %#x status %d, want CompErr", c.Trace, c.Status)
			}
		case 1:
			if c.Status != shm.CompOK {
				t.Errorf("live-lane trace %#x status %d, want CompOK", c.Trace, c.Status)
			}
		}
	}
	if len(seen) != 2*queued {
		t.Fatalf("delivered %d distinct traces, want %d", len(seen), 2*queued)
	}
}

// TestRingMuxRerouteAfterRevoke revokes a lane mid-flight with re-route
// armed: the failed descriptors must be re-submitted on a fresh ring
// under their original traces and complete OK — the caller never sees
// the revocation.
func TestRingMuxRerouteAfterRevoke(t *testing.T) {
	const depth = 16
	f, vm, mx, names := muxFixture(t, 2, depth, true)
	const queued = 6
	want := map[uint64]bool{}
	for i := 0; i < queued; i++ {
		for lane := 0; lane < 2; lane++ {
			if err := mx.Submit(lane, fnObjAdd, 1); err != nil {
				t.Fatal(err)
			}
			want[mx.cfg.TraceBase|mx.seq&0xffffffff] = true
		}
	}
	oldLane0 := mx.Lane(0)
	if err := f.mgr.Revoke(vm, names[0]); err != nil {
		t.Fatal(err)
	}
	var comps [4 * depth]shm.Comp
	got := []shm.Comp{}
	for len(got) < 2*queued {
		if err := mx.Flush(); err != nil {
			t.Fatal(err)
		}
		n, err := mx.Poll(comps[:])
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 && len(got) < 2*queued {
			t.Fatalf("mux went dry at %d of %d completions", len(got), 2*queued)
		}
		got = append(got, comps[:n]...)
	}
	for _, c := range got {
		if !want[c.Trace] {
			t.Fatalf("completion with unknown or repeated trace %#x", c.Trace)
		}
		delete(want, c.Trace)
		if c.Status != shm.CompOK {
			t.Errorf("trace %#x status %d after re-route, want CompOK", c.Trace, c.Status)
		}
	}
	if len(want) != 0 {
		t.Fatalf("%d submissions never surfaced", len(want))
	}
	if mx.Rerouted() == 0 {
		t.Fatal("revocation with re-route armed re-routed nothing")
	}
	if mx.Lane(0) == oldLane0 {
		t.Fatal("lane 0 still points at the dead ring")
	}
	if mx.Pending() != 0 {
		t.Fatalf("pending = %d after the fan-out drained", mx.Pending())
	}
}

// TestRingMuxRerouteKeepsOneCausalChain: on one manager, a descriptor
// the mux re-routes after a revocation keeps one causal chain — submit,
// fail, retry on the replacement ring, … deliver — and the completion
// the mux swallows emits no deliver. So every op yields exactly one
// total-phase sample, and the samples sum to the rendered chain totals.
func TestRingMuxRerouteKeepsOneCausalChain(t *testing.T) {
	const depth, queued = 16, 6
	f, vm, mx, names := muxFixture(t, 2, depth, true)
	rec := obs.NewRecorder(obs.Config{})
	f.mgr.SetRecorder(rec)
	for i := 0; i < queued; i++ {
		for lane := 0; lane < 2; lane++ {
			if err := mx.Submit(lane, fnObjAdd, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := f.mgr.Revoke(vm, names[0]); err != nil {
		t.Fatal(err)
	}
	var comps [4 * depth]shm.Comp
	for got := 0; got < 2*queued; {
		if err := mx.Flush(); err != nil {
			t.Fatal(err)
		}
		n, err := mx.Poll(comps[:])
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			t.Fatalf("mux went dry at %d of %d completions", got, 2*queued)
		}
		got += n
	}
	if mx.Rerouted() != queued {
		t.Fatalf("re-routed %d descriptors, want %d", mx.Rerouted(), queued)
	}
	log := rec.Causal()
	traces := log.Traces()
	if len(traces) != 2*queued {
		t.Fatalf("%d traces, want %d", len(traces), 2*queued)
	}
	var rendered int64
	retried := 0
	for _, tr := range traces {
		chain := log.Chain(tr)
		delivers := 0
		for _, e := range chain {
			switch e.Kind {
			case obs.EvDeliver:
				delivers++
			case obs.EvRetry:
				retried++
			}
		}
		last := chain[len(chain)-1]
		if delivers != 1 || last.Kind != obs.EvDeliver || last.Note != "" {
			t.Fatalf("trace %#x: %d delivers, ends in %s (%q), want one clean deliver at the end:\n%s",
				tr, delivers, last.Kind, last.Note, log.RenderChain(tr))
		}
		rendered += int64(last.Time.Sub(chain[0].Time))
	}
	if retried != queued {
		t.Fatalf("%d re-route retries in the chains, want %d", retried, queued)
	}
	total := log.PhaseHistogram(obs.RingPhaseTotal)
	if total.Count() != 2*queued || total.Sum() != rendered {
		t.Fatalf("total phase: %d samples summing %d ns, want %d summing %d ns (the rendered chain totals)",
			total.Count(), total.Sum(), 2*queued, rendered)
	}
}

// TestRingDeadRingSweepAfterCQFull reproduces the completion-queue-full
// stranding window: a full CQ of unharvested successes plus queued
// descriptors at revocation time. failRing can only fail what fits in
// the CQ; the dead-ring sweep in Poll must surface the rest — no
// descriptor is ever stranded, even without a mux.
func TestRingDeadRingSweepAfterCQFull(t *testing.T) {
	const depth = 8
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
	rc, err := h.Ring(v, RingConfig{Depth: depth, Deadline: farDeadline})
	if err != nil {
		t.Fatal(err)
	}
	// Fill the CQ with unharvested successes: depth submissions flush as
	// one batch when the ring fills.
	for i := 0; i < depth; i++ {
		if err := rc.Submit(v, fnObjAdd, 1); err != nil {
			t.Fatal(err)
		}
	}
	// Queue more behind them (enqueue only; no flush — farDeadline).
	const extra = 6
	for i := 0; i < extra; i++ {
		if err := rc.Submit(v, fnObjAdd, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.mgr.Revoke(vm, "obj"); err != nil {
		t.Fatal(err)
	}
	// Drain everything: depth successes plus extra administrative
	// failures, however many Polls it takes.
	okN, errN := 0, 0
	var comps [depth]shm.Comp
	for okN+errN < depth+extra {
		n, err := rc.Poll(v, comps[:])
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			t.Fatalf("ring went dry at %d of %d completions — stranded descriptors", okN+errN, depth+extra)
		}
		for _, c := range comps[:n] {
			if c.Status == shm.CompOK {
				okN++
			} else {
				errN++
			}
		}
	}
	if okN != depth || errN != extra {
		t.Fatalf("drained %d OK + %d failed, want %d + %d", okN, errN, depth, extra)
	}
	if rc.Pending() != 0 {
		t.Fatalf("pending = %d after the sweep", rc.Pending())
	}
}
