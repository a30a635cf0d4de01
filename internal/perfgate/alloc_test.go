package perfgate

import (
	"testing"

	"github.com/elisa-go/elisa/internal/core"
	"github.com/elisa-go/elisa/internal/hv"
	"github.com/elisa-go/elisa/internal/obs"
	"github.com/elisa-go/elisa/internal/shm"
	"github.com/elisa-go/elisa/internal/simtime"
)

// Zero-allocation pins for the simulator's hot paths. The benchdiff
// trajectory gate catches allocation regressions too, but only when
// someone runs it; these pins fail plain `go test` the moment a change
// re-introduces a heap allocation per simulated op. testing.AllocsPerRun
// runs with GC pacing disabled, so the counts are exact, not sampled.

// TestZeroAllocLaneCallPath: the steady-state gate call — variadic and
// fixed-arity — performs zero heap allocations per op.
func TestZeroAllocLaneCallPath(t *testing.T) {
	f, err := newKernelFixture()
	if err != nil {
		t.Fatal(err)
	}
	v := f.vm.VCPU()
	if _, err := f.h.Call(v, kfnNop); err != nil { // warm the slot
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := f.h.Call(v, kfnNop, 1, 2); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Call allocates %v per op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := f.h.CallArgs(v, kfnNop, [4]uint64{1, 2, 3, 4}); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("CallArgs allocates %v per op, want 0", n)
	}
	reqs := make([]core.Req, 8)
	for i := range reqs {
		reqs[i] = core.Req{Fn: kfnNop}
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := f.h.CallMulti(v, reqs); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("CallMulti allocates %v per batch, want 0", n)
	}
}

// TestZeroAllocRecordedMixedFns: with a flight recorder armed, a
// CallMulti fan-out and a gate-flushed ring batch that alternate
// function ids perform zero heap allocations. Each request lands in its
// own fn's latency series, so the handle's one-entry series cache
// misses on every request and the recorder's lookup must hand back the
// series it already holds.
func TestZeroAllocRecordedMixedFns(t *testing.T) {
	f, err := newKernelFixture()
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder(obs.Config{})
	f.mgr.SetRecorder(rec)
	v := f.vm.VCPU()
	reqs := make([]core.Req, 8)
	for i := range reqs {
		reqs[i] = core.Req{Fn: kfnNop}
		if i%2 == 1 {
			reqs[i].Fn = kfnEcho
		}
	}
	if err := f.h.CallMulti(v, reqs); err != nil { // warm the slot and both series
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := f.h.CallMulti(v, reqs); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("recorded mixed-fn CallMulti allocates %v per batch, want 0", n)
	}
	rc, err := f.h.Ring(v, core.RingConfig{Depth: 64, Deadline: simtime.Duration(1) << 40})
	if err != nil {
		t.Fatal(err)
	}
	comps := make([]shm.Comp, 16)
	batch := func() {
		for i := range comps {
			if err := rc.Submit(v, reqs[i%len(reqs)].Fn, uint64(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := rc.Flush(v); err != nil {
			t.Fatal(err)
		}
		for rc.Pending() > 0 {
			if _, err := rc.Poll(v, comps); err != nil {
				t.Fatal(err)
			}
		}
	}
	batch()
	if n := testing.AllocsPerRun(100, batch); n != 0 {
		t.Fatalf("recorded mixed-fn ring flush allocates %v per 16-op batch, want 0", n)
	}
	for _, fn := range []uint64{kfnNop, kfnEcho} {
		if h := rec.Histogram(obs.Key{Guest: "perf-guest", Object: "perf", Fn: fn}); h.Count() == 0 {
			t.Fatalf("fn %#x recorded no latency samples", fn)
		}
	}
}

// TestZeroAllocVMCallRTT: a warm VMCALL of a nop hypercall — the
// exit-ful baseline — performs zero heap allocations per op: the vCPU
// reuses its exit record and the hypervisor boxes no trace arguments
// while tracing is off.
func TestZeroAllocVMCallRTT(t *testing.T) {
	f, err := newKernelFixture()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.hv.RegisterHypercall(khcNop, func(*hv.VM, [4]uint64) (uint64, error) { return 0, nil }); err != nil {
		t.Fatal(err)
	}
	v := f.vm.VCPU()
	if _, err := v.VMCall(khcNop); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := v.VMCall(khcNop, 1, 2, 3, 4); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("VMCall allocates %v per op, want 0", n)
	}
}

// TestZeroAllocLaneRingDrain: a full 32-op ring cycle — submit, flush
// (or manager-poller drain), poll — performs zero heap allocations on
// both drain sides.
func TestZeroAllocLaneRingDrain(t *testing.T) {
	f, err := newKernelFixture()
	if err != nil {
		t.Fatal(err)
	}
	v := f.vm.VCPU()
	rc, err := f.h.Ring(v, core.RingConfig{Depth: 64, Deadline: simtime.Duration(1) << 40})
	if err != nil {
		t.Fatal(err)
	}
	comps := make([]shm.Comp, 32)
	submit := func() {
		for i := 0; i < 32; i++ {
			if err := rc.Submit(v, kfnNop, uint64(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	poll := func() {
		for rc.Pending() > 0 {
			if _, err := rc.Poll(v, comps); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Warm both sides once: the first flush lazily backs the gate slot.
	submit()
	if err := rc.Flush(v); err != nil {
		t.Fatal(err)
	}
	poll()

	if n := testing.AllocsPerRun(100, func() {
		submit()
		if err := rc.Flush(v); err != nil {
			t.Fatal(err)
		}
		poll()
	}); n != 0 {
		t.Fatalf("gate-flush drain allocates %v per 32-op batch, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		submit()
		for rc.Pending() > 0 {
			if _, err := f.mgr.DrainRings(32); err != nil {
				t.Fatal(err)
			}
			poll()
		}
	}); n != 0 {
		t.Fatalf("manager-poller drain allocates %v per 32-op batch, want 0", n)
	}
}
