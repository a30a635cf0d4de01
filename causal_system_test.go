package elisa

// End-to-end tests of causal ring tracing: trace IDs minted at Submit
// must survive the descriptor ring, the manager poller, overload
// bounce-backs, and retries, and arming the tracer must not move the
// simulated clock or break determinism.

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"github.com/elisa-go/elisa/internal/obs"
	"github.com/elisa-go/elisa/internal/simtime"
)

const causalFnNop = 21

// buildCausalRig boots a one-guest system with a ring caller. With
// trace=true the flight recorder (and causal log) is armed.
func buildCausalRig(t *testing.T, trace bool, retry RetryPolicy) (*System, *GuestVM, *RingCaller) {
	t.Helper()
	cfg := Config{}
	if trace {
		cfg.Observe = &ObserveConfig{SampleEvery: 1, CausalEvents: 4096}
	}
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mgr := sys.Manager()
	if err := mgr.RegisterFunc(causalFnNop, func(*CallContext) (uint64, error) { return 0, nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.CreateObject("causal-obj", PageSize); err != nil {
		t.Fatal(err)
	}
	g, err := sys.NewGuestVM("causal-guest", 16*PageSize)
	if err != nil {
		t.Fatal(err)
	}
	h, err := g.Attach("causal-obj")
	if err != nil {
		t.Fatal(err)
	}
	rc, err := h.Ring(RingConfig{
		Depth:    16,
		Deadline: simtime.Duration(1) << 40, // poller-first
		Retry:    retry,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys, g, rc
}

// The acceptance scenario: a burst over a budget-bounded poller pass
// under armed overload control produces complete chains, including at
// least one CompBusy → backoff → retry loop, reconstructed purely from
// the causal log.
func TestCausalRingChainEndToEnd(t *testing.T) {
	sys, g, rc := buildCausalRig(t, true, RetryPolicy{MaxAttempts: 3, BaseBackoff: 2_000, Seed: 7})
	mgr := sys.Manager()
	if err := mgr.SetOverload(OverloadConfig{Enabled: true, BusyFrac: 0.25}); err != nil {
		t.Fatal(err)
	}
	v := g.VCPU(0)

	// Guest and manager VMs run independent virtual clocks; align them at
	// each handoff so cross-domain phase intervals attribute instead of
	// being dropped as skew.
	syncMgr := func() { mgr.VM().VCPU().Clock().AdvanceTo(v.Clock().Now()) }
	syncGuest := func() { v.Clock().AdvanceTo(mgr.VM().VCPU().Clock().Now()) }

	const burst = 12
	for i := 0; i < burst; i++ {
		if err := rc.Submit(v, causalFnNop, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Budget 4 against 12 queued: drains 4, trims the queue to
	// BusyFrac×depth = 4 by bouncing 4 back CompBusy.
	syncMgr()
	if _, err := mgr.DrainRings(4); err != nil {
		t.Fatal(err)
	}
	comps := make([]Comp, 16)
	for rounds := 0; rc.Pending() > 0 && rounds < 32; rounds++ {
		syncGuest()
		if _, err := rc.Poll(v, comps); err != nil {
			t.Fatal(err)
		}
		if rc.Pending() == 0 {
			break
		}
		syncMgr()
		if _, err := mgr.DrainRings(0); err != nil {
			t.Fatal(err)
		}
	}
	if rc.Pending() != 0 {
		t.Fatalf("%d ops still in flight", rc.Pending())
	}

	log := sys.Recorder().Causal()
	traces := log.Traces()
	if len(traces) != burst {
		t.Fatalf("causal log saw %d traces, want %d", len(traces), burst)
	}
	retried := 0
	for _, tr := range traces {
		chain := log.Chain(tr)
		// Chain is already filtered by trace ID; every event must agree.
		kinds := make(map[obs.EventKind]int)
		for _, e := range chain {
			if e.Trace != tr {
				t.Fatalf("Chain(%#x) returned foreign event %v", tr, e)
			}
			kinds[e.Kind]++
		}
		if kinds[obs.EvSubmit] != 1 {
			t.Fatalf("trace %#x: %d submits", tr, kinds[obs.EvSubmit])
		}
		if last := chain[len(chain)-1]; last.Kind != obs.EvDeliver {
			t.Fatalf("trace %#x chain does not end in deliver: %v", tr, last.Kind)
		}
		if kinds[obs.EvBusy] > 0 {
			retried++
			// The busy loop must be complete: busy, backoff, retry, and a
			// real drain+completion for the resubmitted descriptor. The
			// trimmed attempt was bounced before service, so the only
			// drain belongs to the retry.
			for _, k := range []obs.EventKind{obs.EvBackoff, obs.EvRetry, obs.EvComplete} {
				if kinds[k] == 0 {
					t.Fatalf("trace %#x busy loop missing %v: %v", tr, k, kinds)
				}
			}
			if kinds[obs.EvDrain] != 1 {
				t.Fatalf("trace %#x: %d drains, want the retry's one", tr, kinds[obs.EvDrain])
			}
			// The rendered chain narrates the same loop.
			r := log.RenderChain(tr)
			for _, step := range []string{"busy", "backoff", "retry", "deliver", "total:"} {
				if !strings.Contains(r, step) {
					t.Fatalf("rendered chain missing %q:\n%s", step, r)
				}
			}
		}
	}
	if retried != 4 {
		t.Fatalf("%d traces went through the busy loop, want 4", retried)
	}

	// Phase attribution: every delivered op contributes to queue, service,
	// deliver, and total; the four retried ones also to backoff.
	for _, ph := range []obs.RingPhase{obs.RingPhaseQueue, obs.RingPhaseService, obs.RingPhaseDeliver} {
		if h := log.PhaseHistogram(ph); h.Count() < int64(burst) {
			t.Errorf("phase %s: %d samples, want >= %d", ph, h.Count(), burst)
		}
	}
	if h := log.PhaseHistogram(obs.RingPhaseBackoff); h.Count() != 4 || h.Sum() <= 0 {
		t.Errorf("backoff phase: count=%d sum=%d", h.Count(), h.Sum())
	}
	if h := log.PhaseHistogram(obs.RingPhaseTotal); h.Count() != int64(burst) {
		t.Errorf("total phase: %d samples, want %d", h.Count(), burst)
	}

	// The metric family renders from the same log.
	text := sys.Metrics().Prometheus()
	for _, want := range []string{
		`elisa_ring_phase_latency_ns{phase="queue"`,
		`elisa_ring_phase_latency_ns{phase="backoff"`,
		"elisa_ring_phase_events_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics export missing %q", want)
		}
	}
}

// Arming the causal tracer must not move the simulated clock: the same
// ring workload takes bit-identical simulated time traced and untraced,
// and a TLB-warm per-call gate crossing still costs exactly the paper's
// 196 ns with every span and causal event recorded.
func TestCausalTracingZeroSimOverhead(t *testing.T) {
	drive := func(trace bool) Duration {
		sys, g, rc := buildCausalRig(t, trace, RetryPolicy{})
		v := g.VCPU(0)
		comps := make([]Comp, 16)
		for batch := 0; batch < 8; batch++ {
			for i := 0; i < 8; i++ {
				if err := rc.Submit(v, causalFnNop, uint64(i)); err != nil {
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
		_ = sys
		return g.Elapsed()
	}
	off, on := drive(false), drive(true)
	if off != on {
		t.Fatalf("causal tracing moved the simulated clock: off=%d on=%d", off, on)
	}

	// Per-call hot path, tracer armed: still exactly ELISARoundTrip.
	sys, err := NewSystem(Config{Observe: &ObserveConfig{SampleEvery: 1, CausalEvents: 1024}})
	if err != nil {
		t.Fatal(err)
	}
	mgr := sys.Manager()
	if err := mgr.RegisterFunc(causalFnNop, func(*CallContext) (uint64, error) { return 0, nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.CreateObject("causal-obj", PageSize); err != nil {
		t.Fatal(err)
	}
	g, err := sys.NewGuestVM("causal-guest", 16*PageSize)
	if err != nil {
		t.Fatal(err)
	}
	h, err := g.Attach("causal-obj")
	if err != nil {
		t.Fatal(err)
	}
	v := g.VCPU(0)
	for i := 0; i < 2; i++ { // cold fills, then warm
		if _, err := h.Call(causalFnNop); err != nil {
			t.Fatal(err)
		}
	}
	start := v.Clock().Now()
	if _, err := h.Call(causalFnNop); err != nil {
		t.Fatal(err)
	}
	if got, want := v.Clock().Elapsed(start), DefaultCostModel().ELISARoundTrip(); got != want {
		t.Fatalf("hot call with tracing armed = %dns, want exactly %d", int64(got), int64(want))
	}
}

// Same-seed fleet runs stay byte-identical with causal tracing armed —
// the tracer observes the overload machinery without perturbing it.
func TestFleetByteIdenticalWithCausalTracing(t *testing.T) {
	run := func() ([]byte, *FleetReport, uint64) {
		sys, err := NewSystem(Config{
			SlotBudget: 2,
			Observe:    &ObserveConfig{SampleEvery: 4, CausalEvents: 8192},
		})
		if err != nil {
			t.Fatal(err)
		}
		mgr := sys.Manager()
		if err := mgr.RegisterFunc(causalFnNop, func(*CallContext) (uint64, error) { return 0, nil }); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			if _, err := mgr.CreateObject(fmt.Sprintf("co-%d", i), PageSize); err != nil {
				t.Fatal(err)
			}
		}
		f, err := sys.NewFleet(FleetConfig{
			Cores: 2, Seed: 77, QueueDepth: 16,
			RingDepth: 16, PollBudget: 8,
			RingRetry: RetryPolicy{MaxAttempts: 2, Seed: 5},
			Overload:  OverloadConfig{Enabled: true, BusyFrac: 0.5},
			Classes:   2,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 6; i++ {
			spec := TenantSpec{
				Name:    fmt.Sprintf("ct-%02d", i),
				Objects: []string{fmt.Sprintf("co-%d", i%4)},
				Fn:      causalFnNop,
				RateOPS: 3_000_000,
				Class:   TenantClass(i % 2),
			}
			if _, err := f.Admit(spec); err != nil {
				t.Fatal(err)
			}
		}
		rep, err := f.Run(2_000_000)
		if err != nil {
			t.Fatal(err)
		}
		js, err := sys.Metrics().JSON()
		if err != nil {
			t.Fatal(err)
		}
		return js, rep, sys.Recorder().Causal().EventsSeen()
	}
	jsA, repA, seenA := run()
	jsB, repB, seenB := run()
	if !bytes.Equal(jsA, jsB) {
		t.Fatal("same-seed metrics exports differ with causal tracing armed")
	}
	if seenA != seenB {
		t.Fatalf("causal event streams diverged: %d vs %d", seenA, seenB)
	}
	if seenA == 0 {
		t.Fatal("fleet ring run emitted no causal events")
	}
	for i := range repA.Tenants {
		if repA.Tenants[i] != repB.Tenants[i] {
			t.Fatalf("tenant %d reports differ: %+v vs %+v", i, repA.Tenants[i], repB.Tenants[i])
		}
	}
	for _, tr := range repA.Tenants {
		if tr.Completed == 0 {
			t.Fatalf("tenant %s idle: %+v", tr.Name, tr)
		}
	}
}

// The span ring must wrap (not grow, not stop) under a long ring-path
// workload, histograms must keep counting across the wrap, and the
// causal log must still filter cleanly by trace ID.
func TestRingSpanBufferWrapAndHistogramMerge(t *testing.T) {
	const spanCap = 32
	sys, err := NewSystem(Config{
		Observe: &ObserveConfig{SpanRing: spanCap, SampleEvery: 1, CausalEvents: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	mgr := sys.Manager()
	if err := mgr.RegisterFunc(causalFnNop, func(*CallContext) (uint64, error) { return 0, nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.CreateObject("causal-obj", PageSize); err != nil {
		t.Fatal(err)
	}
	g, err := sys.NewGuestVM("causal-guest", 16*PageSize)
	if err != nil {
		t.Fatal(err)
	}
	h, err := g.Attach("causal-obj")
	if err != nil {
		t.Fatal(err)
	}
	v := g.VCPU(0)
	rc, err := h.Ring(RingConfig{Depth: 8, Deadline: simtime.Duration(1) << 40})
	if err != nil {
		t.Fatal(err)
	}

	// 64 gate-flushed batch sessions of 8 ops: 64 batch spans through a
	// 32-span ring, 512 latency samples, 512×4 causal events through a
	// 64-event ring.
	const batches, perBatch = 64, 8
	comps := make([]Comp, perBatch)
	for b := 0; b < batches; b++ {
		for i := 0; i < perBatch; i++ {
			if err := rc.Submit(v, causalFnNop, uint64(i)); err != nil {
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

	rec := sys.Recorder()
	spans := rec.Spans()
	if len(spans) != spanCap {
		t.Fatalf("span ring holds %d spans, want wrap at cap %d", len(spans), spanCap)
	}
	if rec.SpansSampled() != batches {
		t.Fatalf("sampled %d spans, want one per batch session (%d)", rec.SpansSampled(), batches)
	}
	// Retained spans are the newest, all from ring drain sessions.
	for _, sp := range spans {
		if sp.Batch != perBatch {
			t.Fatalf("retained span has batch %d, want %d: %s", sp.Batch, perBatch, sp)
		}
	}

	// Histograms see every op despite the span ring wrapping, and the
	// merged views agree with the per-key series.
	key := obs.Key{Guest: "causal-guest", Object: "causal-obj", Fn: causalFnNop}
	if got := rec.Histogram(key).Count(); got != batches*perBatch {
		t.Fatalf("histogram count %d, want %d", got, batches*perBatch)
	}
	if got := rec.GuestHistogram("causal-guest").Count(); got != batches*perBatch {
		t.Fatalf("guest-merged histogram count %d, want %d", got, batches*perBatch)
	}
	if rec.AttachmentHistogram("causal-guest", "causal-obj").Count() != rec.Histogram(key).Count() {
		t.Fatal("attachment merge disagrees with the single-key series")
	}

	// The causal ring wrapped too; surviving chains still filter by trace
	// ID and phase totals kept counting through eviction.
	log := rec.Causal()
	if int(log.EventsSeen()) <= 64 {
		t.Fatalf("causal log saw %d events, expected far more than its 64-event ring", log.EventsSeen())
	}
	traces := log.Traces()
	if len(traces) == 0 {
		t.Fatal("no traces retained after wrap")
	}
	last := traces[len(traces)-1]
	for _, e := range log.Chain(last) {
		if e.Trace != last {
			t.Fatalf("Chain(%#x) leaked foreign event %v", last, e)
		}
	}
	if h := log.PhaseHistogram(obs.RingPhaseTotal); h.Count() != batches*perBatch {
		t.Fatalf("total-phase histogram %d samples, want %d (unaffected by eviction)", h.Count(), batches*perBatch)
	}
}
