package obs

import (
	"runtime/pprof"
	"strings"
	"testing"

	"github.com/elisa-go/elisa/internal/simtime"
)

// event offers e through the id-based path, interning its names: the
// RingEvent form these tests are written in.
func (l *CausalLog) event(e RingEvent) {
	l.Emit(Record{Time: e.Time, Trace: e.Trace, Fn: e.Fn, Dur: e.Dur, Kind: e.Kind,
		Subject: l.Subject(e.Guest, e.Object), Note: l.Note(e.Note)})
}

func TestNilCausalLogIsInert(t *testing.T) {
	var l *CausalLog
	l.event(RingEvent{Trace: 1, Kind: EvSubmit})
	l.Reset()
	if l.Events() != nil || l.EventsSeen() != 0 || l.Chain(1) != nil {
		t.Fatal("nil causal log not inert")
	}
	if h := l.PhaseHistogram(RingPhaseTotal); h.Count() != 0 {
		t.Fatal("nil causal log histogram not empty")
	}
	if l.RenderChain(1) != "" {
		t.Fatal("nil causal log rendered a chain")
	}
	var r *Recorder
	if r.Causal() != nil {
		t.Fatal("nil recorder must hand out a nil causal log")
	}
}

// A full happy-path chain: submit → flush → drain → complete → deliver,
// with each phase interval attributed to its histogram.
func TestCausalChainPhaseAttribution(t *testing.T) {
	l := NewCausalLog(64)
	const tr = 42
	ev := func(k EventKind, at simtime.Time) {
		l.event(RingEvent{Trace: tr, Kind: k, Time: at, Guest: "g", Object: "o", Fn: 7})
	}
	ev(EvSubmit, 100)
	ev(EvFlush, 150)    // submit: 50
	ev(EvDrain, 180)    // queue: 30
	ev(EvComplete, 250) // service: 70
	ev(EvDeliver, 300)  // deliver: 50, total: 200

	want := map[RingPhase]int64{
		RingPhaseSubmit:  50,
		RingPhaseQueue:   30,
		RingPhaseService: 70,
		RingPhaseDeliver: 50,
		RingPhaseTotal:   200,
	}
	for p, v := range want {
		h := l.PhaseHistogram(p)
		if h.Count() != 1 || h.Sum() != v {
			t.Errorf("phase %s: count=%d sum=%d, want one sample of %d", p, h.Count(), h.Sum(), v)
		}
	}
	if h := l.PhaseHistogram(RingPhaseBackoff); h.Count() != 0 {
		t.Errorf("backoff recorded %d samples on a no-retry chain", h.Count())
	}
	if got := len(l.Chain(tr)); got != 5 {
		t.Fatalf("chain length = %d, want 5", got)
	}
	// A deliver closes the chain: the open map must not leak.
	l.mu.Lock()
	open := len(l.open)
	l.mu.Unlock()
	if open != 0 {
		t.Fatalf("%d chains still open after deliver", open)
	}
}

// The poller path has no flush event: queue is attributed submit→drain.
func TestCausalPollerPathQueuePhase(t *testing.T) {
	l := NewCausalLog(64)
	l.event(RingEvent{Trace: 9, Kind: EvSubmit, Time: 1000})
	l.event(RingEvent{Trace: 9, Kind: EvDrain, Time: 1600, Note: "poller"})
	if h := l.PhaseHistogram(RingPhaseQueue); h.Sum() != 600 {
		t.Fatalf("queue sum = %d, want 600", h.Sum())
	}
	if h := l.PhaseHistogram(RingPhaseSubmit); h.Count() != 0 {
		t.Fatalf("submit phase recorded without a flush")
	}
}

// A busy→backoff→retry loop keeps the trace ID; total spans the retry.
func TestCausalBusyRetryLoop(t *testing.T) {
	l := NewCausalLog(64)
	const tr = 7
	l.event(RingEvent{Trace: tr, Kind: EvSubmit, Time: 100})
	l.event(RingEvent{Trace: tr, Kind: EvDrain, Time: 200})
	l.event(RingEvent{Trace: tr, Kind: EvBusy, Time: 210})
	l.event(RingEvent{Trace: tr, Kind: EvBackoff, Time: 400, Dur: 150})
	l.event(RingEvent{Trace: tr, Kind: EvRetry, Time: 550})
	l.event(RingEvent{Trace: tr, Kind: EvDrain, Time: 600}) // queue: 50 from retry
	l.event(RingEvent{Trace: tr, Kind: EvComplete, Time: 650})
	l.event(RingEvent{Trace: tr, Kind: EvDeliver, Time: 700})

	if h := l.PhaseHistogram(RingPhaseBackoff); h.Count() != 1 || h.Sum() != 150 {
		t.Fatalf("backoff: count=%d sum=%d", h.Count(), h.Sum())
	}
	// Two drains: 100 (submit→drain) and 50 (retry→drain).
	if h := l.PhaseHistogram(RingPhaseQueue); h.Count() != 2 || h.Sum() != 150 {
		t.Fatalf("queue: count=%d sum=%d", h.Count(), h.Sum())
	}
	// Two service intervals: busy (10) and complete (50).
	if h := l.PhaseHistogram(RingPhaseService); h.Count() != 2 || h.Sum() != 60 {
		t.Fatalf("service: count=%d sum=%d", h.Count(), h.Sum())
	}
	if h := l.PhaseHistogram(RingPhaseTotal); h.Sum() != 600 {
		t.Fatalf("total = %d, want 600 (first submit to deliver)", h.Sum())
	}
	r := l.RenderChain(tr)
	for _, step := range []string{"submit", "busy", "backoff", "retry", "deliver", "total: 600ns"} {
		if !strings.Contains(r, step) {
			t.Errorf("rendered chain missing %q:\n%s", step, r)
		}
	}
}

// The event ring is bounded: old events evict, phase histograms and the
// seen counter keep counting.
func TestCausalEventRingWrap(t *testing.T) {
	l := NewCausalLog(8)
	for i := uint64(1); i <= 20; i++ {
		l.event(RingEvent{Trace: i, Kind: EvSubmit, Time: simtime.Time(i)})
	}
	evs := l.Events()
	if len(evs) != 8 {
		t.Fatalf("retained %d events, cap 8", len(evs))
	}
	// Oldest first, and the oldest retained is #13 of 20 (seq 12).
	if evs[0].Seq != 12 || evs[7].Seq != 19 {
		t.Fatalf("retained seq range [%d, %d], want [12, 19]", evs[0].Seq, evs[7].Seq)
	}
	if l.EventsSeen() != 20 {
		t.Fatalf("seen = %d, want 20", l.EventsSeen())
	}
	// An evicted trace's chain is gone from the ring...
	if l.Chain(1) != nil {
		t.Fatal("evicted trace still renders a chain")
	}
	// ...but Traces lists the retained ones, sorted.
	tr := l.Traces()
	if len(tr) != 8 || tr[0] != 13 || tr[7] != 20 {
		t.Fatalf("traces = %v", tr)
	}
}

// Refusal events (trace 0) land in the ring but never open a chain.
func TestCausalRefusalEventsNoChain(t *testing.T) {
	l := NewCausalLog(16)
	l.event(RingEvent{Kind: EvShed, Time: 5, Guest: "t1", Note: "class 0 below threshold 1"})
	l.event(RingEvent{Kind: EvThrottle, Time: 6, Guest: "t2"})
	l.event(RingEvent{Kind: EvBreaker, Time: 7, Guest: "t3", Note: "quarantined"})
	if len(l.Events()) != 3 {
		t.Fatalf("retained %d events", len(l.Events()))
	}
	if len(l.Traces()) != 0 {
		t.Fatal("trace-0 refusals must not appear as traces")
	}
	l.mu.Lock()
	open := len(l.open)
	l.mu.Unlock()
	if open != 0 {
		t.Fatal("refusal opened a chain")
	}
}

// Guest and manager VMs run independent virtual clocks; an interval whose
// endpoints came from different clock domains can be negative and must be
// dropped, not folded into the histograms.
func TestCausalSkewedClockIntervalsDropped(t *testing.T) {
	l := NewCausalLog(16)
	l.event(RingEvent{Trace: 3, Kind: EvSubmit, Time: 5000}) // guest clock
	l.event(RingEvent{Trace: 3, Kind: EvDrain, Time: 100})   // manager clock, behind
	l.event(RingEvent{Trace: 3, Kind: EvComplete, Time: 120})
	l.event(RingEvent{Trace: 3, Kind: EvDeliver, Time: 5100}) // guest clock again
	if h := l.PhaseHistogram(RingPhaseQueue); h.Count() != 0 {
		t.Fatalf("skewed queue interval recorded: count=%d", h.Count())
	}
	// Same-domain intervals still attribute.
	if h := l.PhaseHistogram(RingPhaseService); h.Count() != 1 || h.Sum() != 20 {
		t.Fatalf("service: count=%d sum=%d", h.Count(), h.Sum())
	}
	if h := l.PhaseHistogram(RingPhaseTotal); h.Count() != 1 || h.Sum() != 100 {
		t.Fatalf("total: count=%d sum=%d", h.Count(), h.Sum())
	}
	// The rendered chain shows the backwards step without a plus sign.
	if r := l.RenderChain(3); !strings.Contains(r, "-4.900us") || strings.Contains(r, "+-") {
		t.Errorf("skewed chain rendering:\n%s", r)
	}
}

func TestCausalReset(t *testing.T) {
	l := NewCausalLog(16)
	l.event(RingEvent{Trace: 1, Kind: EvSubmit, Time: 1})
	l.event(RingEvent{Trace: 1, Kind: EvDrain, Time: 2})
	l.Reset()
	if len(l.Events()) != 0 || l.EventsSeen() != 0 {
		t.Fatal("reset left events")
	}
	if h := l.PhaseHistogram(RingPhaseQueue); h.Count() != 0 {
		t.Fatal("reset left phase samples")
	}
}

func TestCollectCausalMetrics(t *testing.T) {
	if CollectCausal(nil) != nil {
		t.Fatal("nil log must yield a nil collector")
	}
	l := NewCausalLog(16)
	l.event(RingEvent{Trace: 1, Kind: EvSubmit, Time: 10})
	l.event(RingEvent{Trace: 1, Kind: EvDrain, Time: 30})
	reg := NewRegistry()
	reg.Register(CollectCausal(l))
	out := reg.Prometheus()
	if !strings.Contains(out, `elisa_ring_phase_latency_ns{phase="queue",quantile="0.5"} 20`) {
		t.Errorf("missing queue-phase quantile in:\n%s", out)
	}
	if !strings.Contains(out, "elisa_ring_phase_events_total 2") {
		t.Errorf("missing event counter in:\n%s", out)
	}
	// Phases with no samples are omitted entirely.
	if strings.Contains(out, `phase="backoff"`) {
		t.Errorf("empty phase exported:\n%s", out)
	}
}

// WithPhase must run f synchronously, survive nesting, label each phase
// with its own name, and allocate nothing.
func TestWithPhaseRunsInline(t *testing.T) {
	ran := false
	WithPhase(RingPhaseService, func() {
		WithPhase(RingPhaseDeliver, func() { ran = true })
	})
	if !ran {
		t.Fatal("WithPhase did not run f")
	}
	for p := RingPhase(0); p < NumRingPhases; p++ {
		if got, ok := pprof.Label(phaseLabels[p], PhaseLabel); !ok || got != p.String() {
			t.Errorf("phase %d labelled %q (ok=%v), want %q", int(p), got, ok, p.String())
		}
	}
	n := 0
	if a := testing.AllocsPerRun(100, func() {
		WithPhase(RingPhaseService, func() { n++ })
	}); a != 0 {
		t.Fatalf("WithPhase allocates %v per call, want 0", a)
	}
	if n != 101 { // AllocsPerRun's warm-up call plus 100 measured ones
		t.Fatalf("WithPhase ran f %d times, want 101", n)
	}
}

// TestZeroAllocCausalChain: once warm, recording a descriptor's whole
// submit → flush → drain → complete → deliver chain allocates nothing —
// the records hold interned ids, and the open trace lives in the map by
// value, not behind a pointer.
func TestZeroAllocCausalChain(t *testing.T) {
	l := NewCausalLog(64)
	kinds := [...]EventKind{EvSubmit, EvFlush, EvDrain, EvComplete, EvDeliver}
	subj := l.Subject("g", "o")
	var trace uint64
	chain := func() {
		trace++
		for i, k := range kinds {
			l.Emit(Record{Trace: trace, Kind: k, Time: simtime.Time(10 * i), Subject: subj, Fn: 1})
		}
	}
	chain()
	if n := testing.AllocsPerRun(100, chain); n != 0 {
		t.Fatalf("a warm causal chain allocates %v per descriptor, want 0", n)
	}
	if h := l.PhaseHistogram(RingPhaseTotal); h.Count() != 102 {
		t.Fatalf("total-phase histogram holds %d chains, want 102", h.Count())
	}
}
