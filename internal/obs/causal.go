package obs

import (
	"context"
	"fmt"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"

	"github.com/elisa-go/elisa/internal/simtime"
	"github.com/elisa-go/elisa/internal/stats"
)

// DefaultCausalEvents is the default causal-event ring capacity.
const DefaultCausalEvents = 8192

// EventKind classifies one step in a ring descriptor's causal chain.
type EventKind int

// Causal event kinds, in the order a descriptor's life visits them. The
// overload kinds (EvShed, EvThrottle, EvBreaker) describe work refused
// before a descriptor ever existed, so they carry trace ID 0.
const (
	// EvSubmit marks a descriptor staged in the submission queue by
	// RingCaller.Submit, where its trace ID is minted.
	EvSubmit EventKind = iota
	// EvFlush marks a guest-side gate flush that pushed the descriptor to
	// the manager (one 196 ns crossing amortised over the whole batch).
	EvFlush
	// EvDrain marks a drain session (gate flush service loop or the
	// manager poller) popping the descriptor for execution.
	EvDrain
	// EvComplete marks the completion (CompOK or CompErr) being pushed
	// into the completion queue.
	EvComplete
	// EvBusy marks an overload trim pass bouncing the descriptor back
	// with CompBusy instead of servicing it.
	EvBusy
	// EvBackoff marks the guest charging seeded exponential backoff
	// before retrying a busy-bounced descriptor; Dur holds the charge.
	EvBackoff
	// EvRetry marks the busy-bounced descriptor being re-staged in the
	// submission queue under the same trace ID.
	EvRetry
	// EvDeliver marks Poll handing the final completion to the caller,
	// closing the chain.
	EvDeliver
	// EvFail marks failRing condemning the descriptor (CompErr, ring
	// dead) without it ever being serviced.
	EvFail
	// EvShed marks the fleet load shedder refusing admission (trace 0).
	EvShed
	// EvThrottle marks the admission token bucket refusing a request
	// burst (trace 0).
	EvThrottle
	// EvBreaker marks a circuit-breaker quarantine refusing a tenant's
	// request outright (trace 0).
	EvBreaker
	// EvRebalance marks the cluster auto-rebalancer migrating a tenant
	// between shards (trace 0 — a placement action, not a descriptor).
	EvRebalance
	// NumEventKinds is the number of causal event kinds.
	NumEventKinds
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case EvSubmit:
		return "submit"
	case EvFlush:
		return "flush"
	case EvDrain:
		return "drain"
	case EvComplete:
		return "complete"
	case EvBusy:
		return "busy"
	case EvBackoff:
		return "backoff"
	case EvRetry:
		return "retry"
	case EvDeliver:
		return "deliver"
	case EvFail:
		return "fail"
	case EvShed:
		return "shed"
	case EvThrottle:
		return "throttle"
	case EvBreaker:
		return "breaker"
	case EvRebalance:
		return "rebalance"
	default:
		return fmt.Sprintf("event(%d)", int(k))
	}
}

// RingPhase indexes one interval of a ring descriptor's causal chain.
// The phase names are shared verbatim with the pprof labels WithPhase
// applies (see PhaseLabel), so wall-clock CPU profiles and sim-time
// histograms attribute to the same vocabulary.
type RingPhase int

// Ring phases. Each is the interval between two causal events.
const (
	// RingPhaseSubmit is submit→flush: time a descriptor sat staged in
	// the submission queue before the batch was kicked.
	RingPhaseSubmit RingPhase = iota
	// RingPhaseQueue is flush→drain (or submit→drain on the poller
	// path): time waiting for a drain session to pop it.
	RingPhaseQueue
	// RingPhaseService is drain→complete/busy: manager service time.
	RingPhaseService
	// RingPhaseDeliver is complete→deliver: time the completion sat in
	// the completion queue before Poll consumed it.
	RingPhaseDeliver
	// RingPhaseBackoff is the explicit backoff charge between a busy
	// bounce and its retry.
	RingPhaseBackoff
	// RingPhaseTotal is first-submit→deliver/fail, end to end across
	// every retry cycle.
	RingPhaseTotal
	// NumRingPhases is the number of ring phases.
	NumRingPhases
)

// String names the ring phase.
func (p RingPhase) String() string {
	switch p {
	case RingPhaseSubmit:
		return "submit"
	case RingPhaseQueue:
		return "queue"
	case RingPhaseService:
		return "service"
	case RingPhaseDeliver:
		return "deliver"
	case RingPhaseBackoff:
		return "backoff"
	case RingPhaseTotal:
		return "total"
	default:
		return fmt.Sprintf("ring-phase(%d)", int(p))
	}
}

// RingEvent is one step in a ring descriptor's causal chain.
type RingEvent struct {
	// Seq numbers every event offered to the log, so gaps in a dumped
	// ring reveal eviction.
	Seq uint64
	// Trace is the descriptor's causal trace ID (0 for pre-submission
	// refusals: shed, throttle, breaker).
	Trace uint64
	// Kind is the chain step.
	Kind EventKind
	// Time is the simulated time the step happened.
	Time simtime.Time
	// Guest and Object identify the attachment (or tenant for overload
	// refusals).
	Guest  string
	Object string
	// Fn is the manager function id (0 when not applicable).
	Fn uint64
	// Dur carries an explicit duration for kinds that have one
	// (EvBackoff's charge); 0 otherwise.
	Dur simtime.Duration
	// Note carries optional free-form detail (refusal reason, retry
	// attempt number). Its content is deterministic.
	Note string
	// Shard is the manager shard that recorded the event, stamped by the
	// log (see CausalLog.SetShard). Every cluster shard's log is scoped,
	// so events from an elisa.System always carry a shard, 0 on a 1-shard
	// system; -1 marks a log no shard owns (a Recorder built directly with
	// NewRecorder).
	Shard int
}

// String renders the event on one line.
func (e RingEvent) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%06d %12s] trace=%#016x %-8s %-12s %-12s fn=%-4d",
		e.Seq, simtime.Duration(e.Time), e.Trace, e.Kind, e.Guest, e.Object, e.Fn)
	if e.Shard >= 0 {
		fmt.Fprintf(&b, " shard=%d", e.Shard)
	}
	if e.Dur != 0 {
		fmt.Fprintf(&b, " dur=%s", e.Dur)
	}
	if e.Note != "" {
		fmt.Fprintf(&b, " (%s)", e.Note)
	}
	return b.String()
}

// openTrace is the incremental per-trace state the log keeps between
// events so phase durations can be attributed without replaying the ring.
type openTrace struct {
	first                           simtime.Time // first submit, for RingPhaseTotal
	submit                          simtime.Time // latest submit/retry, resets each cycle
	flush                           simtime.Time
	drain                           simtime.Time
	complete                        simtime.Time
	hasFlush, hasDrain, hasComplete bool
}

// CausalLog is the bounded causal-event recorder behind the flight
// recorder: every ring descriptor's submit→flush→drain→complete→
// (busy→backoff→retry)* chain lands here, with per-phase sim-time
// attribution folded into histograms as events arrive. A nil *CausalLog
// is valid and discards everything, mirroring Recorder's nil contract.
type CausalLog struct {
	mu     sync.Mutex
	ring   []RingEvent // fixed capacity, oldest evicted first
	start  int
	count  int
	seq    uint64
	shard  int // stamped onto every event; -1 = no owning shard
	phases [NumRingPhases]*stats.Histogram
	open   map[uint64]*openTrace
}

// NewCausalLog creates a causal log retaining at most capEvents events
// (<=0 picks DefaultCausalEvents). Phase histograms are cumulative and
// unaffected by ring eviction.
func NewCausalLog(capEvents int) *CausalLog {
	if capEvents <= 0 {
		capEvents = DefaultCausalEvents
	}
	l := &CausalLog{
		ring:  make([]RingEvent, 0, capEvents),
		shard: -1,
		open:  make(map[uint64]*openTrace),
	}
	for i := range l.phases {
		l.phases[i] = stats.NewHistogram()
	}
	return l
}

// SetShard scopes the log to one cluster shard: every event offered from
// now on carries this shard ID (the String rendering then shows it, so a
// merged multi-shard timeline stays attributable). A nil log ignores the
// call; a log never scoped keeps the default -1.
func (l *CausalLog) SetShard(id int) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.shard = id
}

// Event offers one causal event. The log assigns its Seq, appends it to
// the bounded ring, and folds any phase interval the event closes into
// the matching histogram. Recording charges no simulated time.
func (l *CausalLog) Event(e RingEvent) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	e.Seq = l.seq
	e.Shard = l.shard
	l.seq++
	l.attributeLocked(e)
	if l.count < cap(l.ring) {
		l.ring = append(l.ring, e)
		l.count++
		return
	}
	l.ring[l.start] = e
	l.start = (l.start + 1) % l.count
}

// recordPhase folds one interval into a phase histogram. Negative
// intervals are dropped: each simulated VM owns an independent virtual
// clock, so an interval whose endpoints were stamped by different VMs
// (guest submit vs manager-poller drain) is only meaningful when the
// driver keeps those clocks aligned — when it does not, the skewed
// sample is discarded instead of corrupting the histogram.
func (l *CausalLog) recordPhase(p RingPhase, d simtime.Duration) {
	if d < 0 {
		return
	}
	l.phases[p].RecordDuration(d)
}

// attributeLocked advances the per-trace state machine and records the
// phase interval the event closes, if any.
func (l *CausalLog) attributeLocked(e RingEvent) {
	if e.Trace == 0 {
		return // pre-submission refusals carry no chain
	}
	switch e.Kind {
	case EvSubmit:
		l.open[e.Trace] = &openTrace{first: e.Time, submit: e.Time}
	case EvFlush:
		if o := l.open[e.Trace]; o != nil {
			o.flush, o.hasFlush = e.Time, true
			l.recordPhase(RingPhaseSubmit, e.Time.Sub(o.submit))
		}
	case EvDrain:
		if o := l.open[e.Trace]; o != nil {
			o.drain, o.hasDrain = e.Time, true
			from := o.submit
			if o.hasFlush {
				from = o.flush
			}
			l.recordPhase(RingPhaseQueue, e.Time.Sub(from))
		}
	case EvComplete, EvBusy:
		if o := l.open[e.Trace]; o != nil {
			o.complete, o.hasComplete = e.Time, true
			if o.hasDrain {
				l.recordPhase(RingPhaseService, e.Time.Sub(o.drain))
			}
		}
	case EvBackoff:
		l.recordPhase(RingPhaseBackoff, e.Dur)
	case EvRetry:
		if o := l.open[e.Trace]; o != nil {
			o.submit = e.Time
			o.hasFlush, o.hasDrain, o.hasComplete = false, false, false
		}
	case EvDeliver, EvFail:
		if o := l.open[e.Trace]; o != nil {
			if o.hasComplete {
				l.recordPhase(RingPhaseDeliver, e.Time.Sub(o.complete))
			}
			l.recordPhase(RingPhaseTotal, e.Time.Sub(o.first))
			delete(l.open, e.Trace)
		}
	}
}

// Events returns the retained events, oldest first.
func (l *CausalLog) Events() []RingEvent {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]RingEvent, 0, l.count)
	out = append(out, l.ring[l.start:l.count]...)
	out = append(out, l.ring[:l.start]...)
	return out
}

// EventsSeen reports how many events were offered to the log (retained
// or since evicted).
func (l *CausalLog) EventsSeen() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Chain returns the retained events for one trace ID, oldest first.
func (l *CausalLog) Chain(trace uint64) []RingEvent {
	var out []RingEvent
	for _, e := range l.Events() {
		if e.Trace == trace {
			out = append(out, e)
		}
	}
	return out
}

// Traces returns the distinct non-zero trace IDs among retained events,
// sorted ascending.
func (l *CausalLog) Traces() []uint64 {
	seen := make(map[uint64]bool)
	var out []uint64
	for _, e := range l.Events() {
		if e.Trace != 0 && !seen[e.Trace] {
			seen[e.Trace] = true
			out = append(out, e.Trace)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// PhaseHistogram returns an independent snapshot of one ring-phase
// latency series.
func (l *CausalLog) PhaseHistogram(p RingPhase) *stats.Histogram {
	if l == nil || p < 0 || p >= NumRingPhases {
		return stats.NewHistogram()
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.phases[p].Clone()
}

// Reset discards every event, phase histogram, and open chain.
func (l *CausalLog) Reset() {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ring = l.ring[:0]
	l.start, l.count = 0, 0
	l.seq = 0
	for i := range l.phases {
		l.phases[i].Reset()
	}
	clear(l.open)
}

// RenderChain renders one trace's causal chain with per-step sim-time
// deltas attributed to ring phases — the output behind
// `elisa-inspect -causal`. It returns "" when the log retains no events
// for the trace.
func (l *CausalLog) RenderChain(trace uint64) string {
	chain := l.Chain(trace)
	if len(chain) == 0 {
		return ""
	}
	var b strings.Builder
	head := chain[0]
	fmt.Fprintf(&b, "trace %#016x guest=%s object=%s fn=%d\n", trace, head.Guest, head.Object, head.Fn)
	prev := head.Time
	var prevKind EventKind
	for i, e := range chain {
		fmt.Fprintf(&b, "  [%12s] %-8s", simtime.Duration(e.Time), e.Kind)
		if i > 0 {
			// Cross-clock steps (guest vs manager virtual clocks, see
			// recordPhase) can run backwards; print those without the
			// misleading plus sign.
			delta, sign := e.Time.Sub(prev), "+"
			if delta < 0 {
				sign = ""
			}
			if ph, ok := phaseBetween(prevKind, e.Kind); ok {
				fmt.Fprintf(&b, " %s%-12s (%s)", sign, delta, ph)
			} else {
				fmt.Fprintf(&b, " %s%-12s", sign, delta)
			}
		}
		if e.Dur != 0 {
			fmt.Fprintf(&b, " dur=%s", e.Dur)
		}
		if e.Note != "" {
			fmt.Fprintf(&b, " (%s)", e.Note)
		}
		b.WriteByte('\n')
		prev, prevKind = e.Time, e.Kind
	}
	last := chain[len(chain)-1]
	if last.Kind == EvDeliver || last.Kind == EvFail {
		fmt.Fprintf(&b, "  total: %s\n", last.Time.Sub(head.Time))
	}
	return b.String()
}

// phaseBetween maps a consecutive event-kind pair to the ring phase its
// interval belongs to.
func phaseBetween(from, to EventKind) (RingPhase, bool) {
	switch {
	case (from == EvSubmit || from == EvRetry) && to == EvFlush:
		return RingPhaseSubmit, true
	case from == EvFlush && to == EvDrain,
		(from == EvSubmit || from == EvRetry) && to == EvDrain:
		return RingPhaseQueue, true
	case from == EvDrain && (to == EvComplete || to == EvBusy):
		return RingPhaseService, true
	case (from == EvComplete || from == EvBusy) && (to == EvDeliver || to == EvBackoff):
		return RingPhaseDeliver, true
	case from == EvBackoff && to == EvRetry:
		return RingPhaseBackoff, true
	}
	return 0, false
}

// PhaseLabel is the pprof label key WithPhase sets, sharing the
// RingPhase/Phase name vocabulary with the sim-time histograms so
// wall-clock CPU profiles and simulated spans line up.
const PhaseLabel = "elisa_phase"

// WithPhase runs f under a pprof label (PhaseLabel=name) so wall-clock
// CPU profiles attribute samples to the same phase names as the
// sim-time spans. Callers apply it at batch granularity (one drain
// session, one flush) — never per descriptor — to keep the hot path's
// wall cost flat.
func WithPhase(name string, f func()) {
	pprof.Do(context.Background(), pprof.Labels(PhaseLabel, name), func(context.Context) { f() })
}

// CollectCausal builds the elisa_ring_phase_* metric families from a
// causal log: one latency summary per ring phase plus the event
// counter. It returns nil for a nil log, so it can be registered
// unconditionally.
func CollectCausal(l *CausalLog) Collector {
	if l == nil {
		return nil
	}
	return func() []Metric {
		lat := Metric{
			Name: "elisa_ring_phase_latency_ns",
			Help: "Per-phase ring descriptor latency in simulated nanoseconds.",
			Type: TypeSummary,
		}
		for p := RingPhase(0); p < NumRingPhases; p++ {
			h := l.PhaseHistogram(p)
			if h.Count() == 0 {
				continue
			}
			lat.Samples = append(lat.Samples, Summary(map[string]string{"phase": p.String()}, h)...)
		}
		events := Metric{
			Name: "elisa_ring_phase_events_total",
			Help: "Causal ring events offered to the log.",
			Type: TypeCounter,
			Samples: []Sample{
				{Value: float64(l.EventsSeen())},
			},
		}
		return []Metric{events, lat}
	}
}
