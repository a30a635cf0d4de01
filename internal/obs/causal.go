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
type EventKind uint8

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
	// EvRetry marks the descriptor being re-staged under the same trace
	// ID: after a busy bounce, or on the replacement ring a RingMux
	// re-routes it to on the same manager.
	EvRetry
	// EvDeliver marks Poll handing the final completion to the caller,
	// closing the chain.
	EvDeliver
	// EvFail marks failRing condemning the descriptor (CompErr, ring
	// dead) without it ever being serviced. It does not close the chain:
	// the guest still delivers the CompErr, or a RingMux re-routes the
	// descriptor and the chain goes on.
	EvFail
	// EvShed marks the fleet load shedder refusing admission (trace 0).
	EvShed
	// EvThrottle marks the admission token bucket refusing a request
	// burst (trace 0).
	EvThrottle
	// EvBreaker marked a per-tenant circuit breaker refusing a request
	// (trace 0). The fleet no longer has a breaker and never emits it;
	// the kind keeps its slot so later kinds keep their values.
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
	// RingPhaseTotal is first-submit→deliver, end to end across every
	// retry cycle and same-manager re-route.
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

// RingEvent is one step in a ring descriptor's causal chain, as the
// log's readers (Events, Chain) render it from a stored Record.
type RingEvent struct {
	// Seq numbers every event offered to the log, so gaps in a dumped
	// ring reveal eviction.
	Seq uint64
	// Trace is the descriptor's causal trace ID (0 for events with no
	// descriptor: shed and throttle refusals, rebalance moves).
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

// SubjectID names a (guest, object) pair interned in one CausalLog (see
// CausalLog.Subject). 0 is the empty pair.
type SubjectID uint32

// NoteID names a note interned in one CausalLog (see CausalLog.Note).
// The fixed notes below are interned in every log at construction, so
// the per-op emitters name them without a lookup.
type NoteID uint32

// The fixed notes, in their interned order.
const (
	NoteNone NoteID = iota
	NoteErr
	NoteBusy
	NoteGateFlush
	NotePoller
	NoteOverloadTrim
	NoteRingFailed
	NoteRingFailedSweep
	NoteGlobalBucket
	NoteTokenBucket
	NoteReroute
	numFixedNotes
)

// fixedNotes is each fixed note's text, indexed by its NoteID.
var fixedNotes = [numFixedNotes]string{
	NoteNone:            "",
	NoteErr:             "err",
	NoteBusy:            "busy",
	NoteGateFlush:       "gate-flush",
	NotePoller:          "poller",
	NoteOverloadTrim:    "overload-trim",
	NoteRingFailed:      "ring-failed",
	NoteRingFailedSweep: "ring-failed-sweep",
	NoteGlobalBucket:    "global-bucket",
	NoteTokenBucket:     "token-bucket",
	NoteReroute:         "re-route",
}

// Record is one causal event as an emitter offers it and the log stores
// it: integers only, with the names and the note behind ids the emitter
// resolved once. The text is rendered only when the log is read.
type Record struct {
	Time  simtime.Time
	Trace uint64 // 0 for events with no descriptor
	Fn    uint64
	Dur   simtime.Duration // EvBackoff's charge; 0 otherwise
	// Subject is the interned (guest, object) pair: the attachment, or
	// the tenant (object "") of an overload refusal or a rebalance.
	Subject SubjectID
	Note    NoteID
	Shard   int32 // stamped by the log
	Kind    EventKind
}

// subjectKey is an interned subject's names.
type subjectKey struct{ guest, object string }

// openTrace is the incremental per-trace state the log keeps between
// events so phase durations can be attributed without replaying the ring.
type openTrace struct {
	first                           simtime.Time // first submit, for RingPhaseTotal
	submit                          simtime.Time // latest submit/retry, resets each cycle
	flush                           simtime.Time
	drain                           simtime.Time
	complete                        simtime.Time
	subject                         SubjectID // the ring the chain lives on (see Release)
	hasFlush, hasDrain, hasComplete bool
}

// CausalLog is the bounded causal-event recorder behind the flight
// recorder: every ring descriptor's submit→flush→drain→complete→
// (busy→backoff→retry)* chain lands here, with per-phase sim-time
// attribution folded into histograms as events arrive. A nil *CausalLog
// is valid and discards everything, mirroring Recorder's nil contract.
//
// The ring holds fixed-size, pointer-free Records. Guest, object and
// note names live once in the log's intern tables; an emitter resolves
// the ids it needs once (Subject, Note) and every event after that is
// integers only. Interned names survive Reset, so ids an emitter holds
// stay valid for the log's life. A one-off note (EmitText) is not
// interned: it lives beside its event's ring slot and goes with it.
type CausalLog struct {
	mu     sync.Mutex
	ring   []Record // fixed capacity, oldest evicted first
	start  int
	count  int
	seq    uint64 // events offered; the retained ones are the last count
	shard  int32  // stamped onto every event; -1 = no owning shard
	phases [NumRingPhases]*stats.Histogram
	open   map[uint64]openTrace // by value: a submit allocates nothing

	subjects  []subjectKey
	subjectID map[subjectKey]SubjectID
	notes     []string
	noteID    map[string]NoteID

	// texts holds EmitText's notes by ring slot, allocated on the first
	// one; an event stored into a slot overwrites the slot's text.
	texts []string
}

// NewCausalLog creates a causal log retaining at most capEvents events
// (<=0 picks DefaultCausalEvents). Phase histograms are cumulative and
// unaffected by ring eviction.
func NewCausalLog(capEvents int) *CausalLog {
	if capEvents <= 0 {
		capEvents = DefaultCausalEvents
	}
	l := &CausalLog{
		ring:      make([]Record, 0, capEvents),
		shard:     -1,
		open:      make(map[uint64]openTrace),
		subjects:  []subjectKey{{}},
		subjectID: map[subjectKey]SubjectID{{}: 0},
		notes:     append([]string(nil), fixedNotes[:]...),
		noteID:    make(map[string]NoteID, numFixedNotes),
	}
	for i, n := range fixedNotes {
		l.noteID[n] = NoteID(i)
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
	l.shard = int32(id)
}

// Subject interns a (guest, object) pair and returns its id. Emitters
// call it once per attachment or tenant and keep the id; a nil log
// returns 0.
func (l *CausalLog) Subject(guest, object string) SubjectID {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	k := subjectKey{guest, object}
	id, ok := l.subjectID[k]
	if !ok {
		id = SubjectID(len(l.subjects))
		l.subjects = append(l.subjects, k)
		l.subjectID[k] = id
	}
	return id
}

// Note interns a free-text note and returns its id. It is for notes
// built off the per-op path from a small set (a retry attempt, a shed
// threshold); the per-op notes are the fixed NoteIDs. Interned notes are
// never dropped, so a note that differs on nearly every event goes
// through EmitText instead. A nil log returns NoteNone.
func (l *CausalLog) Note(text string) NoteID {
	if l == nil {
		return NoteNone
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	id, ok := l.noteID[text]
	if !ok {
		id = NoteID(len(l.notes))
		l.notes = append(l.notes, text)
		l.noteID[text] = id
	}
	return id
}

// Emit offers one causal event. The log stamps its shard, appends it to
// the bounded ring, and folds any phase interval the event closes into
// the matching histogram. Recording charges no simulated time. r's ids
// must come from this log's Subject and Note.
func (l *CausalLog) Emit(r Record) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.emitLocked(&r, "")
	l.mu.Unlock()
}

// EmitText is Emit for an event whose note is one-off text (a rebalance
// move's load and imbalance), which would grow the intern table for good.
// The text is kept beside the event's ring slot and dropped when the slot
// is reused. r.Note is ignored.
func (l *CausalLog) EmitText(r Record, text string) {
	if l == nil {
		return
	}
	l.mu.Lock()
	r.Note = NoteNone
	l.emitLocked(&r, text)
	l.mu.Unlock()
}

// emitLocked stamps, attributes and stores one event, with text as its
// slot's note text.
func (l *CausalLog) emitLocked(r *Record, text string) {
	r.Shard = l.shard
	l.seq++
	l.attributeLocked(r)
	slot := l.count
	if l.count < cap(l.ring) {
		l.ring = append(l.ring, *r)
		l.count++
	} else {
		slot = l.start
		l.ring[slot] = *r
		l.start = (l.start + 1) % l.count
	}
	if text != "" && l.texts == nil {
		l.texts = make([]string, cap(l.ring))
	}
	if l.texts != nil {
		l.texts[slot] = text
	}
}

// Release drops the open chains that live on the (guest, object)
// attachment's ring: its ring is being freed, so no later event can
// close them. A chain lives on the ring of its latest submit or retry,
// so a RingMux re-route that re-submitted a descriptor elsewhere keeps
// its chain. The manager frees a guest's rings together, at teardown,
// and a guest holds one live attachment per object, so the pair names
// the ring. Phase histograms and retained events are untouched.
func (l *CausalLog) Release(guest, object string) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	id, ok := l.subjectID[subjectKey{guest, object}]
	if !ok {
		return
	}
	for tr, o := range l.open {
		if o.subject == id {
			delete(l.open, tr)
		}
	}
}

// OpenChains reports how many traces have started a chain that no
// deliver or fail has closed yet.
func (l *CausalLog) OpenChains() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.open)
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
func (l *CausalLog) attributeLocked(e *Record) {
	if e.Trace == 0 {
		return // pre-submission refusals carry no chain
	}
	if e.Kind == EvSubmit {
		l.open[e.Trace] = openTrace{first: e.Time, submit: e.Time, subject: e.Subject}
		return
	}
	if e.Kind == EvBackoff {
		l.recordPhase(RingPhaseBackoff, e.Dur)
		return
	}
	o, ok := l.open[e.Trace]
	if !ok {
		return
	}
	switch e.Kind {
	case EvFlush:
		o.flush, o.hasFlush = e.Time, true
		l.recordPhase(RingPhaseSubmit, e.Time.Sub(o.submit))
	case EvDrain:
		o.drain, o.hasDrain = e.Time, true
		from := o.submit
		if o.hasFlush {
			from = o.flush
		}
		l.recordPhase(RingPhaseQueue, e.Time.Sub(from))
	case EvComplete, EvBusy:
		o.complete, o.hasComplete = e.Time, true
		if o.hasDrain {
			l.recordPhase(RingPhaseService, e.Time.Sub(o.drain))
		}
	case EvRetry:
		o.submit, o.subject = e.Time, e.Subject
		o.hasFlush, o.hasDrain, o.hasComplete = false, false, false
	case EvDeliver:
		if o.hasComplete {
			l.recordPhase(RingPhaseDeliver, e.Time.Sub(o.complete))
		}
		l.recordPhase(RingPhaseTotal, e.Time.Sub(o.first))
		delete(l.open, e.Trace)
		return
	default:
		return
	}
	l.open[e.Trace] = o
}

// renderLocked turns the record in one ring slot back into its
// RingEvent.
func (l *CausalLog) renderLocked(slot int, seq uint64) RingEvent {
	r := &l.ring[slot]
	s := l.subjects[r.Subject]
	note := l.notes[r.Note]
	if l.texts != nil && l.texts[slot] != "" {
		note = l.texts[slot]
	}
	return RingEvent{Seq: seq, Trace: r.Trace, Kind: r.Kind, Time: r.Time,
		Guest: s.guest, Object: s.object, Fn: r.Fn, Dur: r.Dur,
		Note: note, Shard: int(r.Shard)}
}

// Events returns the retained events, oldest first.
func (l *CausalLog) Events() []RingEvent {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]RingEvent, 0, l.count)
	seq := l.seq - uint64(l.count)
	for i := 0; i < l.count; i++ {
		out = append(out, l.renderLocked((l.start+i)%l.count, seq+uint64(i)))
	}
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

// Reset discards every event, phase histogram, and open chain. Interned
// names stay, so emitters' ids remain valid.
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
	clear(l.texts)
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
	if last.Kind == EvDeliver {
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

// phaseLabels holds one pprof label context per ring phase, built once so
// that WithPhase switches labels without allocating.
var phaseLabels = func() (ctxs [NumRingPhases]context.Context) {
	for p := range ctxs {
		ctxs[p] = pprof.WithLabels(context.Background(), pprof.Labels(PhaseLabel, RingPhase(p).String()))
	}
	return ctxs
}()

// WithPhase runs f under the pprof label PhaseLabel=p.String() so
// wall-clock CPU profiles attribute samples to the same phase names as
// the sim-time spans. On return it restores the empty label set of
// context.Background, as pprof.Do(context.Background(), …) does, so a
// nested call leaves the rest of the outer one unlabelled. Callers apply
// it at batch granularity (one drain, one flush) — never per
// descriptor — to keep the hot path's wall cost flat.
func WithPhase(p RingPhase, f func()) {
	pprof.SetGoroutineLabels(phaseLabels[p])
	defer pprof.SetGoroutineLabels(context.Background())
	f()
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
