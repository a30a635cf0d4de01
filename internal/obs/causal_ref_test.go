package obs

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/elisa-go/elisa/internal/simtime"
	"github.com/elisa-go/elisa/internal/stats"
)

// refCausalLog is the string-carrying RingEvent ring the record-based
// log replaced, kept as the reference its readers must match. The
// chain state machine is shared (attributeLocked's rules are the
// contract); storage, sequence numbers and rendering are the
// reference's own.
type refCausalLog struct {
	ring   []RingEvent
	start  int
	count  int
	seq    uint64
	shard  int
	phases [NumRingPhases]*stats.Histogram
	open   map[uint64]openTrace
}

func newRefCausalLog(capEvents int) *refCausalLog {
	l := &refCausalLog{ring: make([]RingEvent, 0, capEvents), shard: -1, open: map[uint64]openTrace{}}
	for i := range l.phases {
		l.phases[i] = stats.NewHistogram()
	}
	return l
}

func (l *refCausalLog) event(e RingEvent) {
	e.Seq = l.seq
	e.Shard = l.shard
	l.seq++
	l.attribute(e)
	if l.count < cap(l.ring) {
		l.ring = append(l.ring, e)
		l.count++
		return
	}
	l.ring[l.start] = e
	l.start = (l.start + 1) % l.count
}

func (l *refCausalLog) phase(p RingPhase, d simtime.Duration) {
	if d >= 0 {
		l.phases[p].RecordDuration(d)
	}
}

func (l *refCausalLog) attribute(e RingEvent) {
	if e.Trace == 0 {
		return
	}
	if e.Kind == EvSubmit {
		l.open[e.Trace] = openTrace{first: e.Time, submit: e.Time}
		return
	}
	if e.Kind == EvBackoff {
		l.phase(RingPhaseBackoff, e.Dur)
		return
	}
	o, ok := l.open[e.Trace]
	if !ok {
		return
	}
	switch e.Kind {
	case EvFlush:
		o.flush, o.hasFlush = e.Time, true
		l.phase(RingPhaseSubmit, e.Time.Sub(o.submit))
	case EvDrain:
		o.drain, o.hasDrain = e.Time, true
		from := o.submit
		if o.hasFlush {
			from = o.flush
		}
		l.phase(RingPhaseQueue, e.Time.Sub(from))
	case EvComplete, EvBusy:
		o.complete, o.hasComplete = e.Time, true
		if o.hasDrain {
			l.phase(RingPhaseService, e.Time.Sub(o.drain))
		}
	case EvRetry:
		o.submit = e.Time
		o.hasFlush, o.hasDrain, o.hasComplete = false, false, false
	case EvDeliver:
		if o.hasComplete {
			l.phase(RingPhaseDeliver, e.Time.Sub(o.complete))
		}
		l.phase(RingPhaseTotal, e.Time.Sub(o.first))
		delete(l.open, e.Trace)
		return
	default:
		return
	}
	l.open[e.Trace] = o
}

func (l *refCausalLog) events() []RingEvent {
	out := make([]RingEvent, 0, l.count)
	out = append(out, l.ring[l.start:l.count]...)
	return append(out, l.ring[:l.start]...)
}

func (l *refCausalLog) reset() {
	l.ring = l.ring[:0]
	l.start, l.count, l.seq = 0, 0, 0
	for i := range l.phases {
		l.phases[i].Reset()
	}
	clear(l.open)
}

// TestCausalLogMatchesReference drives random event streams — chains
// that complete, retry, fail and stay open, refusals with trace 0,
// interned notes and one-off EmitText notes — past the ring's capacity,
// with SetShard changes mid-stream and Resets, through the record-based
// log (ids resolved once per emitter) and the RingEvent reference, and
// requires Events, EventsSeen, Traces, Chain, RenderChain, the phase
// histograms and the open-chain count to agree after every step batch.
// The one-off notes must leave the log's note table as the emitters
// left it: they live and die with their ring slot.
func TestCausalLogMatchesReference(t *testing.T) {
	guests := []string{"g0", "g1", "tenant-with-a-long-name", ""}
	objects := []string{"o0", "obj-1", ""}
	notes := []string{"", "err", "busy", "poller", "gate-flush", "attempt 1/3", "class 0 below threshold 2", "global-bucket"}
	kinds := []EventKind{EvSubmit, EvFlush, EvDrain, EvComplete, EvBusy, EvBackoff, EvRetry, EvDeliver, EvFail,
		EvShed, EvThrottle, EvRebalance}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capN := 1 + rng.Intn(64)
		l := NewCausalLog(capN)
		ref := newRefCausalLog(capN)
		// Emitters resolve their subject and notes once and reuse the
		// ids, across SetShard and Reset.
		noteIDs := map[string]NoteID{}
		for _, n := range notes {
			noteIDs[n] = l.Note(n)
		}
		interned := len(l.notes)
		type emitter struct {
			guest, object string
			subj          SubjectID
		}
		var ems []emitter
		for _, g := range guests {
			for _, o := range objects {
				ems = append(ems, emitter{g, o, l.Subject(g, o)})
			}
		}
		now := simtime.Time(0)
		for step := 0; step < 3000; step++ {
			switch r := rng.Intn(1000); {
			case r < 5:
				shard := rng.Intn(5) - 1
				l.SetShard(shard)
				ref.shard = shard
			case r < 8:
				l.Reset()
				ref.reset()
			default:
				em := ems[rng.Intn(len(ems))]
				k := kinds[rng.Intn(len(kinds))]
				var trace uint64
				if k < EvShed {
					trace = 1 + uint64(rng.Intn(12))
				}
				now += simtime.Time(rng.Intn(200)) - 20 // clocks can step back across domains
				e := RingEvent{Trace: trace, Kind: k, Time: now, Guest: em.guest, Object: em.object,
					Fn: uint64(rng.Intn(3)), Note: notes[rng.Intn(len(notes))]}
				if k == EvBackoff {
					e.Dur = simtime.Duration(rng.Intn(500))
				}
				rec := Record{Time: e.Time, Trace: e.Trace, Fn: e.Fn, Dur: e.Dur, Kind: e.Kind, Subject: em.subj, Note: noteIDs[e.Note]}
				if rng.Intn(8) == 0 {
					// A one-off note, such as a rebalance move's; an
					// empty one renders as no note.
					e.Note = ""
					if rng.Intn(4) != 0 {
						e.Note = fmt.Sprintf("shard %d -> %d, load %d, imbalance %.2f", rng.Intn(4), rng.Intn(4), step, rng.Float64()*4)
					}
					l.EmitText(rec, e.Note)
				} else {
					l.Emit(rec)
				}
				ref.event(e)
			}
			if step%97 != 0 && step != 2999 {
				continue
			}
			got, want := l.Events(), ref.events()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d: Events differ\n got %v\nwant %v", seed, step, got, want)
			}
			if l.EventsSeen() != ref.seq {
				t.Fatalf("seed %d step %d: EventsSeen %d, reference %d", seed, step, l.EventsSeen(), ref.seq)
			}
			if l.OpenChains() != len(ref.open) {
				t.Fatalf("seed %d step %d: %d open chains, reference %d", seed, step, l.OpenChains(), len(ref.open))
			}
			for p := RingPhase(0); p < NumRingPhases; p++ {
				a, b := l.PhaseHistogram(p), ref.phases[p]
				if a.Count() != b.Count() || a.Sum() != b.Sum() || a.Percentile(0.5) != b.Percentile(0.5) || a.Percentile(0.99) != b.Percentile(0.99) {
					t.Fatalf("seed %d step %d: phase %s histogram differs", seed, step, p)
				}
			}
			for _, tr := range l.Traces() {
				var chain []RingEvent
				for _, e := range want {
					if e.Trace == tr {
						chain = append(chain, e)
					}
				}
				if !reflect.DeepEqual(l.Chain(tr), chain) {
					t.Fatalf("seed %d step %d: Chain(%d) differs", seed, step, tr)
				}
				if l.RenderChain(tr) == "" {
					t.Fatalf("seed %d step %d: trace %d retained but renders nothing", seed, step, tr)
				}
			}
		}
		if len(l.notes) != interned || len(l.noteID) != interned {
			t.Fatalf("seed %d: note table grew from %d to %d entries; one-off notes must not be interned", seed, interned, len(l.notes))
		}
	}
}
