// Package des is a minimal discrete-event simulator over typed events. A
// Sim[E] keeps events of one value type E in a slice-backed binary heap
// ordered by (time, scheduling order), advances a virtual clock to each
// in turn and hands it to the one handler given at construction, which
// may schedule more. Events are stored by value, so once the heap has
// grown to its working size an event costs no allocation.
//
// Arrivals need not be scheduled up front. Pull attaches a time-ordered
// arrival source, and the loop pulls the source's next arrival only when
// the previous one fires. The source's head wins ties against scheduled
// events at the same instant. That is the order the same arrivals would
// have if all of them were scheduled first, before any other event, so
// pulling them lazily changes no event order. A source that goes back in
// time is a bug, and the loop panics on it.
//
// Two models run on it. The memcached experiment (internal/mcd) is an
// M/D/1 server whose Poisson arrivals are pulled lazily; it reproduces
// the paper's latency-vs-throughput curves, which are queueing effects
// rather than straight-line cost accounting. The fleet scheduler
// (internal/fleet) runs every scheduling window on it, with a replayed
// trace as the arrival source.
package des

import (
	"fmt"
	"math"

	"github.com/elisa-go/elisa/internal/simtime"
)

// Source is a time-ordered arrival stream: each call returns the next
// arrival and its time, or ok=false once the stream is exhausted. The
// loop never calls it again after that.
type Source[E any] func() (at simtime.Time, ev E, ok bool)

// item is one scheduled event. seq, the scheduling order, breaks ties
// between events at the same time, so the order is total and
// deterministic.
type item[E any] struct {
	at  simtime.Time
	seq uint64
	ev  E
}

func (a *item[E]) before(b *item[E]) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// Sim is one simulation run over events of type E. The zero value is not
// usable; use New.
type Sim[E any] struct {
	now    simtime.Time
	heap   []item[E]
	seq    uint64
	fired  uint64
	handle func(now simtime.Time, ev E)

	// src is the arrival source (nil when none is attached or it is
	// exhausted); head is its next arrival, pulled but not yet fired,
	// and valid while hasHead.
	src     Source[E]
	head    item[E]
	hasHead bool
}

// New returns an empty simulation at time zero whose events are all
// delivered to handle.
func New[E any](handle func(now simtime.Time, ev E)) *Sim[E] {
	if handle == nil {
		panic("des: nil event handler")
	}
	return &Sim[E]{handle: handle}
}

// Now returns the current virtual time.
func (s *Sim[E]) Now() simtime.Time { return s.now }

// Fired reports how many events have executed.
func (s *Sim[E]) Fired() uint64 { return s.fired }

// Pending reports how many events are waiting to fire: the scheduled
// ones, plus the arrival source's head if one is pulled. Arrivals the
// source has not produced yet are not counted.
func (s *Sim[E]) Pending() int {
	if s.hasHead {
		return len(s.heap) + 1
	}
	return len(s.heap)
}

// At schedules ev at absolute time t (>= now).
func (s *Sim[E]) At(t simtime.Time, ev E) error {
	if t < s.now {
		return fmt.Errorf("des: scheduling in the past (%d < %d)", t, s.now)
	}
	s.push(item[E]{at: t, seq: s.seq, ev: ev})
	s.seq++
	return nil
}

// After schedules ev d from now.
func (s *Sim[E]) After(d simtime.Duration, ev E) error {
	if d < 0 {
		return fmt.Errorf("des: negative delay %d", d)
	}
	return s.At(s.now.Add(d), ev)
}

// Pull attaches src as the arrival source, replacing any earlier one,
// and pulls its first arrival.
func (s *Sim[E]) Pull(src Source[E]) {
	s.src = src
	s.pull()
}

// pull replaces the source's head with its next arrival.
func (s *Sim[E]) pull() {
	s.hasHead = false
	if s.src == nil {
		return
	}
	at, ev, ok := s.src()
	if !ok {
		s.src = nil
		return
	}
	if at < s.now {
		panic(fmt.Sprintf("des: arrival source went back in time (%d < %d)", at, s.now))
	}
	s.head = item[E]{at: at, ev: ev}
	s.hasHead = true
}

// Step fires the next event. It reports false when no events remain.
func (s *Sim[E]) Step() bool { return s.step(math.MaxInt64) }

// RunUntil fires events until the clock would pass deadline or no events
// remain. Events scheduled exactly at the deadline still fire.
func (s *Sim[E]) RunUntil(deadline simtime.Time) {
	for s.step(deadline) {
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// Run fires events until none remain (use with self-limiting models).
func (s *Sim[E]) Run() {
	for s.Step() {
	}
}

// step fires the next event if it is due at or before limit. The
// source's head goes first on a tie.
func (s *Sim[E]) step(limit simtime.Time) bool {
	var ev E
	switch {
	case s.hasHead && (len(s.heap) == 0 || s.head.at <= s.heap[0].at):
		if s.head.at > limit {
			return false
		}
		s.now, ev = s.head.at, s.head.ev
		s.pull()
	case len(s.heap) > 0:
		if s.heap[0].at > limit {
			return false
		}
		s.now = s.heap[0].at
		ev = s.pop()
	default:
		return false
	}
	s.fired++
	s.handle(s.now, ev)
	return true
}

// push adds it to the heap, sifting it up from the end.
func (s *Sim[E]) push(it item[E]) {
	s.heap = append(s.heap, it)
	h := s.heap
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !it.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = it
}

// pop removes the heap's minimum and returns its event, sifting the last
// item down from the root into the hole.
func (s *Sim[E]) pop() E {
	h := s.heap
	ev := h[0].ev
	n := len(h) - 1
	last := h[n]
	h[n] = item[E]{} // drop references the event may hold
	h = h[:n]
	s.heap = h
	if n == 0 {
		return ev
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(&h[c]) {
			c = r
		}
		if !h[c].before(&last) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = last
	return ev
}
