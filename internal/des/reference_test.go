package des

import (
	"container/heap"
	"fmt"

	"github.com/elisa-go/elisa/internal/simtime"
)

// refSim is the closure-based engine Sim replaced: every event is a
// heap-allocated callback, ordered by (at, seq) through container/heap.
// It is kept as the reference FuzzSim compares the typed engine against.
type refSim struct {
	now    simtime.Time
	events refHeap
	seq    uint64
	fired  uint64
}

type refEvent struct {
	at  simtime.Time
	seq uint64
	fn  func(now simtime.Time)
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

func (s *refSim) At(t simtime.Time, fn func(now simtime.Time)) error {
	if t < s.now {
		return fmt.Errorf("des: scheduling in the past (%d < %d)", t, s.now)
	}
	heap.Push(&s.events, &refEvent{at: t, seq: s.seq, fn: fn})
	s.seq++
	return nil
}

func (s *refSim) After(d simtime.Duration, fn func(now simtime.Time)) error {
	if d < 0 {
		return fmt.Errorf("des: negative delay %d", d)
	}
	return s.At(s.now.Add(d), fn)
}

func (s *refSim) Step() bool {
	if len(s.events) == 0 {
		return false
	}
	e := heap.Pop(&s.events).(*refEvent)
	s.now = e.at
	s.fired++
	e.fn(s.now)
	return true
}

func (s *refSim) RunUntil(deadline simtime.Time) {
	for len(s.events) > 0 && s.events[0].at <= deadline {
		s.Step()
	}
	if s.now < deadline {
		s.now = deadline
	}
}
