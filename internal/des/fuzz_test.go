package des

import (
	"testing"

	"github.com/elisa-go/elisa/internal/simtime"
)

// fuzzProgram is one random simulation: events scheduled up front,
// arrivals for a source, RunUntil deadlines, and the rules by which a
// firing event schedules more.
type fuzzProgram struct {
	initial   []simtime.Time // up-front event times
	arrivals  []simtime.Time // non-decreasing arrival times
	deadlines []simtime.Time // RunUntil calls, in order, before the final drain
	spawn     []byte         // child rules, indexed by event id
}

// maxFuzzEvents bounds how many events one program creates.
const maxFuzzEvents = 256

// fuzzDelays are the child delays; the zeros and small values make
// equal-time ties common.
var fuzzDelays = [8]simtime.Duration{0, 0, 1, 3, 5, 10, 20, 50}

func decodeFuzzProgram(data []byte) fuzzProgram {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	var p fuzzProgram
	for n := next() % 16; n > 0; n-- {
		p.initial = append(p.initial, simtime.Time(next()%32))
	}
	t := simtime.Time(0)
	for n := next() % 16; n > 0; n-- {
		t += simtime.Time(next() % 4)
		p.arrivals = append(p.arrivals, t)
	}
	for n := next() % 6; n > 0; n-- {
		p.deadlines = append(p.deadlines, simtime.Time(next()%64))
	}
	p.spawn = data
	if len(p.spawn) == 0 {
		p.spawn = []byte{0}
	}
	return p
}

type fireRec struct {
	at simtime.Time
	id int
}

// fuzzRunner runs a program on one engine through the scheduling calls
// the engine provides. Ids number events in creation order: arrivals
// first, then up-front events, then children. Two engines that fire in
// the same order create children in the same order, so their ids agree.
type fuzzRunner struct {
	t      *testing.T
	p      fuzzProgram
	at     func(t simtime.Time, id int) error
	after  func(d simtime.Duration, id int) error
	fires  []fireRec
	nextID int
}

func (r *fuzzRunner) fire(now simtime.Time, id int) {
	r.fires = append(r.fires, fireRec{now, id})
	b := r.p.spawn[id%len(r.p.spawn)]
	for k := 0; k < int(b&3) && r.nextID < maxFuzzEvents; k++ {
		delay := fuzzDelays[(int(b>>2)+3*k)&7]
		child := r.nextID
		r.nextID++
		var err error
		if b&0x20 == 0 {
			err = r.after(delay, child)
		} else {
			err = r.at(now.Add(delay), child)
		}
		if err != nil {
			r.t.Fatalf("event %d: scheduling child %d: %v", id, child, err)
		}
	}
	if b&0x80 != 0 && now > 0 {
		if err := r.at(now-1, -1); err == nil {
			r.t.Fatalf("event %d: scheduling at %d, before now=%d, accepted", id, now-1, now)
		}
	}
}

// runTyped runs p on Sim, pulling the arrivals from a source.
func runTyped(t *testing.T, p fuzzProgram) ([]fireRec, simtime.Time, uint64) {
	r := &fuzzRunner{t: t, p: p}
	sim := New(r.fire)
	r.at, r.after = sim.At, sim.After
	i := 0
	sim.Pull(func() (simtime.Time, int, bool) {
		if i == len(p.arrivals) {
			return 0, 0, false
		}
		i++
		return p.arrivals[i-1], i - 1, true
	})
	r.nextID = len(p.arrivals)
	for _, at := range p.initial {
		if err := sim.At(at, r.nextID); err != nil {
			t.Fatal(err)
		}
		r.nextID++
	}
	for _, dl := range p.deadlines {
		sim.RunUntil(dl)
	}
	sim.Run()
	return r.fires, sim.Now(), sim.Fired()
}

// runReference runs p on the closure-based engine, with every arrival
// scheduled up front before anything else.
func runReference(t *testing.T, p fuzzProgram) ([]fireRec, simtime.Time, uint64) {
	r := &fuzzRunner{t: t, p: p}
	ref := &refSim{}
	r.at = func(at simtime.Time, id int) error {
		return ref.At(at, func(now simtime.Time) { r.fire(now, id) })
	}
	r.after = func(dl simtime.Duration, id int) error {
		return ref.After(dl, func(now simtime.Time) { r.fire(now, id) })
	}
	for _, at := range p.arrivals {
		if err := r.at(at, r.nextID); err != nil {
			t.Fatal(err)
		}
		r.nextID++
	}
	for _, at := range p.initial {
		if err := r.at(at, r.nextID); err != nil {
			t.Fatal(err)
		}
		r.nextID++
	}
	for _, dl := range p.deadlines {
		ref.RunUntil(dl)
	}
	for ref.Step() {
	}
	return r.fires, ref.now, ref.fired
}

// FuzzSim runs random programs through the typed engine and the
// closure-based engine it replaced, and requires the same (time, id)
// fire sequence and the same final clock from both. The typed engine
// pulls the arrivals lazily from a source; the reference has them all
// scheduled up front.
func FuzzSim(f *testing.F) {
	f.Add([]byte{3, 5, 5, 9, 2, 0, 1, 1, 2, 5, 10, 40, 0x07, 0x26, 0x81, 0x13})
	f.Add([]byte{0, 4, 0, 0, 0, 0, 0})
	f.Add([]byte{8, 1, 1, 1, 1, 2, 2, 3, 3, 0, 3, 3, 4, 7, 0xa3, 0x3f, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := decodeFuzzProgram(data)
		got, gotNow, gotFired := runTyped(t, p)
		want, wantNow, wantFired := runReference(t, p)
		if len(got) != len(want) {
			t.Fatalf("typed engine fired %d events, reference %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("fire %d: typed (t=%d id=%d), reference (t=%d id=%d)",
					i, got[i].at, got[i].id, want[i].at, want[i].id)
			}
		}
		if gotNow != wantNow || gotFired != wantFired {
			t.Fatalf("final clock %d, fired %d; reference %d, %d", gotNow, gotFired, wantNow, wantFired)
		}
	})
}
