package des

import (
	"testing"

	"github.com/elisa-go/elisa/internal/simtime"
)

// recorder is a Sim[int] whose handler logs every event it fires.
type recorder struct {
	sim   *Sim[int]
	order []int
	times []simtime.Time
}

func newRecorder() *recorder {
	r := &recorder{}
	r.sim = New(func(now simtime.Time, id int) {
		r.order = append(r.order, id)
		r.times = append(r.times, now)
	})
	return r
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sliceSource pulls the given arrivals in order, with ids 100, 101, ...
func sliceSource(times ...simtime.Time) Source[int] {
	i := 0
	return func() (simtime.Time, int, bool) {
		if i == len(times) {
			return 0, 0, false
		}
		i++
		return times[i-1], 99 + i, true
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	r := newRecorder()
	_ = r.sim.At(30, 3)
	_ = r.sim.At(10, 1)
	_ = r.sim.At(20, 2)
	r.sim.Run()
	if !equalInts(r.order, []int{1, 2, 3}) {
		t.Fatalf("order = %v", r.order)
	}
	if r.sim.Now() != 30 || r.sim.Fired() != 3 {
		t.Fatalf("now=%d fired=%d", r.sim.Now(), r.sim.Fired())
	}
}

func TestTieBreakIsFIFO(t *testing.T) {
	r := newRecorder()
	for i := 0; i < 5; i++ {
		_ = r.sim.At(100, i)
	}
	r.sim.Run()
	if !equalInts(r.order, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("ties not FIFO: %v", r.order)
	}
}

func TestScheduleValidation(t *testing.T) {
	r := newRecorder()
	_ = r.sim.At(50, 0)
	r.sim.Run()
	if err := r.sim.At(10, 1); err == nil {
		t.Error("past scheduling accepted")
	}
	if err := r.sim.After(-1, 1); err == nil {
		t.Error("negative delay accepted")
	}
	if r.sim.Pending() != 0 {
		t.Errorf("refused events pending: %d", r.sim.Pending())
	}
	defer func() {
		if recover() == nil {
			t.Error("nil handler accepted")
		}
	}()
	New[int](nil)
}

func TestEventsCanSchedule(t *testing.T) {
	count := 0
	var sim *Sim[int]
	sim = New(func(simtime.Time, int) {
		count++
		if count < 10 {
			_ = sim.After(5, 0)
		}
	})
	_ = sim.After(0, 0)
	sim.Run()
	if count != 10 || sim.Now() != 45 {
		t.Fatalf("count=%d now=%d", count, sim.Now())
	}
}

func TestRunUntil(t *testing.T) {
	r := newRecorder()
	for _, at := range []simtime.Time{10, 20, 30, 40} {
		_ = r.sim.At(at, int(at))
	}
	r.sim.RunUntil(25)
	if len(r.order) != 2 || r.sim.Now() != 25 {
		t.Fatalf("fired=%v now=%d", r.order, r.sim.Now())
	}
	if r.sim.Pending() != 2 {
		t.Fatalf("pending = %d", r.sim.Pending())
	}
	// Deadline-inclusive.
	r.sim.RunUntil(30)
	if len(r.order) != 3 {
		t.Fatalf("deadline event not fired: %v", r.order)
	}
}

// The arrival source's head goes before a scheduled event at the same
// instant, whatever order they were added in, and arrivals are pulled
// one at a time.
func TestSourceWinsTies(t *testing.T) {
	r := newRecorder()
	_ = r.sim.At(10, 1)
	_ = r.sim.At(20, 2)
	r.sim.Pull(sliceSource(10, 15, 20, 20))
	if r.sim.Pending() != 3 {
		t.Fatalf("pending = %d, want 2 scheduled + 1 pulled arrival", r.sim.Pending())
	}
	r.sim.Run()
	if want := []int{100, 1, 101, 102, 103, 2}; !equalInts(r.order, want) {
		t.Fatalf("order = %v, want %v", r.order, want)
	}
	if r.sim.Now() != 20 || r.sim.Fired() != 6 || r.sim.Pending() != 0 {
		t.Fatalf("now=%d fired=%d pending=%d", r.sim.Now(), r.sim.Fired(), r.sim.Pending())
	}
	// RunUntil stops before an arrival past the deadline and leaves it
	// pulled.
	r.sim.Pull(sliceSource(30))
	r.sim.RunUntil(29)
	if r.sim.Now() != 29 || r.sim.Pending() != 1 {
		t.Fatalf("now=%d pending=%d", r.sim.Now(), r.sim.Pending())
	}
}

// A source that goes back in time is a bug, and the loop says so.
func TestSourceBackInTimePanics(t *testing.T) {
	r := newRecorder()
	r.sim.Pull(sliceSource(10, 20, 15))
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order arrival accepted")
		}
		if !equalInts(r.order, []int{100}) {
			t.Fatalf("fired %v before the panic, want [100]", r.order)
		}
	}()
	r.sim.Run()
}

// TestZeroAllocSim: once its heap has grown, a Sim running a fixed mix
// of pulled arrivals, up-front events and events scheduled from
// handlers makes no heap allocation.
func TestZeroAllocSim(t *testing.T) {
	var sim *Sim[int]
	pulled := 0
	src := func() (simtime.Time, int, bool) {
		if pulled == 64 {
			return 0, 0, false
		}
		pulled++
		return sim.Now().Add(3), 0, true
	}
	sim = New(func(now simtime.Time, depth int) {
		if depth < 3 {
			_ = sim.After(simtime.Duration(7*depth+1), depth+1)
			_ = sim.At(now, depth+1)
		}
	})
	mix := func() {
		pulled = 0
		sim.Pull(src)
		for i := 0; i < 32; i++ {
			_ = sim.After(simtime.Duration(i%5), 0)
		}
		sim.RunUntil(sim.Now().Add(50))
		sim.Run()
	}
	mix() // grow the heap to its working size
	if n := testing.AllocsPerRun(100, mix); n != 0 {
		t.Fatalf("Sim allocates %v per event mix, want 0", n)
	}
}
