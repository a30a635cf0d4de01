package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/elisa-go/elisa/internal/mem"
	"github.com/elisa-go/elisa/internal/obs"
	"github.com/elisa-go/elisa/internal/shm"
)

// TestCausalChainsReleasedWithRing: a chain whose completion was never
// delivered stays open until its ring is freed. Five rounds of attach,
// ring, four submits, a poller pass and CleanupGuest must leave no open
// chain behind each cleanup (a log that kept them would hold 4, 8, …,
// 20), while every event stays retained and counted.
func TestCausalChainsReleasedWithRing(t *testing.T) {
	f := newFixture(t)
	rec := obs.NewRecorder(obs.Config{})
	f.mgr.SetRecorder(rec)
	if _, err := f.mgr.CreateObject("obj", mem.PageSize); err != nil {
		t.Fatal(err)
	}
	log := rec.Causal()
	for round := 0; round < 5; round++ {
		vm, g := f.newGuest(t, fmt.Sprintf("g%d", round))
		h, err := g.Attach("obj")
		if err != nil {
			t.Fatal(err)
		}
		rc, err := h.Ring(vm.VCPU(), RingConfig{Depth: 8, Deadline: farDeadline})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			if err := rc.Submit(vm.VCPU(), fnNop); err != nil {
				t.Fatal(err)
			}
		}
		if n, err := f.mgr.DrainRings(0); err != nil || n != 4 {
			t.Fatalf("round %d: drained %d, %v", round, n, err)
		}
		if got := log.OpenChains(); got != 4 {
			t.Fatalf("round %d: %d open chains before cleanup, want the 4 undelivered", round, got)
		}
		if err := f.mgr.CleanupGuest(vm); err != nil {
			t.Fatal(err)
		}
		if got := log.OpenChains(); got != 0 {
			t.Fatalf("round %d: %d open chains after the ring was freed, want 0", round, got)
		}
		if seen, want := log.EventsSeen(), uint64(12*(round+1)); seen != want {
			t.Fatalf("round %d: %d events seen, want %d", round, seen, want)
		}
	}
	if got := len(log.Traces()); got != 20 {
		t.Fatalf("%d traces retained, want all 20", got)
	}
}

// TestLateRecorderAttributes: a recorder set after the rings exist, and
// a second one swapped in later, each attribute the events, ring
// batches and latencies that follow to the right attachment, while the
// guest and the manager poller run on separate goroutines (run it with
// -race).
func TestLateRecorderAttributes(t *testing.T) {
	f := newFixture(t)
	if _, err := f.mgr.CreateObject("obj", mem.PageSize); err != nil {
		t.Fatal(err)
	}
	vm, g := f.newGuest(t, "late")
	h, err := g.Attach("obj")
	if err != nil {
		t.Fatal(err)
	}
	v := vm.VCPU()
	rc, err := h.Ring(v, RingConfig{Depth: 16, Deadline: farDeadline})
	if err != nil {
		t.Fatal(err)
	}
	// Some traffic before any recorder exists.
	run := func(ops int) {
		var stop atomic.Bool
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if _, err := f.mgr.DrainRings(8); err != nil {
					t.Errorf("DrainRings: %v", err)
					return
				}
			}
		}()
		var comps [16]shm.Comp
		polled := 0
		for i := 0; i < ops; i++ {
			if err := rc.Submit(v, fnNop); err != nil {
				t.Fatal(err)
			}
			if i%5 == 4 {
				if err := rc.Flush(v); err != nil {
					t.Fatal(err)
				}
			}
			n, err := rc.Poll(v, comps[:])
			if err != nil {
				t.Fatal(err)
			}
			polled += n
		}
		for polled < ops {
			if err := rc.Flush(v); err != nil {
				t.Fatal(err)
			}
			n, err := rc.Poll(v, comps[:])
			if err != nil {
				t.Fatal(err)
			}
			polled += n
		}
		stop.Store(true)
		wg.Wait()
	}
	run(50)
	for i, rec := range []*obs.Recorder{obs.NewRecorder(obs.Config{}), obs.NewRecorder(obs.Config{})} {
		f.mgr.SetRecorder(rec)
		run(200)
		evs := rec.Causal().Events()
		if len(evs) == 0 {
			t.Fatalf("recorder %d: no causal events", i)
		}
		kinds := map[obs.EventKind]int{}
		for _, e := range evs {
			if e.Guest != "late" || e.Object != "obj" {
				t.Fatalf("recorder %d: event attributed to %q/%q: %v", i, e.Guest, e.Object, e)
			}
			kinds[e.Kind]++
		}
		if kinds[obs.EvSubmit] != 200 || kinds[obs.EvDeliver] != 200 || kinds[obs.EvComplete] != 200 {
			t.Fatalf("recorder %d: event kinds %v, want 200 submits, completes and delivers", i, kinds)
		}
		if keys := rec.RingBatchKeys(); len(keys) != 1 || keys[0] != (obs.RingKey{Guest: "late", Object: "obj"}) {
			t.Fatalf("recorder %d: ring-batch series %v", i, keys)
		}
		if n := rec.RingBatchHistogram(obs.RingKey{Guest: "late", Object: "obj"}).Sum(); n != 200 {
			t.Fatalf("recorder %d: ring batches sum to %d descriptors, want 200", i, n)
		}
		if kinds[obs.EvFlush] > 0 {
			if keys := rec.Keys(); len(keys) != 1 || keys[0] != (obs.Key{Guest: "late", Object: "obj", Fn: fnNop}) {
				t.Fatalf("recorder %d: latency series %v", i, keys)
			}
		}
	}
}
