package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/elisa-go/elisa/internal/fault"
	"github.com/elisa-go/elisa/internal/hv"
	"github.com/elisa-go/elisa/internal/mem"
	"github.com/elisa-go/elisa/internal/obs"
	"github.com/elisa-go/elisa/internal/shm"
	"github.com/elisa-go/elisa/internal/simtime"
)

// checkWorklist fails the test unless the DrainRings worklist the
// manager has cached equals one built from scratch now.
func checkWorklist(t *testing.T, m *Manager, step string) {
	t.Helper()
	m.pollMu.Lock()
	defer m.pollMu.Unlock()
	m.mu.Lock()
	defer m.mu.Unlock()
	cachedTargets := slices.Clone(m.drainTargets)
	cachedGroups := slices.Clone(m.drainGroups)
	m.buildWorklistLocked()
	if !slices.Equal(cachedTargets, m.drainTargets) || !slices.Equal(cachedGroups, m.drainGroups) {
		t.Fatalf("%s: cached worklist %v %v, fresh build %v %v",
			step, cachedTargets, cachedGroups, m.drainTargets, m.drainGroups)
	}
}

// wlGuest is one guest of the worklist property test and what it holds.
type wlGuest struct {
	vm    *hv.VM
	g     *Guest
	hs    map[string]*Handle
	rings []*RingCaller
}

// TestDrainWorklistMatchesFreshBuild runs random sequences of the
// changes the DrainRings worklist depends on — attach, ring setup, poll
// weights, the three revocations (manager Revoke, guest detach, an
// injected revoke racing a call), CleanupGuest and RecoverGuest — with
// submissions between them and a DrainRings pass after every step. After
// each pass the cached worklist must equal a fresh build, so a change
// that forgets to bump the manager's generation fails here.
func TestDrainWorklistMatchesFreshBuild(t *testing.T) {
	objects := []string{"o0", "o1", "o2"}
	for seed := int64(1); seed <= 12; seed++ {
		r := rand.New(rand.NewSource(seed))
		f := newFixture(t)
		m := f.mgr
		for _, o := range objects {
			if _, err := m.CreateObject(o, mem.PageSize); err != nil {
				t.Fatal(err)
			}
		}
		var guests []*wlGuest
		nextVM := 0
		pick := func() *wlGuest {
			if len(guests) == 0 || (len(guests) < 4 && r.Intn(3) == 0) {
				vm, g := f.newGuest(t, fmt.Sprintf("wl%d", nextVM))
				nextVM++
				guests = append(guests, &wlGuest{vm: vm, g: g, hs: map[string]*Handle{}})
			}
			return guests[r.Intn(len(guests))]
		}
		drop := func(w *wlGuest) {
			guests = slices.DeleteFunc(guests, func(x *wlGuest) bool { return x == w })
		}
		for step := 0; step < 80; step++ {
			w := pick()
			v := w.vm.VCPU()
			obj := objects[r.Intn(len(objects))]
			h := w.hs[obj]
			var op string
			switch k := r.Intn(10); {
			case k <= 1:
				op = "attach"
				if nh, err := w.g.Attach(obj); err == nil {
					w.hs[obj] = nh
				}
			case k <= 3 && h != nil:
				op = "ring"
				if rc, err := h.Ring(v, RingConfig{Depth: 8, Deadline: farDeadline}); err == nil {
					w.rings = append(w.rings, rc)
				}
			case k == 4 && len(w.rings) > 0:
				op = "submit"
				rc := w.rings[r.Intn(len(w.rings))]
				for i := r.Intn(4); i >= 0; i-- {
					_ = rc.Submit(v, fnNop)
				}
			case k == 5:
				op = "weight"
				_ = m.SetPollWeight(w.vm, r.Intn(4))
			case k == 6:
				op = "revoke"
				_ = m.Revoke(w.vm, obj)
			case k == 7 && h != nil:
				op = "detach"
				_ = w.g.Detach(obj)
			case k == 8 && h != nil:
				op = "revoke-mid-call"
				m.SetInjector(fault.NewInjector(&fault.Plan{Injections: []fault.Injection{
					{Class: fault.ClassRevokeRace, Guest: w.vm.Name()},
				}}))
				_, _ = h.Call(v, fnNop)
				m.SetInjector(nil)
			case k == 9 && r.Intn(2) == 0:
				op = "cleanup"
				_ = m.CleanupGuest(w.vm)
				drop(w)
			case k == 9:
				op = "recover"
				_, _ = m.RecoverGuest(w.vm)
				drop(w)
			default:
				op = "noop"
			}
			budget := []int{0, 1, 3, 64}[r.Intn(4)]
			if _, err := m.DrainRings(budget); err != nil {
				t.Fatalf("seed %d step %d (%s): DrainRings: %v", seed, step, op, err)
			}
			checkWorklist(t, m, fmt.Sprintf("seed %d step %d (%s)", seed, step, op))
			var comps [8]shm.Comp
			for _, rc := range w.rings {
				_, _ = rc.Poll(v, comps[:])
			}
		}
	}
}

// TestDrainWorklistRebuiltOnlyAfterGenerationBump: a pass reuses the
// worklist it built before — a poll weight written behind the manager's
// back does not reach it — until a change that bumps the generation
// (here SetPollWeight) makes the next pass rebuild.
func TestDrainWorklistRebuiltOnlyAfterGenerationBump(t *testing.T) {
	f := newFixture(t)
	if _, err := f.mgr.CreateObject("obj", mem.PageSize); err != nil {
		t.Fatal(err)
	}
	vm, g := f.newGuest(t, "g")
	h, err := g.Attach("obj")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Ring(vm.VCPU(), RingConfig{Depth: 8, Deadline: farDeadline}); err != nil {
		t.Fatal(err)
	}
	weight := func() int {
		if _, err := f.mgr.DrainRings(4); err != nil {
			t.Fatal(err)
		}
		if len(f.mgr.drainGroups) != 1 {
			t.Fatalf("worklist has %d groups, want 1", len(f.mgr.drainGroups))
		}
		return f.mgr.drainGroups[0].weight
	}
	if w := weight(); w != 1 {
		t.Fatalf("initial weight %d, want 1", w)
	}
	f.mgr.mu.Lock()
	f.mgr.guests[vm.ID()].pollWeight = 5 // no generation bump
	f.mgr.mu.Unlock()
	if w := weight(); w != 1 {
		t.Fatalf("worklist rebuilt without a generation bump: weight %d", w)
	}
	if err := f.mgr.SetPollWeight(vm, 3); err != nil {
		t.Fatal(err)
	}
	if w := weight(); w != 3 {
		t.Fatalf("worklist not rebuilt after SetPollWeight: weight %d, want 3", w)
	}
}

// TestDrainIdlePassCharge pins what a DrainRings pass charges the
// manager clock. With the budget not used up both passes visit every
// ring, and each visit takes the drain lock and reads the four ring
// cursors whether or not anything is queued: N idle rings cost exactly
// 2·N·(LockAcquire + 4·MemAccess + LockRelease). One queued descriptor
// adds exactly its own body: the descriptor read, the completion write
// and the two published cursors. The figures hold with and without a
// flight recorder.
func TestDrainIdlePassCharge(t *testing.T) {
	const rings = 4
	for _, rec := range []*obs.Recorder{nil, obs.NewRecorder(obs.Config{})} {
		f := newFixture(t)
		f.mgr.SetRecorder(rec)
		if _, err := f.mgr.CreateObject("obj", mem.PageSize); err != nil {
			t.Fatal(err)
		}
		var first *RingCaller
		var firstVM *hv.VM
		for i := 0; i < rings; i++ {
			vm, g := f.newGuest(t, fmt.Sprintf("g%d", i))
			h, err := g.Attach("obj")
			if err != nil {
				t.Fatal(err)
			}
			rc, err := h.Ring(vm.VCPU(), RingConfig{Depth: 8, Deadline: farDeadline})
			if err != nil {
				t.Fatal(err)
			}
			if first == nil {
				first, firstVM = rc, vm
			}
		}
		clk := f.mgr.VM().VCPU().Clock()
		pass := func() simtime.Duration {
			t0 := clk.Now()
			if _, err := f.mgr.DrainRings(64); err != nil {
				t.Fatal(err)
			}
			return clk.Elapsed(t0)
		}
		pass() // the first pass builds the worklist; it charges nothing extra
		c := f.hv.Cost()
		visit := c.LockAcquire + 4*c.MemAccess + c.LockRelease
		if got, want := pass(), 2*rings*visit; got != want {
			t.Fatalf("recorder %v: idle pass over %d rings charged %v, want %v", rec != nil, rings, got, want)
		}
		if err := first.Submit(firstVM.VCPU(), fnNop); err != nil {
			t.Fatal(err)
		}
		body := c.CopyCost(48) + c.CopyCost(24) + 2*c.MemAccess // descriptor, completion, two cursors
		if got, want := pass(), 2*rings*visit+body; got != want {
			t.Fatalf("recorder %v: pass with one descriptor charged %v, want %v", rec != nil, got, want)
		}
	}
}
