package elisa

// Chaos acceptance tests: seeded random operation sequences, concurrent
// revocation storms, and determinism regressions driven through the
// public API against the invariant checker (Fsck). The contract under
// test is the paper's safety argument made executable: whatever a guest
// does — and whatever the fault injector does to it — the manager
// quarantines the damage to that guest, the bookkeeping audits clean,
// and no uninvolved guest is ever killed.

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"github.com/elisa-go/elisa/internal/simtime"
)

// Manager function IDs for the chaos tests.
const (
	chaosFnDouble uint64 = 31
	chaosFnStamp  uint64 = 32
)

// TestChaosPropertySeeds drives N seeded random operation sequences
// (attach/call/detach/revoke/crash plus an armed fault plan) and checks
// the invariants after every 64-op window:
//
//   - Fsck comes out clean after pump + repair + recovery;
//   - no guest is ever protocol-killed (crashes are injected, kills are
//     bugs);
//   - no guest ever reads another tenant's private object;
//   - a guest's virtual slot IDs are never reused across re-attach.
//
// Every sequence is a pure function of its seed.
func TestChaosPropertySeeds(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1337, 0xE115A} {
		seed := seed
		t.Run(fmt.Sprintf("seed_%d", seed), func(t *testing.T) {
			t.Parallel()
			runChaosSequence(t, seed)
		})
	}
}

func runChaosSequence(t *testing.T, seed int64) {
	const (
		nGuests    = 6
		nShared    = 4
		budget     = 3
		nOps       = 6000
		maxRevokes = 10
	)
	sys, err := NewSystem(Config{SlotBudget: budget, TraceEvents: 256})
	if err != nil {
		t.Fatal(err)
	}
	mgr := sys.Manager()
	hyp := sys.Hypervisor()
	if err := mgr.RegisterFunc(chaosFnDouble, func(c *CallContext) (uint64, error) {
		return 2 * c.Args[0], nil
	}); err != nil {
		t.Fatal(err)
	}
	// Stamp: write the caller's guest ID into the object, return the
	// previous stamp. On a private object the previous stamp can only
	// ever be 0 or the owner's own ID — anything else is cross-tenant
	// leakage.
	if err := mgr.RegisterFunc(chaosFnStamp, func(c *CallContext) (uint64, error) {
		prev, err := c.ObjectU64(0)
		if err != nil {
			return 0, err
		}
		return prev, c.SetObjectU64(0, uint64(c.GuestID))
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nShared; i++ {
		if _, err := mgr.CreateObject(fmt.Sprintf("cs-%d", i), PageSize); err != nil {
			t.Fatal(err)
		}
	}

	type tenant struct {
		idx     int
		g       *GuestVM
		id      int      // hv VM ID, what chaosFnStamp writes
		priv    string   // this tenant's private object
		objs    []string // fixed order: shared objects then priv
		handles map[string]*Handle
		seen    map[int]bool // every virtual slot ever handed out
	}
	names := make([]string, nGuests)
	tenants := make([]*tenant, nGuests)
	for i := range tenants {
		names[i] = fmt.Sprintf("cg-%d", i)
		priv := fmt.Sprintf("cp-%d", i)
		if _, err := mgr.CreateObject(priv, PageSize); err != nil {
			t.Fatal(err)
		}
		// Private: nobody may attach by default; only the owner is
		// granted. Cross-tenant attach attempts probe this below.
		if err := mgr.Restrict(priv, 0); err != nil {
			t.Fatal(err)
		}
		g, err := sys.NewGuestVM(names[i], 16*PageSize)
		if err != nil {
			t.Fatal(err)
		}
		if err := mgr.Grant(priv, g.VM(), PermRW); err != nil {
			t.Fatal(err)
		}
		tn := &tenant{
			idx:     i,
			g:       g,
			id:      g.VM().ID(),
			priv:    priv,
			handles: make(map[string]*Handle),
			seen:    make(map[int]bool),
		}
		for j := 0; j < nShared; j++ {
			tn.objs = append(tn.objs, fmt.Sprintf("cs-%d", j))
		}
		tn.objs = append(tn.objs, priv)
		for _, name := range tn.objs {
			h, err := g.Attach(name)
			if err != nil {
				t.Fatalf("%s attach %s: %v", names[i], name, err)
			}
			tn.handles[name] = h
			tn.seen[h.SubIndex()] = true
		}
		tenants[i] = tn
	}

	plan, err := NewFaultPlan(FaultPlanConfig{
		Seed:    seed,
		N:       12,
		Horizon: 100 * simtime.Duration(simtime.Microsecond),
		Guests:  names,
	})
	if err != nil {
		t.Fatal(err)
	}
	inj := sys.ArmFaults(plan)

	var now simtime.Time
	rng := rand.New(rand.NewSource(seed))
	calls, crossDenied, revokes := 0, 0, 0

	check := func(step int) {
		t.Helper()
		mgr.PumpFaults(now)
		if _, err := mgr.FsckRepair(); err != nil {
			t.Fatalf("step %d: FsckRepair: %v", step, err)
		}
		if _, err := mgr.RecoverDead(); err != nil {
			t.Fatalf("step %d: RecoverDead: %v", step, err)
		}
		if err := mgr.Fsck(); err != nil {
			t.Fatalf("step %d: fsck dirty after recovery: %v", step, err)
		}
		if k := hyp.KilledVMs(); k != 0 {
			t.Fatalf("step %d: %d protocol kills — chaos must never kill", step, k)
		}
	}

	for op := 0; op < nOps; op++ {
		tn := tenants[rng.Intn(nGuests)]
		if tn.g.Dead() {
			continue
		}
		v := tn.g.VCPU()
		switch r := rng.Intn(100); {
		case r < 50: // exit-less call, result verified
			name := tn.objs[rng.Intn(len(tn.objs))]
			h := tn.handles[name]
			if h == nil {
				continue
			}
			arg := uint64(rng.Intn(1 << 30))
			ret, err := h.Call(v, chaosFnDouble, arg)
			if err == nil {
				calls++
				if ret != 2*arg {
					t.Fatalf("op %d: %s call(%d) = %d, want %d", op, tn.g.Name(), arg, ret, 2*arg)
				}
			}
		case r < 60: // stamp the private object: the leakage probe
			h := tn.handles[tn.priv]
			if h == nil {
				continue
			}
			prev, err := h.Call(v, chaosFnStamp)
			if err == nil {
				calls++
				if prev != 0 && prev != uint64(tn.id) {
					t.Fatalf("op %d: %s read foreign stamp %d in its private object", op, tn.g.Name(), prev)
				}
			}
		case r < 70: // batched calls
			name := tn.objs[rng.Intn(len(tn.objs))]
			h := tn.handles[name]
			if h == nil {
				continue
			}
			base := uint64(rng.Intn(1 << 30))
			reqs := []Req{
				{Fn: chaosFnDouble, Args: [4]uint64{base}},
				{Fn: chaosFnDouble, Args: [4]uint64{base + 1}},
			}
			if err := h.CallMulti(v, reqs); err == nil {
				calls++
				for j := range reqs {
					if reqs[j].Err == nil && reqs[j].Ret != 2*(base+uint64(j)) {
						t.Fatalf("op %d: batch[%d] = %d, want %d", op, j, reqs[j].Ret, 2*(base+uint64(j)))
					}
				}
			}
		case r < 78: // graceful detach
			name := tn.objs[rng.Intn(len(tn.objs))]
			if tn.handles[name] == nil {
				continue
			}
			if err := tn.g.Detach(name); err == nil {
				tn.handles[name] = nil
			}
		case r < 88: // (re-)attach; the returned vslot must be fresh
			var candidates []string
			for _, name := range tn.objs {
				if tn.handles[name] == nil {
					candidates = append(candidates, name)
				}
			}
			if len(candidates) == 0 {
				continue
			}
			name := candidates[rng.Intn(len(candidates))]
			h, err := tn.g.Attach(name)
			if err != nil {
				continue // injected negotiation storms may exhaust the retries
			}
			if tn.seen[h.SubIndex()] {
				t.Fatalf("op %d: %s virtual slot %d reused for %q", op, tn.g.Name(), h.SubIndex(), name)
			}
			tn.seen[h.SubIndex()] = true
			tn.handles[name] = h
		case r < 92: // manager-side revocation (bounded: revoked stays revoked)
			if revokes >= maxRevokes {
				continue
			}
			name := tn.objs[rng.Intn(len(tn.objs))]
			if err := mgr.Revoke(tn.g.VM(), name); err == nil {
				revokes++
			}
		case r < 97: // cross-tenant attach must be refused
			victim := tenants[(tn.idx+1+rng.Intn(nGuests-1))%nGuests]
			if _, err := tn.g.Attach(victim.priv); err == nil {
				t.Fatalf("op %d: %s attached %s's private object", op, tn.g.Name(), victim.g.Name())
			}
			crossDenied++
		default: // rare organic crash, keeping most tenants alive
			if rng.Intn(64) != 0 {
				continue
			}
			alive := 0
			for _, other := range tenants {
				if !other.g.Dead() {
					alive++
				}
			}
			if alive <= nGuests/2 {
				continue
			}
			hyp.CrashVM(tn.g.VM(), "chaos: injected crash")
		}
		if c := tn.g.VCPU().Clock().Now(); c > now {
			now = c
		}
		if op%64 == 63 {
			check(op)
		}
	}
	check(nOps)

	if calls < 500 {
		t.Fatalf("only %d successful calls over %d ops — degenerate sequence", calls, nOps)
	}
	if crossDenied == 0 {
		t.Fatal("cross-tenant attach probe never exercised")
	}
	if len(inj.Fired()) == 0 {
		t.Fatalf("armed plan (seed %d) never fired over %d ops", seed, nOps)
	}
	if crashed := hyp.CrashedVMs(); crashed > 0 && sys.RecoveryStats().Recoveries == 0 {
		t.Fatalf("%d crashes but zero recoveries", crashed)
	}
}

// TestChaosConcurrencyStress hammers Call/CallMulti from one goroutine
// per guest while the manager revokes attachments from the main
// goroutine. Every call must complete with the right answer or fail
// cleanly; a revocation that lands between the gate's admission check
// and the VMFUNC is the hardware's problem (the victim faults and dies,
// the simulated machine's clean refusal) — but it must never panic,
// corrupt another guest, or dirty the audit. Run under -race this is
// also the data-race proof for the split revocation path.
func TestChaosConcurrencyStress(t *testing.T) {
	const (
		nGuests  = 8
		nObjects = 4
		budget   = 2
		iters    = 1500
		nRevokes = 400
		stressFn = uint64(33)
	)
	sys, err := NewSystem(Config{SlotBudget: budget, TraceEvents: 128})
	if err != nil {
		t.Fatal(err)
	}
	mgr := sys.Manager()
	hyp := sys.Hypervisor()
	if err := mgr.RegisterFunc(stressFn, func(c *CallContext) (uint64, error) {
		return 2 * c.Args[0], nil
	}); err != nil {
		t.Fatal(err)
	}
	objName := func(i int) string { return fmt.Sprintf("st-%d", i) }
	for i := 0; i < nObjects; i++ {
		if _, err := mgr.CreateObject(objName(i), PageSize); err != nil {
			t.Fatal(err)
		}
	}
	type tenant struct {
		g  *GuestVM
		hs []*Handle
	}
	tenants := make([]*tenant, nGuests)
	for i := range tenants {
		g, err := sys.NewGuestVM(fmt.Sprintf("sg-%d", i), 16*PageSize)
		if err != nil {
			t.Fatal(err)
		}
		tn := &tenant{g: g}
		for j := 0; j < nObjects; j++ {
			h, err := g.Attach(objName(j))
			if err != nil {
				t.Fatal(err)
			}
			tn.hs = append(tn.hs, h)
		}
		tenants[i] = tn
	}

	var wg sync.WaitGroup
	violations := make([]error, nGuests)
	for i := range tenants {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tn := tenants[i]
			v := tn.g.VCPU()
			for k := 0; k < iters && !tn.g.Dead(); k++ {
				h := tn.hs[k%nObjects]
				if k%5 == 4 {
					base := uint64(k)
					reqs := []Req{
						{Fn: stressFn, Args: [4]uint64{base}},
						{Fn: stressFn, Args: [4]uint64{base + 1}},
					}
					if err := h.CallMulti(v, reqs); err == nil {
						for j := range reqs {
							if reqs[j].Err == nil && reqs[j].Ret != 2*(base+uint64(j)) {
								violations[i] = fmt.Errorf("batch[%d] = %d, want %d", j, reqs[j].Ret, 2*(base+uint64(j)))
								return
							}
						}
					}
				} else {
					arg := uint64(k)
					ret, err := h.Call(v, stressFn, arg)
					if err == nil && ret != 2*arg {
						violations[i] = fmt.Errorf("call(%d) = %d, want %d", arg, ret, 2*arg)
						return
					}
				}
			}
		}(i)
	}

	// The revocation storm, racing every caller.
	rng := rand.New(rand.NewSource(99))
	revoked := 0
	for r := 0; r < nRevokes; r++ {
		tn := tenants[rng.Intn(nGuests)]
		if err := mgr.Revoke(tn.g.VM(), objName(rng.Intn(nObjects))); err == nil {
			revoked++
		}
		runtime.Gosched()
	}
	wg.Wait()

	for i, err := range violations {
		if err != nil {
			t.Fatalf("guest %d observed a wrong result under revocation: %v", i, err)
		}
	}
	if revoked == 0 {
		t.Fatal("no revocation actually raced the callers")
	}
	if _, err := mgr.RecoverDead(); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Fsck(); err != nil {
		t.Fatalf("fsck dirty after concurrent revocation storm: %v", err)
	}
	if dead := hyp.KilledVMs() + hyp.CrashedVMs(); dead > nGuests {
		t.Fatalf("impossible death count %d", dead)
	}
}

// TestChaosDeterminismSameSeed: the same (seed, fault plan) pair replayed
// on a fresh system produces a byte-identical metrics export, an
// identical fault/recovery trace, and identical per-tenant reports —
// chaos included, the machine is a pure function of its seed.
func TestChaosDeterminismSameSeed(t *testing.T) {
	const fn = uint64(34)
	names := make([]string, 10)
	for i := range names {
		names[i] = fmt.Sprintf("ct-%02d", i)
	}
	run := func() ([]byte, string, RecoveryStats, *FleetReport) {
		sys, err := NewSystem(Config{SlotBudget: 2})
		if err != nil {
			t.Fatal(err)
		}
		mgr := sys.Manager()
		if err := mgr.RegisterFunc(fn, func(*CallContext) (uint64, error) { return 0, nil }); err != nil {
			t.Fatal(err)
		}
		objs := make([]string, 6)
		for i := range objs {
			objs[i] = fmt.Sprintf("co-%d", i)
			if _, err := mgr.CreateObject(objs[i], PageSize); err != nil {
				t.Fatal(err)
			}
		}
		plan, err := NewFaultPlan(FaultPlanConfig{
			Seed:    4242,
			N:       16,
			Horizon: 1500 * simtime.Duration(simtime.Microsecond),
			Guests:  names,
		})
		if err != nil {
			t.Fatal(err)
		}
		f, err := sys.NewFleet(FleetConfig{Cores: 2, Seed: 4242, QueueDepth: 32, Faults: plan})
		if err != nil {
			t.Fatal(err)
		}
		for i, name := range names {
			spec := TenantSpec{
				Name:    name,
				Weight:  1 + i%3,
				Objects: objs,
				Fn:      fn,
				RateOPS: 1_500_000,
			}
			if _, err := f.Admit(spec); err != nil {
				t.Fatal(err)
			}
		}
		rep, err := f.Run(2_000_000)
		if err != nil {
			t.Fatal(err)
		}
		js, err := sys.Metrics().JSON()
		if err != nil {
			t.Fatal(err)
		}
		return js, rep.FaultTrace, sys.RecoveryStats(), rep
	}
	jsA, traceA, rsA, repA := run()
	jsB, traceB, rsB, repB := run()
	if !bytes.Equal(jsA, jsB) {
		t.Fatalf("same-seed metrics exports differ:\n%s\nvs\n%s", jsA, jsB)
	}
	if traceA != traceB {
		t.Fatalf("same-seed fault traces differ:\n%q\nvs\n%q", traceA, traceB)
	}
	if rsA != rsB {
		t.Fatalf("same-seed recovery stats differ: %+v vs %+v", rsA, rsB)
	}
	if repA.FaultsFired != repB.FaultsFired {
		t.Fatalf("faults fired differ: %d vs %d", repA.FaultsFired, repB.FaultsFired)
	}
	// The replay must actually contain chaos worth comparing.
	if repA.FaultsFired == 0 {
		t.Fatal("fault plan never fired inside the fleet run")
	}
	if traceA == "" {
		t.Fatal("empty fault trace")
	}
	for i := range repA.Tenants {
		if repA.Tenants[i] != repB.Tenants[i] {
			t.Fatalf("tenant %d reports differ: %+v vs %+v", i, repA.Tenants[i], repB.Tenants[i])
		}
	}
}

// TestChaosOverloadRevokeDuringBackoff: revocation racing a CompBusy
// backoff loop. A saturated drain pass bounces part of the guest's ring
// back as CompBusy; the retry policy backs off and re-submits; then the
// manager revokes the attachment while those retries sit in the queue.
// The in-backoff guest must receive CompErr for every outstanding
// descriptor — never an eternal retry against the dead attachment — and
// the audit must come out clean. Seeded: each seed drives the retry
// jitter, and every seed must converge within a bounded number of polls.
func TestChaosOverloadRevokeDuringBackoff(t *testing.T) {
	for _, seed := range []int64{3, 11, 29} {
		seed := seed
		t.Run(fmt.Sprintf("seed_%d", seed), func(t *testing.T) {
			t.Parallel()
			const fn = uint64(36)
			sys, err := NewSystem(Config{SlotBudget: 2})
			if err != nil {
				t.Fatal(err)
			}
			mgr := sys.Manager()
			if err := mgr.SetOverload(OverloadConfig{Enabled: true, BusyFrac: 0.5}); err != nil {
				t.Fatal(err)
			}
			if err := mgr.RegisterFunc(fn, func(*CallContext) (uint64, error) { return 0, nil }); err != nil {
				t.Fatal(err)
			}
			if _, err := mgr.CreateObject("ob-0", PageSize); err != nil {
				t.Fatal(err)
			}
			g, err := sys.NewGuestVM("ob-guest", 16*PageSize)
			if err != nil {
				t.Fatal(err)
			}
			h, err := g.Attach("ob-0")
			if err != nil {
				t.Fatal(err)
			}
			v := g.VCPU()
			rc, err := h.Ring(v, RingConfig{Depth: 16, Deadline: simtime.Second,
				Retry: RetryPolicy{MaxAttempts: 8, BaseBackoff: 2 * simtime.Microsecond, Seed: seed}})
			if err != nil {
				t.Fatal(err)
			}
			const ops = 12
			for i := 0; i < ops; i++ {
				if err := rc.Submit(v, fn); err != nil {
					t.Fatal(err)
				}
			}

			// Budget 2 against 12 queued: 2 serviced, and the overload trim
			// bounces the queue down to BusyFrac×depth = 8, i.e. 2 CompBusy.
			if _, err := mgr.DrainRings(2); err != nil {
				t.Fatal(err)
			}
			// The guest polls: OK completions delivered, the busy bounces
			// swallowed into backoff and re-submitted — it is now in-backoff.
			var comps [16]Comp
			okN := 0
			n, err := rc.Poll(v, comps[:])
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if comps[i].Status != CompOK {
					t.Fatalf("pre-revoke completion %+v, want OK", comps[i])
				}
				okN++
			}
			if st := sys.RingStats()[0]; st.Retried == 0 {
				t.Fatalf("retried = 0 — the backoff loop never engaged (busied=%d)", st.Busied)
			}

			// Revocation lands mid-backoff.
			if err := mgr.Revoke(g.VM(), "ob-0"); err != nil {
				t.Fatal(err)
			}

			// Every outstanding descriptor — including the in-backoff
			// retries — must come back CompErr within a bounded number of
			// polls; CompBusy may no longer appear (the attachment is dead,
			// retrying it forever would be the bug).
			errN := 0
			for iter := 0; okN+errN < ops; iter++ {
				if iter > 2*ops {
					t.Fatalf("no convergence after %d polls: %d OK + %d Err of %d ops — retry loop stuck on a dead attachment", iter, okN, errN, ops)
				}
				n, err := rc.Poll(v, comps[:])
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < n; i++ {
					switch comps[i].Status {
					case CompErr:
						errN++
					case CompOK:
						okN++
					default:
						t.Fatalf("post-revoke completion %+v — busy retries must collapse to CompErr", comps[i])
					}
				}
			}
			if errN == 0 {
				t.Fatal("revocation mid-backoff produced no CompErr")
			}
			if rc.Pending() != 0 {
				t.Fatalf("pending = %d after convergence", rc.Pending())
			}
			if _, err := mgr.RecoverDead(); err != nil {
				t.Fatal(err)
			}
			if err := mgr.Fsck(); err != nil {
				t.Fatalf("fsck dirty after revoke-during-backoff: %v", err)
			}
		})
	}
}

// TestChaosHotPathExactWithArmedInjector: arming a fault plan aimed at a
// guest that never calls must not cost the hot path a single simulated
// nanosecond — a warm call still takes exactly the paper's 196 ns.
func TestChaosHotPathExactWithArmedInjector(t *testing.T) {
	const fn = uint64(35)
	sys, err := NewSystem(Config{SlotBudget: 2})
	if err != nil {
		t.Fatal(err)
	}
	mgr := sys.Manager()
	if err := mgr.RegisterFunc(fn, func(*CallContext) (uint64, error) { return 0, nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.CreateObject("hp-0", PageSize); err != nil {
		t.Fatal(err)
	}
	hot, err := sys.NewGuestVM("hp-hot", 16*PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.NewGuestVM("hp-idle", 16*PageSize); err != nil {
		t.Fatal(err)
	}
	// Every injection targets the idle bystander and is already due, so
	// the hot guest's every gate crossing scans past the full pending
	// list — and must still cost nothing.
	plan, err := NewFaultPlan(FaultPlanConfig{
		Seed:    5,
		N:       8,
		Horizon: simtime.Duration(simtime.Microsecond),
		Guests:  []string{"hp-idle"},
	})
	if err != nil {
		t.Fatal(err)
	}
	inj := sys.ArmFaults(plan)

	h, err := hot.Attach("hp-0")
	if err != nil {
		t.Fatal(err)
	}
	v := hot.VCPU()
	for i := 0; i < 2; i++ { // back the slot and warm the TLB
		if _, err := h.Call(v, fn); err != nil {
			t.Fatal(err)
		}
	}
	start := v.Clock().Now()
	if _, err := h.Call(v, fn); err != nil {
		t.Fatal(err)
	}
	if got, want := v.Clock().Elapsed(start), DefaultCostModel().ELISARoundTrip(); got != want {
		t.Fatalf("hot call with armed injector = %dns, want exactly %dns", int64(got), int64(want))
	}
	if fired := inj.Fired(); len(fired) != 0 {
		t.Fatalf("bystander-targeted plan fired %d times on the hot guest", len(fired))
	}
}
