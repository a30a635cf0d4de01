package elisa

// Full-stack integration tests: many guests, many objects, mixed
// lifecycles, batched calls — all through the public API, with the
// manager's Fsck auditing the machine state after every phase, plus
// determinism checks across identical runs.

import (
	"fmt"
	"testing"
)

const (
	itFnIncr uint64 = 10 // object[0:8] += arg0, returns new value
	itFnRead uint64 = 11 // returns object[0:8]
)

func newITSystem(t *testing.T) *System {
	t.Helper()
	sys, err := NewSystem(Config{})
	if err != nil {
		t.Fatal(err)
	}
	mgr := sys.Manager()
	if err := mgr.RegisterFunc(itFnIncr, func(c *CallContext) (uint64, error) {
		v, err := c.ObjectU64(0)
		if err != nil {
			return 0, err
		}
		v += c.Args[0]
		return v, c.SetObjectU64(0, v)
	}); err != nil {
		t.Fatal(err)
	}
	if err := mgr.RegisterFunc(itFnRead, func(c *CallContext) (uint64, error) {
		return c.ObjectU64(0)
	}); err != nil {
		t.Fatal(err)
	}
	return sys
}

// Six guests hammer three shared counters concurrently (round-robin);
// the final values must equal the op counts, every guest must survive,
// and the manager's bookkeeping must stay consistent throughout.
func TestIntegrationMultiTenantCounters(t *testing.T) {
	sys := newITSystem(t)
	mgr := sys.Manager()
	const nGuests, nObjects, rounds = 6, 3, 50

	for o := 0; o < nObjects; o++ {
		if _, err := mgr.CreateObject(fmt.Sprintf("ctr-%d", o), PageSize); err != nil {
			t.Fatal(err)
		}
	}
	guests := make([]*GuestVM, nGuests)
	handles := make([][]*ClusterHandle, nGuests)
	for i := range guests {
		g, err := sys.NewGuestVM(fmt.Sprintf("t-%d", i), 16*PageSize)
		if err != nil {
			t.Fatal(err)
		}
		guests[i] = g
		handles[i] = make([]*ClusterHandle, nObjects)
		for o := 0; o < nObjects; o++ {
			h, err := g.Attach(fmt.Sprintf("ctr-%d", o))
			if err != nil {
				t.Fatal(err)
			}
			handles[i][o] = h
		}
	}
	if err := mgr.Fsck(); err != nil {
		t.Fatal(err)
	}

	for r := 0; r < rounds; r++ {
		for i := range guests {
			for o := 0; o < nObjects; o++ {
				if _, err := handles[i][o].Call(itFnIncr, 1); err != nil {
					t.Fatalf("round %d guest %d obj %d: %v", r, i, o, err)
				}
			}
		}
	}
	// Every counter saw nGuests*rounds increments, visible to everyone.
	for o := 0; o < nObjects; o++ {
		for i := range guests {
			got, err := handles[i][o].Call(itFnRead)
			if err != nil {
				t.Fatal(err)
			}
			if got != nGuests*rounds {
				t.Fatalf("guest %d sees ctr-%d = %d, want %d", i, o, got, nGuests*rounds)
			}
		}
	}
	// Zero exits on the whole data path (attach hypercalls only).
	for i, g := range guests {
		if exits := g.VCPU(0).Stats().Exits; exits != nObjects {
			t.Fatalf("guest %d took %d exits, want %d (attaches only)", i, exits, nObjects)
		}
	}
	if err := mgr.Fsck(); err != nil {
		t.Fatal(err)
	}
	// Accounting adds up: each guest did rounds incr + 1 read per object.
	for _, s := range mgr.Stats() {
		if s.Calls != rounds+1 {
			t.Fatalf("attachment %s/%s calls=%d, want %d", s.Guest, s.Object, s.Calls, rounds+1)
		}
	}
}

// CallMulti through the public facade, mixed with revocation of one
// tenant mid-run; the others are unaffected.
func TestIntegrationBatchedCallsAndRevocation(t *testing.T) {
	sys := newITSystem(t)
	mgr := sys.Manager()
	if _, err := mgr.CreateObject("shared", PageSize); err != nil {
		t.Fatal(err)
	}
	good, _ := sys.NewGuestVM("good", 16*PageSize)
	bad, _ := sys.NewGuestVM("bad", 16*PageSize)
	hg, err := good.Attach("shared")
	if err != nil {
		t.Fatal(err)
	}
	hb, err := bad.Attach("shared")
	if err != nil {
		t.Fatal(err)
	}

	reqs := make([]Req, 16)
	for i := range reqs {
		reqs[i] = Req{Fn: itFnIncr, Args: [4]uint64{1}}
	}
	if err := hg.Core().CallMulti(good.VCPU(0), reqs); err != nil {
		t.Fatal(err)
	}
	if reqs[15].Ret != 16 {
		t.Fatalf("batched counter = %d", reqs[15].Ret)
	}

	// Revoke the bad tenant; its next (cooperative) call is refused.
	badVM, err := bad.VM(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.Revoke(badVM, "shared"); err != nil {
		t.Fatal(err)
	}
	if _, err := hb.Call(itFnRead); err == nil {
		t.Fatal("revoked call succeeded")
	}
	if bad.Dead() {
		t.Fatal("cooperative revoked tenant killed")
	}
	// The good tenant continues.
	if _, err := hg.Call(itFnIncr, 1); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Fsck(); err != nil {
		t.Fatal(err)
	}
}

// Determinism: two identical systems running the same program agree on
// every observable — simulated time, stats, results — bit for bit.
func TestIntegrationDeterminism(t *testing.T) {
	run := func() (Duration, uint64, uint64) {
		sys := newITSystem(t)
		if _, err := sys.Manager().CreateObject("d", PageSize); err != nil {
			t.Fatal(err)
		}
		g, err := sys.NewGuestVM("g", 16*PageSize)
		if err != nil {
			t.Fatal(err)
		}
		h, err := g.Attach("d")
		if err != nil {
			t.Fatal(err)
		}
		var last uint64
		for i := 0; i < 500; i++ {
			last, err = h.Call(itFnIncr, uint64(i%7))
			if err != nil {
				t.Fatal(err)
			}
		}
		s := g.VCPU(0).Stats()
		return g.Elapsed(), last, s.VMFuncs
	}
	e1, r1, f1 := run()
	e2, r2, f2 := run()
	if e1 != e2 || r1 != r2 || f1 != f2 {
		t.Fatalf("nondeterministic: (%v,%d,%d) vs (%v,%d,%d)", e1, r1, f1, e2, r2, f2)
	}
}
