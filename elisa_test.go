package elisa

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

const (
	fnPublish uint64 = 1
	fnFetch   uint64 = 2
)

func newSystem(t *testing.T) *System {
	t.Helper()
	sys, err := NewSystem(Config{})
	if err != nil {
		t.Fatal(err)
	}
	mgr := sys.Manager()
	if err := mgr.RegisterFunc(fnPublish, func(c *CallContext) (uint64, error) {
		return 0, c.CopyExchangeToObject(int(c.Args[0]), 0, int(c.Args[1]))
	}); err != nil {
		t.Fatal(err)
	}
	if err := mgr.RegisterFunc(fnFetch, func(c *CallContext) (uint64, error) {
		return 0, c.CopyObjectToExchange(0, int(c.Args[0]), int(c.Args[1]))
	}); err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestPublicAPIEndToEnd(t *testing.T) {
	sys := newSystem(t)
	if _, err := sys.Manager().CreateObject("board", 2*PageSize); err != nil {
		t.Fatal(err)
	}
	a, err := sys.NewGuestVM("tenant-a", 16*PageSize)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sys.NewGuestVM("tenant-b", 16*PageSize)
	if err != nil {
		t.Fatal(err)
	}
	ha, err := a.Attach("board")
	if err != nil {
		t.Fatal(err)
	}
	hb, err := b.Attach("board")
	if err != nil {
		t.Fatal(err)
	}

	msg := []byte("published through the public API")
	if err := ha.Core().ExchangeWrite(a.VCPU(0), 0, msg); err != nil {
		t.Fatal(err)
	}
	if _, err := ha.Call(fnPublish, 128, uint64(len(msg))); err != nil {
		t.Fatal(err)
	}
	if _, err := hb.Call(fnFetch, 128, uint64(len(msg))); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if err := hb.Core().ExchangeRead(b.VCPU(0), 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("cross-VM payload %q", got)
	}
	if a.Dead() || b.Dead() {
		t.Fatal("guests died on the happy path")
	}
	if a.VCPU(0).Stats().Exits == 0 {
		t.Fatal("attach should have exited (negotiation)")
	}
	if a.Elapsed() <= 0 {
		t.Fatal("no simulated time consumed")
	}
	if vm, err := a.VM(0); a.Name() != "tenant-a" || err != nil || vm.Name() != "tenant-a" {
		t.Fatal("accessors broken")
	}
}

func TestPublicAPIIsolation(t *testing.T) {
	sys := newSystem(t)
	obj, err := sys.Manager().CreateObject("secret", PageSize)
	if err != nil {
		t.Fatal(err)
	}
	g, err := sys.NewGuestVM("snoop", 16*PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Attach("secret"); err != nil {
		t.Fatal(err)
	}
	// Reading the object's address without switching contexts is fatal.
	err = g.VCPU(0).ReadGPA(obj.GPA(), make([]byte, 8))
	if err == nil || !g.Dead() {
		t.Fatalf("direct access survived: %v (dead=%v)", err, g.Dead())
	}
}

func TestPublicAPIGrants(t *testing.T) {
	sys := newSystem(t)
	if _, err := sys.Manager().CreateObject("ro", PageSize); err != nil {
		t.Fatal(err)
	}
	g, err := sys.NewGuestVM("reader", 16*PageSize)
	if err != nil {
		t.Fatal(err)
	}
	vm, err := g.VM(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Manager().Grant("ro", vm, PermRead); err != nil {
		t.Fatal(err)
	}
	h, err := g.Attach("ro")
	if err != nil {
		t.Fatal(err)
	}
	// Reads fine; writes fatal.
	if _, err := h.Call(fnFetch, 0, 8); err != nil {
		t.Fatal(err)
	}
	_ = h.Core().ExchangeWrite(g.VCPU(0), 0, []byte{1})
	if _, err := h.Call(fnPublish, 0, 1); err == nil || !g.Dead() {
		t.Fatal("read-only grant not enforced")
	}
}

func TestValidateAndCostModel(t *testing.T) {
	sys := newSystem(t)
	e, v, err := sys.Validate()
	if err != nil {
		t.Fatal(err)
	}
	if e != 196 || v != 699 {
		t.Fatalf("round trips %v/%v, want 196/699", e, v)
	}
	m := DefaultCostModel()
	if m.ELISARoundTrip() != 196 {
		t.Fatalf("DefaultCostModel ELISA RTT = %v", m.ELISARoundTrip())
	}
	// A custom cost model flows through.
	m.VMFunc = 1000
	sys2, err := NewSystem(Config{Cost: &m})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sys2.Validate(); err == nil {
		t.Fatal("degenerate model (vmfunc > vmcall) accepted by Validate")
	}
}

func TestDetachViaFacade(t *testing.T) {
	sys := newSystem(t)
	_, _ = sys.Manager().CreateObject("tmp", PageSize)
	g, _ := sys.NewGuestVM("g", 16*PageSize)
	h, err := g.Attach("tmp")
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Detach("tmp"); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Call(fnFetch, 0, 1); err == nil {
		t.Fatal("call after detach succeeded")
	}
	if g.Dead() {
		t.Fatal("graceful detach killed the guest")
	}
}

// NewSystem returns the manager's refusal of a SlotBudget outside
// [0, MaxSlotBudget] rather than booting with the whole list.
func TestNewSystemRefusesSlotBudgetOutsideList(t *testing.T) {
	for _, budget := range []int{-1, MaxSlotBudget + 1} {
		sys, err := NewSystem(Config{SlotBudget: budget})
		if err == nil || !strings.Contains(err.Error(), fmt.Sprint(MaxSlotBudget)) {
			t.Errorf("SlotBudget %d: NewSystem = %v, %v; want an error naming the limit", budget, sys, err)
		}
	}
	if _, err := NewSystem(Config{SlotBudget: MaxSlotBudget}); err != nil {
		t.Fatalf("SlotBudget %d refused: %v", MaxSlotBudget, err)
	}
}
