package elisa

// Fleet acceptance tests: the slot-virtualisation layer and the
// deterministic multi-tenant scheduler, exercised through the public API
// at the scale the design targets — thousands of attachments across
// hundreds of guests on 512-entry EPTP lists, with zero kills and
// reproducible results.

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

const fleetFnNop uint64 = 20

// Acceptance: 256 guests x 16 attachments = 4096 concurrent attachments
// on 512-entry EPTP lists with a 2-slot budget per guest. Every guest
// hammers its whole working set from its own goroutine; the miss path
// must re-negotiate slots without a single EPT-violation kill, and the
// audit must come out clean.
func TestFleetScaleManyGuestsNoKills(t *testing.T) {
	const (
		nGuests  = 256
		nObjects = 16
		budget   = 2
		rounds   = 3
	)
	sys, err := NewSystem(Config{PhysBytes: 2048 * 1024 * 1024, SlotBudget: budget, TraceEvents: 64})
	if err != nil {
		t.Fatal(err)
	}
	mgr := sys.Manager()
	if err := mgr.RegisterFunc(fleetFnNop, func(*CallContext) (uint64, error) { return 0, nil }); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nObjects; i++ {
		if _, err := mgr.CreateObject(fmt.Sprintf("fo-%02d", i), PageSize); err != nil {
			t.Fatal(err)
		}
	}
	type tenant struct {
		vm      *GuestVM
		handles []*ClusterHandle
	}
	tenants := make([]tenant, nGuests)
	attachments := 0
	for i := range tenants {
		vm, err := sys.NewGuestVM(fmt.Sprintf("fg-%03d", i), 16*PageSize)
		if err != nil {
			t.Fatal(err)
		}
		hs := make([]*ClusterHandle, nObjects)
		for j := range hs {
			h, err := vm.Attach(fmt.Sprintf("fo-%02d", j))
			if err != nil {
				t.Fatalf("guest %d attach %d: %v", i, j, err)
			}
			hs[j] = h
			attachments++
		}
		tenants[i] = tenant{vm: vm, handles: hs}
	}
	if attachments < 4096 {
		t.Fatalf("only %d attachments, want >= 4096", attachments)
	}

	var wg sync.WaitGroup
	errs := make([]error, nGuests)
	for i := range tenants {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tn := tenants[i]
			for r := 0; r < rounds; r++ {
				for _, h := range tn.handles {
					if _, err := h.Call(fleetFnNop); err != nil {
						errs[i] = err
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("guest %d: %v", i, err)
		}
	}
	for i := range tenants {
		if tenants[i].vm.Dead() {
			t.Fatalf("guest %d killed — slot pressure must never kill", i)
		}
	}
	faults := uint64(0)
	for _, ss := range sys.SlotStats() {
		if ss.Backed > budget {
			t.Fatalf("guest %s over budget: %+v", ss.Guest, ss)
		}
		faults += ss.Faults
	}
	if faults == 0 {
		t.Fatal("4096 attachments on 2-slot budgets never faulted")
	}
	if err := mgr.Fsck(); err != nil {
		t.Fatal(err)
	}

	// The hot path still costs exactly the paper's 196ns: call twice so
	// the second is guaranteed backed and TLB-warm, then measure.
	v := tenants[0].vm.VCPU(0)
	h := tenants[0].handles[0]
	if _, err := h.Call(fleetFnNop); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Call(fleetFnNop); err != nil {
		t.Fatal(err)
	}
	start := v.Clock().Now()
	if _, err := h.Call(fleetFnNop); err != nil {
		t.Fatal(err)
	}
	if got, want := v.Clock().Elapsed(start), DefaultCostModel().ELISARoundTrip(); got != want {
		t.Fatalf("hot slot call = %dns, want exactly %d", int64(got), int64(want))
	}
}

// Acceptance: two systems built and driven identically produce
// byte-identical metrics exports — the fleet is a deterministic
// simulation end to end.
func TestFleetSameSeedByteIdentical(t *testing.T) {
	run := func() ([]byte, *FleetReport) {
		sys, err := NewSystem(Config{SlotBudget: 2})
		if err != nil {
			t.Fatal(err)
		}
		mgr := sys.Manager()
		if err := mgr.RegisterFunc(fleetFnNop, func(*CallContext) (uint64, error) { return 0, nil }); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 6; i++ {
			if _, err := mgr.CreateObject(fmt.Sprintf("fo-%d", i), PageSize); err != nil {
				t.Fatal(err)
			}
		}
		f, err := sys.NewFleet(FleetConfig{Cores: 2, Seed: 1234, QueueDepth: 32})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 12; i++ {
			spec := TenantSpec{
				Name:    fmt.Sprintf("dt-%02d", i),
				Weight:  1 + i%4,
				Objects: []string{"fo-0", "fo-1", "fo-2", "fo-3", "fo-4", "fo-5"},
				Fn:      fleetFnNop,
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
		return js, rep
	}
	jsA, repA := run()
	jsB, repB := run()
	if !bytes.Equal(jsA, jsB) {
		t.Fatalf("same-seed metrics exports differ:\n%s\nvs\n%s", jsA, jsB)
	}
	for i := range repA.Tenants {
		if repA.Tenants[i] != repB.Tenants[i] {
			t.Fatalf("tenant %d reports differ: %+v vs %+v", i, repA.Tenants[i], repB.Tenants[i])
		}
	}
	// And the runs actually did work worth comparing.
	for _, tr := range repA.Tenants {
		if tr.Completed == 0 {
			t.Fatalf("tenant %s idle: %+v", tr.Name, tr)
		}
	}
}

// The fleet's gauges surface through System.Metrics alongside the slot
// collectors.
func TestFleetMetricsExported(t *testing.T) {
	sys, err := NewSystem(Config{SlotBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	mgr := sys.Manager()
	if err := mgr.RegisterFunc(fleetFnNop, func(*CallContext) (uint64, error) { return 0, nil }); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := mgr.CreateObject(fmt.Sprintf("fo-%d", i), PageSize); err != nil {
			t.Fatal(err)
		}
	}
	f, err := sys.NewFleet(FleetConfig{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Admit(TenantSpec{Name: "m0", Objects: []string{"fo-0", "fo-1", "fo-2"},
		Fn: fleetFnNop, RateOPS: 1_000_000}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	text := sys.Metrics().Prometheus()
	for _, want := range []string{
		"elisa_slot_budget", "elisa_slot_backed", "elisa_slot_faults_total",
		"elisa_slot_evictions_total", "elisa_fleet_goodput_ops",
		"elisa_fleet_dropped_total", "elisa_fleet_latency_ns",
	} {
		if !bytes.Contains([]byte(text), []byte(want)) {
			t.Fatalf("metric %q missing from export:\n%s", want, text)
		}
	}
}
