// Command elisa-inspect builds a small multi-tenant ELISA system and
// prints its complete EPT-context layouts, attachment accounting, and
// the gate chain — the debugging view an operator of the real system
// would want. Everything printed is read back from the simulated
// machine's page tables, not from the manager's bookkeeping, so the tool
// doubles as an end-to-end audit.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	elisa "github.com/elisa-go/elisa"
	"github.com/elisa-go/elisa/internal/core"
	"github.com/elisa-go/elisa/internal/ept"
	"github.com/elisa-go/elisa/internal/mem"
	"github.com/elisa-go/elisa/internal/simtime"
)

func main() {
	guests := flag.Int("guests", 2, "number of tenant guests")
	objects := flag.Int("objects", 2, "number of shared objects")
	slotBudget := flag.Int("slot-budget", 0, "physical EPTP slots per guest (0 = whole list); below -objects, the dump shows virtual-only slots")
	traceDump := flag.Bool("trace", false, "also dump the slow-path trace buffer and the sampled fast-path span ring")
	nFaults := flag.Int("faults", 0, "arm a seeded chaos plan with this many faults after the baseline dump, then print the fault/recovery trace (0 = off)")
	faultSeed := flag.Int64("fault-seed", 42, "seed for the -faults chaos plan; same seed reproduces the same trace")
	causal := flag.String("causal", "", `render causal ring-call chains from a seeded overload scenario: a trace ID (decimal or 0x-hex) or "all"`)
	flag.Parse()
	if err := checkFlags(*guests, *objects, *slotBudget, *nFaults); err != nil {
		fmt.Fprintf(os.Stderr, "elisa-inspect: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}
	if *causal != "" {
		if err := runCausal(*causal); err != nil {
			log.Fatal(err)
		}
		return
	}
	if err := run(*guests, *objects, *slotBudget, *traceDump, *nFaults, *faultSeed); err != nil {
		log.Fatal(err)
	}
}

// checkFlags refuses flag values the dump would crash on or quietly
// ignore: no guests or objects to inspect, or a negative slot budget or
// fault count. main reports its error as a usage error (exit status 2).
func checkFlags(guests, objects, slotBudget, faults int) error {
	switch {
	case guests < 1:
		return fmt.Errorf("-guests %d: must be at least 1", guests)
	case objects < 1:
		return fmt.Errorf("-objects %d: must be at least 1", objects)
	case slotBudget < 0 || slotBudget > core.MaxSlotBudget:
		return fmt.Errorf("-slot-budget %d: must be in [0, %d] (0 = the whole list)", slotBudget, core.MaxSlotBudget)
	case faults < 0:
		return fmt.Errorf("-faults %d: must be at least 0 (0 = off)", faults)
	}
	return nil
}

func run(nGuests, nObjects, slotBudget int, traceDump bool, nFaults int, faultSeed int64) error {
	cfg := elisa.Config{SlotBudget: slotBudget}
	if traceDump {
		// The forensic view: retain slow-path events and record every
		// fast-path span (no sampling) so the dump below is complete.
		cfg.TraceEvents = 4096
		cfg.Observe = &elisa.ObserveConfig{SampleEvery: 1}
	}
	sys, err := elisa.NewSystem(cfg)
	if err != nil {
		return err
	}
	mgr := sys.Manager()
	if err := mgr.RegisterFunc(1, func(c *elisa.CallContext) (uint64, error) { return c.Args[0] * 2, nil }); err != nil {
		return err
	}
	for i := 0; i < nObjects; i++ {
		if _, err := mgr.CreateObject(fmt.Sprintf("object-%d", i), (i+1)*elisa.PageSize); err != nil {
			return err
		}
	}
	vms := make([]*elisa.GuestVM, nGuests)
	handles := make([][]*elisa.Handle, nGuests)
	for i := range vms {
		g, err := sys.NewGuestVM(fmt.Sprintf("tenant-%d", i), 16*elisa.PageSize)
		if err != nil {
			return err
		}
		vms[i] = g
		for j := 0; j < nObjects; j++ {
			h, err := g.Attach(fmt.Sprintf("object-%d", j))
			if err != nil {
				return err
			}
			handles[i] = append(handles[i], h)
			// A few calls so the accounting has something to show.
			for k := 0; k < (i+1)*(j+2); k++ {
				if _, err := h.Call(g.VCPU(), 1, uint64(k)); err != nil {
					return err
				}
			}
		}
	}

	fmt.Printf("objects: %v\n\n", mgr.ObjectNames())
	for _, g := range vms {
		desc, err := mgr.DescribeGuest(g.VM())
		if err != nil {
			return err
		}
		fmt.Print(desc)

		// The virtual slot table: which stable vslot maps to which
		// physical EPTP-list slot right now (LRU order via last-use).
		bindings, err := mgr.SlotTable(g.VM())
		if err != nil {
			return err
		}
		fmt.Printf("  slot table (%d entries):\n", len(bindings))
		for _, b := range bindings {
			phys := fmt.Sprintf("phys %-3d", b.Phys)
			if b.Phys < 0 {
				phys = "unbacked"
			}
			state := ""
			if b.Revoked {
				state = " (revoked)"
			}
			fmt.Printf("    vslot %-3d -> %-8s %-12q last-use=%d%s\n",
				b.VSlot, phys, b.Object, b.LastUse, state)
		}

		gms, err := mgr.GateContextMappings(g.VM())
		if err != nil {
			return err
		}
		fmt.Printf("  gate context (%d pages):\n", len(gms))
		printMappings(gms)

		for j := 0; j < nObjects; j++ {
			name := fmt.Sprintf("object-%d", j)
			sms, err := mgr.SubContextMappings(g.VM(), name)
			if err != nil {
				return err
			}
			fmt.Printf("  sub context %q (%d pages):\n", name, len(sms))
			printMappings(sms)
		}

		fmt.Printf("  default context: %d pages mapped\n", g.VM().DefaultEPT().MappedPages())
		fmt.Println()
	}

	fmt.Println("attachment accounting:")
	for _, s := range mgr.Stats() {
		fmt.Printf("  %-10s %-10s slot=%d calls=%d errs=%d revoked=%v\n",
			s.Guest, s.Object, s.SubIndex, s.Calls, s.FnErrors, s.Revoked)
	}

	if err := mgr.Fsck(); err != nil {
		return fmt.Errorf("FSCK FAILED: %w", err)
	}
	fmt.Println("\nfsck: bookkeeping consistent with machine state")

	if nFaults > 0 {
		if err := chaos(sys, vms, handles, nFaults, faultSeed); err != nil {
			return err
		}
	}

	if traceDump {
		fmt.Printf("\nslow-path trace (%d events emitted, %d retained):\n",
			sys.Trace().Emitted(), sys.Trace().Len())
		fmt.Print(sys.Trace().String())
		rec := sys.Recorder()
		fmt.Printf("\nfast-path span ring (%d spans seen, %d sampled):\n",
			rec.SpansSeen(), rec.SpansSampled())
		for _, sp := range sys.Spans() {
			fmt.Println(sp)
		}
	}
	return nil
}

// chaos arms a seeded fault plan against the already-built system, drives
// calls until the plan drains (or every guest is dead), and prints the
// deterministic fault/recovery trace. It re-runs Fsck at the end: the
// whole point of the recovery path is that the machine audits clean after
// every injected fault.
func chaos(sys *elisa.System, vms []*elisa.GuestVM, handles [][]*elisa.Handle, nFaults int, faultSeed int64) error {
	mgr := sys.Manager()
	names := make([]string, len(vms))
	for i, g := range vms {
		names[i] = g.Name()
	}
	plan, err := elisa.NewFaultPlan(elisa.FaultPlanConfig{Seed: faultSeed, N: nFaults, Guests: names})
	if err != nil {
		return err
	}
	inj := sys.ArmFaults(plan)
	fmt.Printf("\nchaos: %d faults armed (seed %d), driving calls through the plan horizon\n",
		nFaults, faultSeed)

	// Drive rounds of calls so each guest's virtual clock advances past
	// the scheduled fault times, pumping async faults and repairing
	// between rounds — the same cadence the fleet scheduler uses. The
	// round bound keeps this terminating even if some faults can never
	// fire (e.g. negotiation faults with nothing left to negotiate).
	for round := 0; round < 128 && inj.Pending() > 0; round++ {
		var now simtime.Time
		alive := 0
		for i, g := range vms {
			if g.Dead() {
				continue
			}
			alive++
			v := g.VCPU()
			for k := 0; k < 512; k++ {
				for _, h := range handles[i] {
					// Injected faults surface as call errors;
					// that is the event under test, not a
					// tool failure.
					_, _ = h.Call(v, 1, uint64(k))
					if g.Dead() {
						break
					}
				}
				if g.Dead() {
					break
				}
			}
			if t := v.Clock().Now(); t > now {
				now = t
			}
		}
		if alive == 0 {
			break
		}
		mgr.PumpFaults(now)
		if _, err := mgr.FsckRepair(); err != nil {
			return err
		}
		if _, err := mgr.RecoverDead(); err != nil {
			return err
		}
	}

	fmt.Println("\nfault trace:")
	fmt.Print(inj.TraceString())
	rs := sys.RecoveryStats()
	fmt.Printf("\nrecovery: %d guests quarantined (%d died mid-gate), %d list repairs, %d negotiation retries, %d faults still pending\n",
		rs.Recoveries, rs.MidGateDeaths, rs.Repairs, rs.Retries, inj.Pending())
	if err := mgr.Fsck(); err != nil {
		return fmt.Errorf("FSCK FAILED after chaos: %w", err)
	}
	fmt.Println("fsck: clean after fault injection and recovery")
	return nil
}

func printMappings(ms []ept.Mapping) {
	var runStart, prev *ept.Mapping
	pages := 0
	flush := func() {
		if runStart == nil {
			return
		}
		kind := ""
		if runStart.Bytes == ept.HugePageSize {
			kind = " 2MiB"
		}
		fmt.Printf("    %#012x..%#012x %s (%d pages%s)\n",
			uint64(runStart.GPA), uint64(prev.GPA)+uint64(prev.Bytes)-1, runStart.Perm, pages, kind)
	}
	for i := range ms {
		m := &ms[i]
		if prev != nil && m.GPA == prev.GPA+mem.GPA(prev.Bytes) && m.Perm == prev.Perm && m.Bytes == prev.Bytes {
			prev, pages = m, pages+1
			continue
		}
		flush()
		runStart, prev, pages = m, m, 1
	}
	flush()
}

var _ = core.GateCodeMagic // documented linkage to the gate model
