package main

import (
	"fmt"
	"strconv"

	elisa "github.com/elisa-go/elisa"
	"github.com/elisa-go/elisa/internal/core"
	"github.com/elisa-go/elisa/internal/obs"
	"github.com/elisa-go/elisa/internal/simtime"
)

// runCausal drives the seeded causal-tracing scenario and renders the
// reconstructed chains. The scenario is deterministic: a single guest
// submits a burst onto a depth-16 ring while the manager poller runs
// with a 4-op budget under armed overload control, so the pass drains
// four descriptors, bounces four back CompBusy (the ring caller's retry
// policy backs off and re-submits them), and later passes drain the
// rest — the full submit → flush/drain → complete → deliver chain plus
// at least one busy → backoff → retry loop, every phase stamped in
// simulated time.
//
// arg selects what to render: "all" lists every retained trace and
// renders each chain; a number (decimal or 0x-hex) renders that one
// trace.
func runCausal(arg string) error {
	sys, err := elisa.NewSystem(elisa.Config{
		Observe: &elisa.ObserveConfig{SampleEvery: 1, CausalEvents: 4096},
	})
	if err != nil {
		return err
	}
	mgr := sys.Manager()
	if err := mgr.RegisterFunc(1, func(c *elisa.CallContext) (uint64, error) { return c.Args[0] * 2, nil }); err != nil {
		return err
	}
	if _, err := mgr.CreateObject("object-0", elisa.PageSize); err != nil {
		return err
	}
	g, err := sys.NewGuestVM("tenant-0", 16*elisa.PageSize)
	if err != nil {
		return err
	}
	h, err := g.Attach("object-0")
	if err != nil {
		return err
	}
	if err := mgr.SetOverload(core.OverloadConfig{Enabled: true, BusyFrac: 0.25}); err != nil {
		return err
	}
	v := g.VCPU()
	rc, err := h.Ring(v, elisa.RingConfig{
		Depth:    16,
		Deadline: simtime.Duration(1) << 40, // poller-first: gate only as backstop
		Retry:    elisa.RetryPolicy{MaxAttempts: 3, BaseBackoff: 2_000, Seed: 7},
	})
	if err != nil {
		return err
	}

	const burst = 12
	for i := 0; i < burst; i++ {
		if err := rc.Submit(v, 1, uint64(i)); err != nil {
			return err
		}
	}
	comps := make([]elisa.Comp, 16)
	// Guest and manager VMs own independent virtual clocks; align the
	// manager's before each poller pass so the rendered chains are
	// causally ordered end to end (the log discards skewed intervals
	// otherwise — see obs.CausalLog).
	syncMgrClock := func() {
		mgr.VM().VCPU().Clock().AdvanceTo(v.Clock().Now())
	}
	// First pass: budget 4 over a 12-deep queue with BusyFrac 0.25 —
	// drains 4, trims the queue to 4 by bouncing 4 as CompBusy.
	syncMgrClock()
	if _, err := mgr.DrainRings(4); err != nil {
		return err
	}
	// Poll delivers the 4 completions and, under the retry policy,
	// backs off and re-submits the busy 4. Follow-up unbounded drains
	// and polls settle everything.
	for rounds := 0; rc.Pending() > 0 && rounds < 32; rounds++ {
		v.Clock().AdvanceTo(mgr.VM().VCPU().Clock().Now())
		if _, err := rc.Poll(v, comps); err != nil {
			return err
		}
		if rc.Pending() == 0 {
			break
		}
		syncMgrClock()
		if _, err := mgr.DrainRings(0); err != nil {
			return err
		}
	}
	if rc.Pending() != 0 {
		return fmt.Errorf("elisa-inspect: causal scenario left %d ops in flight", rc.Pending())
	}

	log := sys.Recorder().Causal()
	fmt.Printf("causal scenario: %d ops, %d ring events recorded (%d retained)\n\n",
		burst, log.EventsSeen(), len(log.Events()))

	if arg == "all" {
		traces := log.Traces()
		fmt.Printf("traces (%d):\n", len(traces))
		for _, tr := range traces {
			chain := log.Chain(tr)
			last := chain[len(chain)-1]
			fmt.Printf("  %#x  %d events, last %s\n", tr, len(chain), last.Kind)
		}
		fmt.Println()
		for _, tr := range traces {
			fmt.Print(log.RenderChain(tr))
			fmt.Println()
		}
	} else {
		tr, err := strconv.ParseUint(arg, 0, 64)
		if err != nil {
			return fmt.Errorf("elisa-inspect: -causal wants a trace ID or \"all\": %w", err)
		}
		out := log.RenderChain(tr)
		if out == "" {
			return fmt.Errorf("elisa-inspect: no events retained for trace %#x (try -causal all)", tr)
		}
		fmt.Print(out)
		fmt.Println()
	}

	fmt.Println("per-phase sim-time attribution (all chains):")
	for p := obs.RingPhase(0); p < obs.NumRingPhases; p++ {
		hist := log.PhaseHistogram(p)
		if hist.Count() == 0 {
			continue
		}
		fmt.Printf("  %-8s n=%-4d total=%-8s p50=%-8s p99=%s\n",
			p, hist.Count(),
			simtime.Duration(hist.Sum()),
			simtime.Duration(hist.Percentile(0.50)),
			simtime.Duration(hist.Percentile(0.99)))
	}
	return nil
}
