// Command elisa-top is the operator's live view of the exit-less fast
// path: it boots a multi-tenant ELISA system with the flight recorder
// attached, drives a zipfian read/write workload through it, and renders
// a per-attachment table — calls/sec, errors, p50/p99 latency, and TLB
// miss rate — once per simulated interval, the way top(1) would over a
// production machine.
//
// Latencies come from the recorder's per-attachment histograms, call and
// error counts from the manager's accounting, and TLB rates from the
// per-vCPU counters; everything on screen is also exportable via
// -prom/-json at exit.
//
// With -objects N > -slot-budget B, each tenant's working set
// oversubscribes its physical EPTP slots and the SLOTS (backed/budget)
// and REMAP/S (HCSlotFault re-binds per second) columns show the
// virtualisation layer working.
//
// The system is always a cluster: -shards N boots N manager machines and
// routes each object to its placement-ring owner (1 by default). Every
// per-tenant column sums the tenant's replicas across shards, and with
// N > 1 each frame adds one row per shard.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"

	elisa "github.com/elisa-go/elisa"
	"github.com/elisa-go/elisa/internal/simtime"
	"github.com/elisa-go/elisa/internal/stats"
	"github.com/elisa-go/elisa/internal/workload"
)

// Manager-function ids of the demo workload.
const (
	fnGet = 1
	fnPut = 2
	// fnBogus is deliberately unregistered: a slice of calls use it so
	// the errors column shows real per-tenant error accounting.
	fnBogus = 99
)

const (
	objName  = "kv"
	objPages = 64
	valBytes = 256
)

// options are the system and workload flags every mode shares.
type options struct {
	guests, objects, slotBudget, shards int
	frames, intervalMs, sample          int
	skew, readRatio                     float64
	errEvery                            int
	ringDepth, ringDeadlineUs           int
	pollBudget                          int
	overload                            bool
	faults                              int
	faultSeed                           int64
}

func main() {
	var o options
	flag.IntVar(&o.guests, "guests", 4, "number of tenant guests")
	flag.IntVar(&o.objects, "objects", 1, "objects per tenant (working-set size)")
	flag.IntVar(&o.slotBudget, "slot-budget", 0, "physical EPTP slots per guest (0 = whole list)")
	flag.IntVar(&o.frames, "frames", 5, "number of table refreshes")
	flag.IntVar(&o.intervalMs, "interval", 50, "simulated milliseconds per frame")
	flag.IntVar(&o.sample, "sample", 1, "span sampling: keep 1 in N spans")
	flag.Float64Var(&o.skew, "skew", 1.1, "zipf skew of the key popularity (>1)")
	flag.Float64Var(&o.readRatio, "reads", 0.9, "fraction of GETs in the mix")
	flag.IntVar(&o.errEvery, "err-every", 64, "inject one failing call every N ops (0 = never)")
	flag.IntVar(&o.ringDepth, "ring", 0, "drive ops through exit-less call rings of this depth (0 = one gate crossing per call); the RING column then shows drained descriptors and batch p50")
	flag.IntVar(&o.ringDeadlineUs, "ring-deadline", 5, "ring batching deadline in simulated microseconds (with -ring)")
	flag.IntVar(&o.pollBudget, "poll-budget", 64, "descriptors each shard's manager poller services per frame (with -ring; 0 = poller off, rings drain only via guest flushes)")
	flag.BoolVar(&o.overload, "overload", false, "arm overload control: saturated rings bounce CompBusy and guests retry with deterministic backoff (with -ring); the SHED/BUSY column then shows bounces/retries per frame")
	flag.IntVar(&o.shards, "shards", 1, "manager shards: objects route via the consistent-hash placement ring; with N > 1 each frame adds one row per shard (SHARD/GOODPUT/OCC/REMAP)")
	flag.IntVar(&o.faults, "faults", 0, "arm a chaos plan with N seeded fault injections on shard 0 (0 = chaos off); the CHAOS column then shows per-guest hits")
	flag.Int64Var(&o.faultSeed, "fault-seed", 42, "seed of the chaos plan (same seed = same fault trace)")
	ansi := flag.Bool("ansi", false, "redraw in place with ANSI escapes instead of printing frames sequentially")
	prom := flag.Bool("prom", false, "dump Prometheus-format metrics at exit")
	jsonOut := flag.Bool("json", false, "dump JSON metrics at exit")
	once := flag.Bool("once", false, "with -json: drive exactly one interval and emit a machine-readable snapshot (bit-identical for the same flags), then exit")
	spans := flag.Int("spans", 0, "print the last N sampled call spans at exit")
	flag.Parse()
	if *once {
		if !*jsonOut {
			log.Fatal("elisa-top: -once requires -json (the one-shot mode has no table renderer)")
		}
		if err := runOnce(os.Stdout, o); err != nil {
			fail(err)
		}
		return
	}
	if err := run(o, *ansi, *prom, *jsonOut, *spans); err != nil {
		fail(err)
	}
}

// usageError is a flag value build refuses because the run would quietly
// do less than asked (sample nothing, draw no frame, drive no calls).
type usageError string

func (e usageError) Error() string { return string(e) }

// fail reports a usage error the way the flag package reports a
// malformed flag — message, usage text, exit status 2 — and any other
// error as fatal.
func fail(err error) {
	var ue usageError
	if errors.As(err, &ue) {
		fmt.Fprintf(os.Stderr, "elisa-top: %v\n", ue)
		flag.Usage()
		os.Exit(2)
	}
	log.Fatal(err)
}

// tenant is one guest driving load: a cluster guest whose attachments
// route to the shards owning its objects.
type tenant struct {
	g     *elisa.ClusterGuest
	hs    []*elisa.ClusterHandle // one per object, cycled round-robin
	rings []*elisa.RingCaller    // parallel to hs (with -ring)
	rr    int
	keys  workload.KeyChooser
	mix   *workload.Mix
	ops   int
	start elisa.Duration // Guest.Elapsed at frame start
}

// pollRings drains every completion the tenant's rings have ready.
func (tn *tenant) pollRings() {
	var comps [64]elisa.Comp
	for i, rc := range tn.rings {
		for {
			n, err := rc.Poll(tn.hs[i].VCPU(), comps[:])
			if err != nil || n == 0 {
				break
			}
		}
	}
}

// machine is a booted elisa-top system: the cluster, its tenants, and
// the chaos injector armed on shard 0 (nil without -faults).
type machine struct {
	sys     *elisa.System
	tenants []*tenant
	inj     *elisa.FaultInjector
}

// build boots the system and its tenants: o.objects shared objects placed
// by the consistent-hash ring, every tenant attached to all of them (so
// each tenant's calls fan out over the shard set), and — with -faults — a
// seeded chaos plan armed on shard 0.
func build(o options) (*machine, error) {
	for _, f := range []struct {
		name string
		v    int
	}{{"guests", o.guests}, {"objects", o.objects}, {"frames", o.frames}, {"interval", o.intervalMs}, {"sample", o.sample}} {
		if f.v < 1 {
			return nil, usageError(fmt.Sprintf("-%s %d: must be at least 1", f.name, f.v))
		}
	}
	if o.slotBudget < 0 || o.slotBudget > elisa.MaxSlotBudget {
		return nil, usageError(fmt.Sprintf("-slot-budget %d: must be in [0, %d] (0 = the whole list)", o.slotBudget, elisa.MaxSlotBudget))
	}
	sys, err := elisa.NewSystem(elisa.Config{
		PhysBytes:   o.shards * (256*1024*1024 + o.guests*o.objects*64*1024),
		Shards:      o.shards,
		ShardSeed:   7,
		SlotBudget:  o.slotBudget,
		TraceEvents: 1024,
		Observe:     &elisa.ObserveConfig{SampleEvery: o.sample},
	})
	if err != nil {
		return nil, err
	}
	c := sys.Cluster()
	if o.overload {
		for _, sh := range c.Shards() {
			if err := sh.Manager().SetOverload(elisa.OverloadConfig{Enabled: true}); err != nil {
				return nil, err
			}
		}
	}
	// GET: object -> exchange at the keyed offset; PUT: exchange -> object.
	if err := c.RegisterFunc(fnGet, func(cc *elisa.CallContext) (uint64, error) {
		return uint64(valBytes), cc.CopyObjectToExchange(0, int(cc.Args[0]), valBytes)
	}); err != nil {
		return nil, err
	}
	if err := c.RegisterFunc(fnPut, func(cc *elisa.CallContext) (uint64, error) {
		return uint64(valBytes), cc.CopyExchangeToObject(int(cc.Args[0]), 0, valBytes)
	}); err != nil {
		return nil, err
	}
	objNames := make([]string, o.objects)
	for i := range objNames {
		objNames[i] = objName
		if o.objects > 1 {
			objNames[i] = fmt.Sprintf("%s-%02d", objName, i)
		}
		if _, err := c.CreateObject(objNames[i], objPages*elisa.PageSize); err != nil {
			return nil, err
		}
	}
	nKeys := objPages*elisa.PageSize/valBytes - 1
	m := &machine{sys: sys, tenants: make([]*tenant, o.guests)}
	for i := range m.tenants {
		g, err := c.NewGuest(fmt.Sprintf("tenant-%d", i), 16*elisa.PageSize)
		if err != nil {
			return nil, err
		}
		tn := &tenant{g: g}
		for _, name := range objNames {
			h, err := g.Attach(name)
			if err != nil {
				return nil, err
			}
			tn.hs = append(tn.hs, h)
			if o.ringDepth > 0 {
				cfg := elisa.RingConfig{
					Depth:    o.ringDepth,
					Deadline: simtime.Duration(o.ringDeadlineUs) * simtime.Microsecond,
				}
				if o.overload {
					// Bounded retries so a CompBusy bounce backs off and
					// re-submits instead of surfacing to the workload loop.
					cfg.Retry = elisa.RetryPolicy{MaxAttempts: 3, Seed: int64(7 + i)}
				}
				rc, err := h.Ring(cfg)
				if err != nil {
					return nil, err
				}
				tn.rings = append(tn.rings, rc)
			}
		}
		if tn.keys, err = workload.NewZipf(int64(1000+i), nKeys, o.skew); err != nil {
			return nil, err
		}
		if tn.mix, err = workload.NewMix(int64(2000+i), o.readRatio); err != nil {
			return nil, err
		}
		m.tenants[i] = tn
	}
	// Chaos: a seeded fault plan across the tenants, armed on shard 0.
	// Injected faults hit the gate, negotiation, and EPTP-list paths;
	// after each frame the pump applies async faults, repairs the list,
	// and quarantines any tenant that died — the CHAOS column tallies the
	// hits.
	if o.faults > 0 {
		names := make([]string, len(m.tenants))
		for i, tn := range m.tenants {
			names[i] = tn.g.Name()
		}
		plan, err := elisa.NewFaultPlan(elisa.FaultPlanConfig{
			Seed:    o.faultSeed,
			N:       o.faults,
			Guests:  names,
			Horizon: simtime.Duration(o.frames*o.intervalMs) * simtime.Millisecond,
		})
		if err != nil {
			return nil, err
		}
		m.inj = sys.ArmFaults(plan)
	}
	return m, nil
}

// driveFrame advances every live tenant by one interval of its own
// (replica-summed) clock, then runs one budget-bounded poller pass per
// shard (with -ring) and, with chaos armed, the fault pump. A fnBogus
// call errors by design; with chaos off any other error is fatal.
func (m *machine) driveFrame(o options, interval elisa.Duration) error {
	for _, tn := range m.tenants {
		if tn.g.Dead() {
			continue // crashed in an earlier frame; quarantined by the pump
		}
		tn.start = tn.g.Elapsed()
		for !tn.g.Dead() && tn.g.Elapsed()-tn.start < interval {
			off := tn.keys.Next() * valBytes
			fn := uint64(fnPut)
			if tn.mix.Read() {
				fn = fnGet
			}
			tn.ops++
			if o.errEvery > 0 && tn.ops%o.errEvery == 0 {
				fn = fnBogus
			}
			var err error
			if tn.rings != nil {
				// Ring datapath: enqueue exit-lessly; a failing function
				// comes back as a CompErr completion, so only protocol
				// errors surface here. Poll before the completion queue
				// can fill, or flushes stall on backpressure.
				if tn.rings[tn.rr].Pending() >= o.ringDepth {
					tn.pollRings()
				}
				err = tn.rings[tn.rr].Submit(tn.hs[tn.rr].VCPU(), fn, uint64(off))
			} else {
				_, err = tn.hs[tn.rr].Call(fn, uint64(off))
				if err != nil && fn == fnBogus {
					err = nil // the deliberate error-rate probe
				}
			}
			tn.rr = (tn.rr + 1) % len(tn.hs)
			if err != nil && m.inj == nil {
				// With chaos armed, injected failures (and the death of
				// this guest) are the point, not a tool error.
				return fmt.Errorf("%s: call: %w", tn.g.Name(), err)
			}
		}
		if tn.rings != nil && !tn.g.Dead() {
			// Frame epilogue: flush the batching backlog and collect
			// completions so the frame's counters are settled.
			for i, rc := range tn.rings {
				if err := rc.Flush(tn.hs[i].VCPU()); err != nil && m.inj == nil {
					return fmt.Errorf("%s: flush: %w", tn.g.Name(), err)
				}
			}
			tn.pollRings()
		}
	}
	if o.ringDepth > 0 && o.pollBudget > 0 {
		// One budget-bounded manager poller pass per shard and frame,
		// like the fleet scheduler interleaves with its quanta.
		if _, err := m.sys.Cluster().DrainAll(o.pollBudget); err != nil {
			return err
		}
	}
	if m.inj != nil {
		// Pump asynchronous faults up to the furthest guest clock on
		// shard 0, repair whatever they scribbled, and quarantine the dead.
		var now simtime.Time
		for _, tn := range m.tenants {
			if v := tn.g.VCPU(0); v != nil && v.Clock().Now() > now {
				now = v.Clock().Now()
			}
		}
		mgr := m.sys.Manager()
		mgr.PumpFaults(now)
		if _, err := mgr.FsckRepair(); err != nil {
			return err
		}
		if _, err := mgr.RecoverDead(); err != nil {
			return err
		}
	}
	return nil
}

func run(o options, ansi, prom, jsonOut bool, nSpans int) error {
	m, err := build(o)
	if err != nil {
		return err
	}
	sys := m.sys
	interval := simtime.Duration(o.intervalMs) * simtime.Millisecond
	prev := make(map[string]tenantStats)
	prevShards := make(map[int]elisa.ShardStats)
	for frame := 1; frame <= o.frames; frame++ {
		if err := m.driveFrame(o, interval); err != nil {
			return err
		}
		if ansi {
			fmt.Print("\033[H\033[2J")
		}
		renderFrame(os.Stdout, m, frame, prev)
		if o.shards > 1 {
			renderShardFrame(os.Stdout, sys.Cluster(), frame, interval, prevShards)
		}
	}

	if m.inj != nil {
		rs := sys.RecoveryStats()
		fmt.Printf("\nchaos: %d faults fired (%d pending), %d guests quarantined (%d died mid-gate), %d list repairs, %d retries\n",
			len(m.inj.Fired()), m.inj.Pending(), rs.Recoveries, rs.MidGateDeaths, rs.Repairs, rs.Retries)
	}

	if nSpans > 0 {
		var all []elisa.Span
		var seen, sampled uint64
		for _, sh := range sys.Cluster().Shards() {
			rec := sh.Recorder()
			all = append(all, rec.Spans()...)
			seen += rec.SpansSeen()
			sampled += rec.SpansSampled()
		}
		if len(all) > nSpans {
			all = all[len(all)-nSpans:]
		}
		fmt.Printf("\nlast %d sampled spans (of %d seen, %d sampled):\n", len(all), seen, sampled)
		for _, sp := range all {
			fmt.Println(" ", sp)
		}
	}
	if prom {
		fmt.Println()
		fmt.Print(sys.Metrics().Prometheus())
	}
	if jsonOut {
		raw, err := sys.Metrics().JSON()
		if err != nil {
			return err
		}
		fmt.Println()
		os.Stdout.Write(raw)
		fmt.Println()
	}
	return nil
}

// deltaU64 is a saturating subtraction for per-frame counter deltas.
func deltaU64(cur, prev uint64) uint64 {
	if cur < prev {
		return 0
	}
	return cur - prev
}

// tenantStats is one tenant's cumulative accounting, summed over every
// shard the tenant touches.
type tenantStats struct {
	calls, errs        uint64
	backed, budget     int
	remaps             uint64
	tlbHits, tlbMisses uint64
	rings              int   // live rings in the managers' accounting
	batchP50           int64 // largest batch-size p50 across the rings
	drained            uint64
	busied, retried    uint64
	hist               *stats.Histogram
}

// collect sums each tenant's counters over every shard: manager call and
// slot accounting, ring counters, vCPU TLB counters, and the recorders'
// latency histograms merged.
func (m *machine) collect() map[string]*tenantStats {
	out := make(map[string]*tenantStats, len(m.tenants))
	for _, tn := range m.tenants {
		out[tn.g.Name()] = &tenantStats{hist: stats.NewHistogram()}
	}
	for _, sh := range m.sys.Cluster().Shards() {
		mgr := sh.Manager()
		for _, st := range mgr.Stats() {
			if a := out[st.Guest]; a != nil {
				a.calls += st.Calls
				a.errs += st.FnErrors
			}
		}
		for _, ss := range mgr.SlotStats() {
			if a := out[ss.Guest]; a != nil {
				a.backed += ss.Backed
				a.budget += ss.Budget
				a.remaps += ss.Faults
			}
		}
		for _, rs := range mgr.RingStats() {
			if a := out[rs.Guest]; a != nil {
				a.rings++
				a.drained += rs.Flushed + rs.Drained
				a.batchP50 = max(a.batchP50, rs.BatchP50)
				a.busied += rs.Busied
				a.retried += rs.Retried
			}
		}
		for _, tn := range m.tenants {
			out[tn.g.Name()].hist.Merge(sh.Recorder().GuestHistogram(tn.g.Name()))
			if v := tn.g.VCPU(sh.ID); v != nil {
				st := v.Stats()
				out[tn.g.Name()].tlbHits += st.TLBHits
				out[tn.g.Name()].tlbMisses += st.TLBMisses
			}
		}
	}
	return out
}

// renderFrame prints one refresh of the per-tenant table. prev carries
// each tenant's counters from the previous frame so rates are
// per-interval, not cumulative.
func renderFrame(out *os.File, m *machine, frame int, prev map[string]tenantStats) {
	var chaosHits map[string]uint64
	if m.inj != nil {
		chaosHits = m.inj.FiredByGuest()
	}
	cur := m.collect()
	tb := stats.NewTable(fmt.Sprintf("elisa-top frame %d", frame),
		"GUEST", "OBJS", "CALLS", "CALLS/S", "ERRS", "P50[ns]", "P99[ns]", "SLOTS", "REMAP/S", "TLB-MISS%", "RING", "SHED/BUSY", "CHAOS")
	for _, tn := range m.tenants {
		name := tn.g.Name()
		a, p := cur[name], prev[name]
		// Clamp at zero: quarantining a crashed guest frees its
		// attachments, so cumulative counters can drop below the
		// previous frame's snapshot.
		dCalls := deltaU64(a.calls, p.calls)
		dHits := deltaU64(a.tlbHits, p.tlbHits)
		dMisses := deltaU64(a.tlbMisses, p.tlbMisses)
		elapsed := tn.g.Elapsed() - tn.start
		missPct := 0.0
		if dHits+dMisses > 0 {
			missPct = 100 * float64(dMisses) / float64(dHits+dMisses)
		}
		chaos := "-"
		if chaosHits != nil {
			chaos = fmt.Sprintf("%d", chaosHits[name])
			if tn.g.Dead() {
				chaos += " DEAD"
			}
		}
		ring, busyCol := "-", "-"
		if a.rings > 0 {
			ring = fmt.Sprintf("%d(b%d)", a.drained, a.batchP50)
			busyCol = fmt.Sprintf("%d/%d", deltaU64(a.busied, p.busied), deltaU64(a.retried, p.retried))
		}
		tb.AddRow(name, len(tn.hs), dCalls, stats.Throughput(int64(dCalls), elapsed),
			deltaU64(a.errs, p.errs), a.hist.Percentile(0.50), a.hist.Percentile(0.99),
			fmt.Sprintf("%d/%d", a.backed, a.budget),
			stats.Throughput(int64(deltaU64(a.remaps, p.remaps)), elapsed), missPct, ring, busyCol, chaos)
		prev[name] = *a
	}
	tb.AddNote("latency percentiles are cumulative over the run; rates are per-frame; SLOTS is backed/budget physical EPTP slots, REMAP/S the HCSlotFault re-bind rate; RING is ring descriptors drained with the batch-size p50 in parentheses (-ring); SHED/BUSY is descriptors shed from saturated rings as CompBusy bounces / guest backoff retries per frame (-overload); CHAOS is injected faults landed on the guest (-faults)")
	fmt.Fprint(out, tb.String())
	fmt.Fprintln(out)
}
