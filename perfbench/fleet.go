package main

import (
	"bytes"
	_ "embed"

	"github.com/elisa-go/elisa/internal/cluster"
	"github.com/elisa-go/elisa/internal/core"
	"github.com/elisa-go/elisa/internal/cpu"
	"github.com/elisa-go/elisa/internal/fleet"
	"github.com/elisa-go/elisa/internal/mem"
	"github.com/elisa-go/elisa/internal/obs"
	"github.com/elisa-go/elisa/internal/overload"
	"github.com/elisa-go/elisa/internal/simtime"
	"github.com/elisa-go/elisa/internal/workload"
)

//go:embed fleet_spec.conf
var fleetSpecConf []byte

const (
	fleetShards = 4
	fleetSlice  = 40 * simtime.Microsecond // the cluster fleet's default window
)

// fleetGlobalAdmit caps two tenants cluster-wide, ops per simulated second.
var fleetGlobalAdmit = map[string]float64{"web0": 8_000_000, "web1": 7_000_000}

// fleetHorizon is the replayed stretch of simulated time. It is short:
// on a shared host this replay's host time swung by up to 1.7x between
// runs, against 5 % for the rest of paper_sweep, so it is kept to about a
// tenth of a round.
func fleetHorizon(quick bool) simtime.Duration {
	if quick {
		return 400 * simtime.Microsecond
	}
	return 1 * simtime.Millisecond
}

// fleetRun is paper_sweep's fleet point: the benchmark's spec, rendered
// from the seed, replayed open loop through an armed 4-shard cluster
// fleet over the ring datapath, one scheduling window per Fleet.Replay
// call.
type fleetRun struct {
	horizon simtime.Duration
	tr      *workload.Trace
	c       *cluster.Cluster
	f       *cluster.Fleet
	dec     *overload.DecisionTrace
	rep     *fleet.Report
}

// boot brings the cluster up to ready: shards booted, trace generated,
// objects created and every tenant admitted.
func (fr *fleetRun) boot(r *round) error {
	fr.horizon = fleetHorizon(r.quick)
	fr.dec = overload.NewDecisionTrace(0)
	if err := r.boot(func() error {
		var err error
		fr.c, err = cluster.New(cluster.Config{Shards: fleetShards, Seed: r.seed, Observe: &obs.Config{}})
		return err
	}); err != nil {
		return err
	}
	var specs []workload.Spec
	if err := r.span(lGenerate, -1, func() error {
		var err error
		if specs, err = workload.ParseSpecs(bytes.NewReader(fleetSpecConf)); err != nil {
			return err
		}
		fr.tr, err = workload.Generate(specs, r.seed, fr.horizon)
		return err
	}); err != nil {
		return err
	}
	c := fr.c
	if err := c.RegisterFunc(specs[0].Fn, nopFn); err != nil {
		return err
	}
	for i, sp := range specs {
		for _, obj := range sp.Objects {
			if err := c.Ring().Pin(obj, i/2%fleetShards); err != nil {
				return err
			}
			if _, err := c.CreateObject(obj, mem.PageSize); err != nil {
				return err
			}
		}
	}
	var err error
	fr.f, err = c.NewFleet(cluster.FleetConfig{
		Config: fleet.Config{
			Cores: 2, Seed: r.seed, QueueDepth: 32,
			RingDepth: 32, PollBudget: 64,
			Classes: 3, ShedLow: 0.15, ShedHigh: 0.4,
			Overload:    core.OverloadConfig{Enabled: true},
			Decisions:   fr.dec,
			Parallelism: r.lanes,
		},
		Slice:          fleetSlice,
		GlobalAdmitOPS: fleetGlobalAdmit,
	})
	if err != nil {
		return err
	}
	for _, sp := range specs {
		ts, err := fleet.SpecFromWorkload(sp, r.seed)
		if err != nil {
			return err
		}
		if err := r.attach(func() error {
			_, err := fr.f.Admit(ts)
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}

// replay is the measured body. It is an open loop: every event enters at
// its recorded instant. The replay steps one window per call, so each
// window is its own span. It returns the operations completed.
func (fr *fleetRun) replay(r *round) (int64, error) {
	var window workload.Trace
	next := 0
	for w := 0; simtime.Duration(w)*fleetSlice < fr.horizon; w++ {
		base := simtime.Duration(w) * fleetSlice
		window.Events = window.Events[:0]
		for next < len(fr.tr.Events) && simtime.Duration(fr.tr.Events[next].At) < base+fleetSlice {
			ev := fr.tr.Events[next]
			ev.At -= simtime.Time(base)
			window.Events = append(window.Events, ev)
			next++
		}
		if err := r.span(lReplay, int64(w), func() error {
			var err error
			fr.rep, err = fr.f.Replay(&window, fleetSlice)
			return err
		}); err != nil {
			return 0, err
		}
	}
	var done int64
	for _, t := range fr.rep.Tenants {
		done += int64(t.Completed)
	}
	return done, nil
}

// check applies the fleet output rules and records the fleet, ring and
// lane counters.
func (fr *fleetRun) check(r *round) {
	o, c, f, rep, dec, tr := &r.out, fr.c, fr.f, fr.rep, fr.dec, fr.tr
	events := map[string]uint64{}
	for _, ev := range tr.Events {
		events[ev.Tenant]++
	}
	var submitted, completed, refused, failed uint64
	for _, t := range rep.Tenants {
		o.add("tenant %+v", t)
		refusals := t.Throttled + t.Shed + t.BreakerShed + t.Dropped + t.Busied
		o.check(t.Submitted == events[t.Name], "tenant %s submitted %d of %d trace events", t.Name, t.Submitted, events[t.Name])
		o.check(t.Completed+refusals+t.FnErrors+t.Lost <= t.Submitted,
			"tenant %s: completed %d + refused %d + failed %d exceeds submitted %d",
			t.Name, t.Completed, refusals, t.FnErrors+t.Lost, t.Submitted)
		submitted += t.Submitted
		completed += t.Completed
		refused += refusals
		failed += t.FnErrors + t.Lost
	}
	o.add("shed_by_class %v", rep.ShedByClass)
	o.add("decisions\n%s", dec.Summary())

	var ring core.RingStats
	var vcpus []*cpu.VCPU
	for _, sh := range c.Shards() {
		for _, rs := range sh.Manager().RingStats() {
			ring.Flushes += rs.Flushes
			ring.Flushed += rs.Flushed
			ring.Drains += rs.Drains
			ring.Drained += rs.Drained
			ring.Busied += rs.Busied
			ring.Failed += rs.Failed
		}
		if s := f.Scheduler(sh.ID); s != nil {
			for _, t := range s.Tenants() {
				vcpus = append(vcpus, t.VM().VCPU())
			}
		}
	}
	o.add("ring flushes=%d flushed=%d drains=%d drained=%d busied=%d failed=%d",
		ring.Flushes, ring.Flushed, ring.Drains, ring.Drained, ring.Busied, ring.Failed)
	o.check(ring.Failed == 0, "%d ring descriptors failed", ring.Failed)
	cpuStats := vcpuTotals(vcpus)
	o.add("cpu %+v", cpuStats)
	o.failedOps += int64(failed + ring.Failed)

	lanes := f.LaneStats()
	var decisions uint64
	for _, n := range dec.Counts() {
		decisions += n.Count
	}
	r.count("workload.events", float64(len(tr.Events)))
	r.count("cluster.windows", float64(lanes.Windows))
	if lanes.Windows > 0 {
		r.count("cluster.forced_serial_ratio", float64(lanes.ForcedSerial)/float64(lanes.Windows))
		r.count("cluster.parallel_ratio", float64(lanes.Parallel)/float64(lanes.Windows))
	}
	if submitted > 0 {
		r.count("fleet.completed_ratio", float64(completed)/float64(submitted))
		r.count("overload.refused_ratio", float64(refused)/float64(submitted))
	}
	r.count("overload.decisions", float64(decisions))
	if crossings := ring.Flushes + ring.Drains; crossings > 0 {
		r.count("core.ring_descs_per_crossing", float64(ring.Flushed+ring.Drained)/float64(crossings))
	}
	r.count("core.ring_busied", float64(ring.Busied))
	r.count("core.ring_failed", float64(ring.Failed))
}
