package elisa

import (
	"fmt"
	"sort"
	"strconv"

	"github.com/elisa-go/elisa/internal/cluster"
	"github.com/elisa-go/elisa/internal/core"
	"github.com/elisa-go/elisa/internal/ept"
	"github.com/elisa-go/elisa/internal/fault"
	"github.com/elisa-go/elisa/internal/hv"
	"github.com/elisa-go/elisa/internal/obs"
)

// newMetricsRegistry wires the cluster's live state into a metrics
// registry. Collectors are pulled at Gather time, so every export is a
// fresh snapshot; nothing here samples or caches.
func newMetricsRegistry(c *cluster.Cluster) *obs.Registry {
	reg := obs.NewRegistry()
	reg.Register(collectShards(c))
	reg.Register(collectCluster(c))
	reg.Register(collectFleets(c))
	return reg
}

// collectShards runs each per-machine collector once per shard, adds a
// shard label to every sample, and merges same-named families, so every
// family is exported once and covers every shard.
func collectShards(c *cluster.Cluster) obs.Collector {
	type machine struct {
		shard      string
		collectors []obs.Collector
	}
	var machines []machine
	for _, sh := range c.Shards() {
		h, mgr, rec := sh.Hypervisor(), sh.Manager(), sh.Recorder()
		machines = append(machines, machine{strconv.Itoa(sh.ID), []obs.Collector{
			collectMachine(h), collectManager(mgr), collectSlots(mgr), collectRings(mgr),
			collectOverload(mgr), collectFaults(h, mgr),
			obs.CollectRecorder(rec), obs.CollectCausal(rec.Causal()),
		}})
	}
	return func() []obs.Metric {
		var out []obs.Metric
		family := make(map[string]int)
		for _, m := range machines {
			for _, collect := range m.collectors {
				if collect == nil {
					continue // no recorder on this system
				}
				for _, fam := range collect() {
					for i := range fam.Samples {
						fam.Samples[i].Labels = withLabel(fam.Samples[i].Labels, "shard", m.shard)
					}
					if k, ok := family[fam.Name]; ok {
						out[k].Samples = append(out[k].Samples, fam.Samples...)
						continue
					}
					family[fam.Name] = len(out)
					out = append(out, fam)
				}
			}
		}
		return out
	}
}

// withLabel returns a copy of labels with k set to v; collectors may
// share one label map between samples.
func withLabel(labels map[string]string, k, v string) map[string]string {
	out := make(map[string]string, len(labels)+1)
	for lk, lv := range labels {
		out[lk] = lv
	}
	out[k] = v
	return out
}

// collectRings exports the exit-less ring datapath: per-ring queue
// occupancy, lifetime descriptor counters split by drain side (guest
// gate flush vs. manager poller), and batch-size quantiles — the
// amortisation factor of the 196 ns crossing.
func collectRings(mgr *core.Manager) obs.Collector {
	return func() []obs.Metric {
		queued := obs.Metric{Name: "elisa_ring_queued",
			Help: "Descriptors waiting in the submission queue.", Type: obs.TypeGauge}
		ready := obs.Metric{Name: "elisa_ring_ready",
			Help: "Completions drained but not yet polled by the guest.", Type: obs.TypeGauge}
		depth := obs.Metric{Name: "elisa_ring_depth",
			Help: "Negotiated ring depth (slots).", Type: obs.TypeGauge}
		submitted := obs.Metric{Name: "elisa_ring_submitted_total",
			Help: "Descriptors ever submitted.", Type: obs.TypeCounter}
		completed := obs.Metric{Name: "elisa_ring_completed_total",
			Help: "Completions ever produced.", Type: obs.TypeCounter}
		kicks := obs.Metric{Name: "elisa_ring_kicks_total",
			Help: "Empty-to-non-empty doorbell rings (in-memory, exit-less).", Type: obs.TypeCounter}
		drains := obs.Metric{Name: "elisa_ring_drains_total",
			Help: "Drain passes that serviced at least one descriptor, by side (flush = guest gate crossing, poll = manager poller).", Type: obs.TypeCounter}
		drained := obs.Metric{Name: "elisa_ring_drained_total",
			Help: "Descriptors serviced, by drain side.", Type: obs.TypeCounter}
		failed := obs.Metric{Name: "elisa_ring_failed_total",
			Help: "Descriptors completed administratively (CompErr) on revoke or detach.", Type: obs.TypeCounter}
		batch := obs.Metric{Name: "elisa_ring_batch_size",
			Help: "Batch-size quantiles: descriptors serviced per drain pass.", Type: obs.TypeGauge}
		for _, rs := range mgr.RingStats() {
			labels := map[string]string{"guest": rs.Guest, "object": rs.Object}
			flushL := map[string]string{"guest": rs.Guest, "object": rs.Object, "side": "flush"}
			pollL := map[string]string{"guest": rs.Guest, "object": rs.Object, "side": "poll"}
			queued.Samples = append(queued.Samples, obs.Sample{Labels: labels, Value: float64(rs.Queued)})
			ready.Samples = append(ready.Samples, obs.Sample{Labels: labels, Value: float64(rs.Ready)})
			depth.Samples = append(depth.Samples, obs.Sample{Labels: labels, Value: float64(rs.Depth)})
			submitted.Samples = append(submitted.Samples, obs.Sample{Labels: labels, Value: float64(rs.Submitted)})
			completed.Samples = append(completed.Samples, obs.Sample{Labels: labels, Value: float64(rs.Completed)})
			kicks.Samples = append(kicks.Samples, obs.Sample{Labels: labels, Value: float64(rs.Kicks)})
			drains.Samples = append(drains.Samples,
				obs.Sample{Labels: flushL, Value: float64(rs.Flushes)},
				obs.Sample{Labels: pollL, Value: float64(rs.Drains)})
			drained.Samples = append(drained.Samples,
				obs.Sample{Labels: flushL, Value: float64(rs.Flushed)},
				obs.Sample{Labels: pollL, Value: float64(rs.Drained)})
			failed.Samples = append(failed.Samples, obs.Sample{Labels: labels, Value: float64(rs.Failed)})
			batch.Samples = append(batch.Samples,
				obs.Sample{Labels: map[string]string{"guest": rs.Guest, "object": rs.Object, "q": "p50"}, Value: float64(rs.BatchP50)},
				obs.Sample{Labels: map[string]string{"guest": rs.Guest, "object": rs.Object, "q": "p99"}, Value: float64(rs.BatchP99)})
		}
		return []obs.Metric{queued, ready, depth, submitted, completed, kicks, drains, drained, failed, batch}
	}
}

// collectOverload exports the overload-control datapath: per-ring busy
// bounces and the retries they provoked. All-zero (but still present)
// when overload control is disarmed, so dashboards can alert on the
// first bounce.
func collectOverload(mgr *core.Manager) obs.Collector {
	return func() []obs.Metric {
		busy := obs.Metric{Name: "elisa_overload_busy_total",
			Help: "Descriptors bounced back CompBusy by drain-budget overload control.", Type: obs.TypeCounter}
		retry := obs.Metric{Name: "elisa_overload_retry_total",
			Help: "Guest-side backoff re-submissions after a CompBusy bounce.", Type: obs.TypeCounter}
		for _, rs := range mgr.RingStats() {
			labels := map[string]string{"guest": rs.Guest, "object": rs.Object}
			busy.Samples = append(busy.Samples, obs.Sample{Labels: labels, Value: float64(rs.Busied)})
			retry.Samples = append(retry.Samples, obs.Sample{Labels: labels, Value: float64(rs.Retried)})
		}
		return []obs.Metric{busy, retry}
	}
}

// collectMachine exports per-vCPU event counters (exits, VMFUNCs, TLB
// hits/misses) and host-level gauges.
func collectMachine(h *hv.Hypervisor) obs.Collector {
	return func() []obs.Metric {
		exits := obs.Metric{Name: "elisa_vcpu_exits_total",
			Help: "VM exits per vCPU (the slow path ELISA avoids).", Type: obs.TypeCounter}
		hypercalls := obs.Metric{Name: "elisa_vcpu_hypercalls_total",
			Help: "VMCALL hypercalls per vCPU.", Type: obs.TypeCounter}
		vmfuncs := obs.Metric{Name: "elisa_vcpu_vmfuncs_total",
			Help: "Exit-less VMFUNC EPTP switches per vCPU.", Type: obs.TypeCounter}
		tlbHits := obs.Metric{Name: "elisa_tlb_hits_total",
			Help: "Tagged-TLB hits per vCPU.", Type: obs.TypeCounter}
		tlbMisses := obs.Metric{Name: "elisa_tlb_misses_total",
			Help: "Tagged-TLB misses (EPT walks) per vCPU.", Type: obs.TypeCounter}
		for _, vm := range h.VMs() {
			st := vm.VCPU().Stats()
			labels := map[string]string{"vm": vm.Name()}
			exits.Samples = append(exits.Samples, obs.Sample{Labels: labels, Value: float64(st.Exits)})
			hypercalls.Samples = append(hypercalls.Samples, obs.Sample{Labels: labels, Value: float64(st.Hypercalls)})
			vmfuncs.Samples = append(vmfuncs.Samples, obs.Sample{Labels: labels, Value: float64(st.VMFuncs)})
			tlbHits.Samples = append(tlbHits.Samples, obs.Sample{Labels: labels, Value: float64(st.TLBHits)})
			tlbMisses.Samples = append(tlbMisses.Samples, obs.Sample{Labels: labels, Value: float64(st.TLBMisses)})
		}
		ms := h.MachineStats()
		return []obs.Metric{
			exits, hypercalls, vmfuncs, tlbHits, tlbMisses,
			{Name: "elisa_vms", Help: "Live VMs (manager included).", Type: obs.TypeGauge,
				Samples: []obs.Sample{{Value: float64(ms.VMs)}}},
			{Name: "elisa_vms_killed_total", Help: "VMs killed for protocol violations.", Type: obs.TypeCounter,
				Samples: []obs.Sample{{Value: float64(ms.Killed)}}},
			{Name: "elisa_trace_events_total", Help: "Slow-path trace events ever emitted.", Type: obs.TypeCounter,
				Samples: []obs.Sample{{Value: float64(ms.TraceEmitted)}}},
			{Name: "elisa_mem_resident_bytes", Help: "Host memory backing simulated physical memory (2 MiB chunks backed on first touch).", Type: obs.TypeGauge,
				Samples: []obs.Sample{{Value: float64(ms.ResidentBytes)}}},
		}
	}
}

// collectManager exports the manager's per-attachment accounting.
func collectManager(mgr *core.Manager) obs.Collector {
	return func() []obs.Metric {
		calls := obs.Metric{Name: "elisa_attachment_calls_total",
			Help: "Manager-function invocations per attachment.", Type: obs.TypeCounter}
		fnErrors := obs.Metric{Name: "elisa_attachment_fn_errors_total",
			Help: "Manager-function errors per attachment.", Type: obs.TypeCounter}
		live := 0
		for _, st := range mgr.Stats() {
			if !st.Revoked {
				live++
			}
			labels := map[string]string{"guest": st.Guest, "object": st.Object,
				"slot": fmt.Sprintf("%d", st.SubIndex)}
			calls.Samples = append(calls.Samples, obs.Sample{Labels: labels, Value: float64(st.Calls)})
			fnErrors.Samples = append(fnErrors.Samples, obs.Sample{Labels: labels, Value: float64(st.FnErrors)})
		}
		return []obs.Metric{
			calls, fnErrors,
			{Name: "elisa_attachments", Help: "Live (non-revoked) attachments.", Type: obs.TypeGauge,
				Samples: []obs.Sample{{Value: float64(live)}}},
			{Name: "elisa_objects", Help: "Registered shared objects.", Type: obs.TypeGauge,
				Samples: []obs.Sample{{Value: float64(len(mgr.ObjectNames()))}}},
		}
	}
}

// collectSlots exports the slot-virtualisation layer: per-guest occupancy
// of the 512-entry EPTP list, and the slow-path remap counters (faults =
// HCSlotFault re-binds, evictions = LRU displacements). fault rate over
// time is the fleet's remap rate.
func collectSlots(mgr *core.Manager) obs.Collector {
	capacity := float64(ept.ListEntries - 2) // minus default + gate slots
	return func() []obs.Metric {
		budget := obs.Metric{Name: "elisa_slot_budget",
			Help: "Physical EPTP-list slots a guest may occupy at once.", Type: obs.TypeGauge}
		backed := obs.Metric{Name: "elisa_slot_backed",
			Help: "Physical EPTP-list slots a guest occupies now.", Type: obs.TypeGauge}
		occupancy := obs.Metric{Name: "elisa_slot_occupancy_ratio",
			Help: "Backed slots over the guest's budget.", Type: obs.TypeGauge}
		virtual := obs.Metric{Name: "elisa_slot_virtual_only",
			Help: "Live attachments currently without a physical slot.", Type: obs.TypeGauge}
		faults := obs.Metric{Name: "elisa_slot_faults_total",
			Help: "HCSlotFault re-binds (the virtualised slow path).", Type: obs.TypeCounter}
		evictions := obs.Metric{Name: "elisa_slot_evictions_total",
			Help: "LRU slot evictions.", Type: obs.TypeCounter}
		totalBacked := 0.0
		for _, ss := range mgr.SlotStats() {
			labels := map[string]string{"guest": ss.Guest}
			budget.Samples = append(budget.Samples, obs.Sample{Labels: labels, Value: float64(ss.Budget)})
			backed.Samples = append(backed.Samples, obs.Sample{Labels: labels, Value: float64(ss.Backed)})
			if ss.Budget > 0 {
				occupancy.Samples = append(occupancy.Samples, obs.Sample{Labels: labels,
					Value: float64(ss.Backed) / float64(ss.Budget)})
			}
			virtual.Samples = append(virtual.Samples, obs.Sample{Labels: labels,
				Value: float64(ss.Live - ss.Backed)})
			faults.Samples = append(faults.Samples, obs.Sample{Labels: labels, Value: float64(ss.Faults)})
			evictions.Samples = append(evictions.Samples, obs.Sample{Labels: labels, Value: float64(ss.Evictions)})
			totalBacked += float64(ss.Backed)
		}
		return []obs.Metric{
			budget, backed, occupancy, virtual, faults, evictions,
			{Name: "elisa_slot_list_capacity", Help: "Backable sub-context slots per EPTP list.",
				Type: obs.TypeGauge, Samples: []obs.Sample{{Value: capacity}}},
			{Name: "elisa_slot_backed_total", Help: "Backed slots machine-wide.",
				Type: obs.TypeGauge, Samples: []obs.Sample{{Value: totalBacked}}},
		}
	}
}

// collectFaults exports the chaos layer: injected-fault counters by class
// and by guest (from the armed injector, empty when chaos is off), crash
// accounting, and the manager's recovery-side counters — quarantines,
// mid-gate deaths, Fsck repairs, negotiation retries.
func collectFaults(h *hv.Hypervisor, mgr *core.Manager) obs.Collector {
	return func() []obs.Metric {
		injections := obs.Metric{Name: "elisa_fault_injections_total",
			Help: "Injected faults consummated, by class.", Type: obs.TypeCounter}
		hits := obs.Metric{Name: "elisa_fault_guest_hits_total",
			Help: "Injected faults that landed on each guest.", Type: obs.TypeCounter}
		pending := 0.0
		inj := mgr.Injector()
		if inj != nil {
			byClass := inj.FiredByClass()
			for _, c := range fault.Classes {
				injections.Samples = append(injections.Samples, obs.Sample{
					Labels: map[string]string{"class": string(c)}, Value: float64(byClass[c])})
			}
			byGuest := inj.FiredByGuest()
			guests := make([]string, 0, len(byGuest))
			for g := range byGuest {
				guests = append(guests, g)
			}
			sort.Strings(guests)
			for _, g := range guests {
				hits.Samples = append(hits.Samples, obs.Sample{
					Labels: map[string]string{"guest": g}, Value: float64(byGuest[g])})
			}
			pending = float64(inj.Pending())
		}
		rs := mgr.RecoveryStats()
		recovery := obs.Metric{Name: "elisa_recovery_total",
			Help: "Recovery actions by kind: quarantines of dead guests, mid-gate deaths among them, Fsck list repairs, guest negotiation retries.",
			Type: obs.TypeCounter,
			Samples: []obs.Sample{
				{Labels: map[string]string{"kind": "quarantine"}, Value: float64(rs.Recoveries)},
				{Labels: map[string]string{"kind": "mid-gate-death"}, Value: float64(rs.MidGateDeaths)},
				{Labels: map[string]string{"kind": "fsck-repair"}, Value: float64(rs.Repairs)},
				{Labels: map[string]string{"kind": "retry"}, Value: float64(rs.Retries)},
			}}
		return []obs.Metric{
			injections, hits, recovery,
			{Name: "elisa_fault_injections_pending", Help: "Armed injections not yet fired.",
				Type: obs.TypeGauge, Samples: []obs.Sample{{Value: pending}}},
			{Name: "elisa_vms_crashed_total", Help: "VMs dead by crash (injected or organic), not protocol kills.",
				Type: obs.TypeCounter, Samples: []obs.Sample{{Value: float64(h.MachineStats().Crashed)}}},
		}
	}
}

// collectCluster exports the sharded control plane: per-shard goodput,
// slot occupancy, placed objects, call counters, each fleet's lane
// counters, and the cluster-wide max/mean load imbalance ratio plus
// MoveObject rebalance count.
func collectCluster(c *cluster.Cluster) obs.Collector {
	return func() []obs.Metric {
		goodput := obs.Metric{Name: "elisa_cluster_goodput_ops",
			Help: "Completed fleet ops per simulated second, per shard.", Type: obs.TypeGauge}
		occupancy := obs.Metric{Name: "elisa_cluster_occupancy_ratio",
			Help: "Backed EPTP-list slots over budget, per shard.", Type: obs.TypeGauge}
		objects := obs.Metric{Name: "elisa_cluster_objects",
			Help: "Shared objects each shard's manager holds.", Type: obs.TypeGauge}
		guests := obs.Metric{Name: "elisa_cluster_guests",
			Help: "Guests holding ELISA state on each shard.", Type: obs.TypeGauge}
		calls := obs.Metric{Name: "elisa_cluster_calls_total",
			Help: "Exit-less manager-function calls routed to each shard.", Type: obs.TypeCounter}
		remaps := obs.Metric{Name: "elisa_cluster_slot_remaps_total",
			Help: "HCSlotFault slot re-binds on each shard.", Type: obs.TypeCounter}
		laneWindows := obs.Metric{Name: "elisa_fleet_lane_windows_total",
			Help: "Scheduling windows executed by each cluster fleet's lane runner.", Type: obs.TypeCounter}
		laneParallel := obs.Metric{Name: "elisa_fleet_lane_parallel_total",
			Help: "Windows fanned out to >1 concurrent shard lanes.", Type: obs.TypeCounter}
		laneForced := obs.Metric{Name: "elisa_fleet_lane_forced_serial_total",
			Help: "Windows demoted to serial execution by shared order-sensitive state (global admission buckets, decision trace).", Type: obs.TypeCounter}
		laneRuns := obs.Metric{Name: "elisa_fleet_lane_runs_total",
			Help: "Individual shard-lane executions across all windows.", Type: obs.TypeCounter}
		laneCap := obs.Metric{Name: "elisa_fleet_lane_parallelism",
			Help: "Configured lane cap (FleetConfig.Parallelism; <=1 is serial).", Type: obs.TypeGauge}
		for i, f := range c.Fleets() {
			ls := f.LaneStats()
			labels := map[string]string{"fleet": fmt.Sprintf("%d", i)}
			laneWindows.Samples = append(laneWindows.Samples, obs.Sample{Labels: labels, Value: float64(ls.Windows)})
			laneParallel.Samples = append(laneParallel.Samples, obs.Sample{Labels: labels, Value: float64(ls.Parallel)})
			laneForced.Samples = append(laneForced.Samples, obs.Sample{Labels: labels, Value: float64(ls.ForcedSerial)})
			laneRuns.Samples = append(laneRuns.Samples, obs.Sample{Labels: labels, Value: float64(ls.LaneRuns)})
			laneCap.Samples = append(laneCap.Samples, obs.Sample{Labels: labels, Value: float64(ls.Parallelism)})
		}
		st := c.Stats()
		for _, ss := range st.Shards {
			labels := map[string]string{"shard": fmt.Sprintf("%d", ss.ID)}
			goodput.Samples = append(goodput.Samples, obs.Sample{Labels: labels, Value: ss.GoodputOPS})
			occupancy.Samples = append(occupancy.Samples, obs.Sample{Labels: labels, Value: ss.Occupancy})
			objects.Samples = append(objects.Samples, obs.Sample{Labels: labels, Value: float64(ss.Objects)})
			guests.Samples = append(guests.Samples, obs.Sample{Labels: labels, Value: float64(ss.Guests)})
			calls.Samples = append(calls.Samples, obs.Sample{Labels: labels, Value: float64(ss.Calls)})
			remaps.Samples = append(remaps.Samples, obs.Sample{Labels: labels, Value: float64(ss.Remaps)})
		}
		return []obs.Metric{goodput, occupancy, objects, guests, calls, remaps,
			laneWindows, laneParallel, laneForced, laneRuns, laneCap,
			{Name: "elisa_cluster_shards", Help: "Manager shards in the cluster.", Type: obs.TypeGauge,
				Samples: []obs.Sample{{Value: float64(c.NumShards())}}},
			{Name: "elisa_cluster_imbalance_ratio",
				Help: "Max/mean per-shard load (calls when any, placed objects otherwise); 1.0 is perfectly balanced.",
				Type: obs.TypeGauge, Samples: []obs.Sample{{Value: st.Imbalance}}},
			{Name: "elisa_cluster_moves_total", Help: "MoveObject rebalances performed.", Type: obs.TypeCounter,
				Samples: []obs.Sample{{Value: float64(st.Moves)}}},
			{Name: "elisa_cluster_rebalances_total",
				Help: "Tenant migrations executed by the load-driven auto-rebalancer (each is one or more MoveObjects plus a fleet evict/adopt).",
				Type: obs.TypeCounter, Samples: []obs.Sample{{Value: float64(st.Rebalances)}}},
		}
	}
}

// collectFleets exports every fleet's per-tenant scheduling results —
// goodput, drop counters, and completion-latency quantiles — labelled
// with the shard each tenant runs on. It exports nothing until a fleet
// exists.
func collectFleets(c *cluster.Cluster) obs.Collector {
	return func() []obs.Metric {
		fleets := c.Fleets()
		if len(fleets) == 0 {
			return nil
		}
		submitted := obs.Metric{Name: "elisa_fleet_submitted_total",
			Help: "Ops submitted per tenant.", Type: obs.TypeCounter}
		completed := obs.Metric{Name: "elisa_fleet_completed_total",
			Help: "Ops completed per tenant.", Type: obs.TypeCounter}
		dropped := obs.Metric{Name: "elisa_fleet_dropped_total",
			Help: "Ops dropped at the tenant's bounded queue.", Type: obs.TypeCounter}
		goodput := obs.Metric{Name: "elisa_fleet_goodput_ops",
			Help: "Completed ops per simulated second, per tenant.", Type: obs.TypeGauge}
		latency := obs.Metric{Name: "elisa_fleet_latency_ns",
			Help: "Op completion latency quantiles (queueing included).", Type: obs.TypeGauge}
		shed := obs.Metric{Name: "elisa_overload_shed_total",
			Help: "Arrivals refused before the ring, by reason (admission = token bucket, shed = load shedder).", Type: obs.TypeCounter}
		tenants := make([]int, c.NumShards())
		for _, f := range fleets {
			for _, tr := range f.Snapshot().Tenants {
				s, _ := f.TenantShard(tr.Name)
				tenants[s]++
				labels := map[string]string{"shard": strconv.Itoa(s), "tenant": tr.Name}
				submitted.Samples = append(submitted.Samples, obs.Sample{Labels: labels, Value: float64(tr.Submitted)})
				completed.Samples = append(completed.Samples, obs.Sample{Labels: labels, Value: float64(tr.Completed)})
				dropped.Samples = append(dropped.Samples, obs.Sample{Labels: labels, Value: float64(tr.Dropped)})
				goodput.Samples = append(goodput.Samples, obs.Sample{Labels: labels, Value: tr.GoodputOPS})
				latency.Samples = append(latency.Samples,
					obs.Sample{Labels: withLabel(labels, "q", "p50"), Value: float64(tr.P50)},
					obs.Sample{Labels: withLabel(labels, "q", "p99"), Value: float64(tr.P99)})
				shed.Samples = append(shed.Samples,
					obs.Sample{Labels: withLabel(labels, "reason", "admission"), Value: float64(tr.Throttled)},
					obs.Sample{Labels: withLabel(labels, "reason", "shed"), Value: float64(tr.Shed)})
			}
		}
		admitted := obs.Metric{Name: "elisa_fleet_tenants", Help: "Admitted tenants, per shard.", Type: obs.TypeGauge}
		for s, n := range tenants {
			if n > 0 {
				admitted.Samples = append(admitted.Samples, obs.Sample{
					Labels: map[string]string{"shard": strconv.Itoa(s)}, Value: float64(n)})
			}
		}
		return []obs.Metric{submitted, completed, dropped, goodput, latency, shed, admitted}
	}
}
