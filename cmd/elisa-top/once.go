package main

import (
	"encoding/json"
	"io"

	"github.com/elisa-go/elisa/internal/simtime"
)

// snapshotSchema versions the -once -json output so scrapers can reject
// a format they don't read. Schema 2 added shard_count and the per-shard
// shards array (-shards > 1; empty on 1-shard runs).
const snapshotSchema = 2

// tenantSnapshot is one tenant's row in the one-shot snapshot, its
// counters summed over the tenant's shard replicas. Every field is
// derived from the simulated machine, so same-flag runs emit
// byte-identical snapshots.
type tenantSnapshot struct {
	Name      string `json:"name"`
	Objects   int    `json:"objects"`
	Calls     uint64 `json:"calls"`
	FnErrors  uint64 `json:"fn_errors"`
	P50Ns     int64  `json:"p50_ns"`
	P99Ns     int64  `json:"p99_ns"`
	SlotsUsed int    `json:"slots_backed"`
	SlotBudg  int    `json:"slot_budget"`
	Remaps    uint64 `json:"slot_remaps"`
	TLBHits   uint64 `json:"tlb_hits"`
	TLBMisses uint64 `json:"tlb_misses"`
	// Ring datapath counters (zero with -ring 0).
	RingDrained uint64 `json:"ring_drained"`
	RingBusied  uint64 `json:"ring_busied"`
	RingRetried uint64 `json:"ring_retried"`
}

// topSnapshot is the whole `elisa-top -once -json` document.
type topSnapshot struct {
	Schema     int              `json:"schema"`
	IntervalNS int64            `json:"interval_ns"`
	RingDepth  int              `json:"ring_depth"`
	Overload   bool             `json:"overload"`
	ShardCount int              `json:"shard_count"`
	Tenants    []tenantSnapshot `json:"tenants"`
	Shards     []shardSnapshot  `json:"shards,omitempty"`
}

// runOnce drives the elisa-top workload for exactly one simulated
// interval and writes the machine-readable snapshot to w — the
// `-once -json` mode. The workload, seeds, and counters are all
// simulated, so the output is bit-identical run to run.
func runOnce(w io.Writer, o options) error {
	m, err := build(o)
	if err != nil {
		return err
	}
	interval := simtime.Duration(o.intervalMs) * simtime.Millisecond
	if err := m.driveFrame(o, interval); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(m.snapshot(o, interval), "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(raw, '\n'))
	return err
}

// snapshot assembles the one-shot document from the live system: one row
// per tenant and, on a multi-shard system, one row per shard.
func (m *machine) snapshot(o options, interval simtime.Duration) *topSnapshot {
	c := m.sys.Cluster()
	snap := &topSnapshot{Schema: snapshotSchema, IntervalNS: int64(interval),
		RingDepth: o.ringDepth, Overload: o.overload, ShardCount: c.NumShards()}
	acct := m.collect()
	for _, tn := range m.tenants {
		a := acct[tn.g.Name()]
		snap.Tenants = append(snap.Tenants, tenantSnapshot{
			Name:      tn.g.Name(),
			Objects:   len(tn.hs),
			Calls:     a.calls,
			FnErrors:  a.errs,
			P50Ns:     a.hist.Percentile(0.50),
			P99Ns:     a.hist.Percentile(0.99),
			SlotsUsed: a.backed,
			SlotBudg:  a.budget,
			Remaps:    a.remaps,
			TLBHits:   a.tlbHits,
			TLBMisses: a.tlbMisses,

			RingDrained: a.drained,
			RingBusied:  a.busied,
			RingRetried: a.retried,
		})
	}
	if c.NumShards() > 1 {
		for _, ss := range c.Stats().Shards {
			snap.Shards = append(snap.Shards, shardSnapshot{
				Shard:       ss.ID,
				Objects:     ss.Objects,
				Guests:      ss.Guests,
				Calls:       ss.Calls,
				FnErrors:    ss.FnErrors,
				SlotsBacked: ss.SlotsBacked,
				SlotBudget:  ss.SlotBudget,
				Occupancy:   ss.Occupancy,
				Remaps:      ss.Remaps,
			})
		}
	}
	return snap
}
