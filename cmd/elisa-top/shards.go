package main

import (
	"fmt"
	"io"

	elisa "github.com/elisa-go/elisa"
	"github.com/elisa-go/elisa/internal/simtime"
	"github.com/elisa-go/elisa/internal/stats"
)

// renderShardFrame prints one refresh of the per-shard table: routed
// goodput, slot occupancy, and the HCSlotFault remap rate. Deltas are
// clamped (deltaU64) for the same reason the tenant table clamps:
// revocation during a rebalance can shrink a shard's cumulative counters
// between frames.
func renderShardFrame(out io.Writer, c *elisa.Cluster, frame int, interval simtime.Duration,
	prev map[int]elisa.ShardStats) {
	st := c.Stats()
	tb := stats.NewTable(fmt.Sprintf("elisa-top frame %d (%d shards)", frame, len(st.Shards)),
		"SHARD", "OBJS", "GUESTS", "GOODPUT/S", "OCC", "REMAP/S")
	for _, ss := range st.Shards {
		dCalls := deltaU64(ss.Calls, prev[ss.ID].Calls)
		dRemaps := deltaU64(ss.Remaps, prev[ss.ID].Remaps)
		tb.AddRow(ss.ID, ss.Objects, ss.Guests,
			stats.Throughput(int64(dCalls), interval),
			fmt.Sprintf("%.2f", ss.Occupancy),
			stats.Throughput(int64(dRemaps), interval))
		prev[ss.ID] = ss
	}
	tb.AddNote("one row per manager shard; GOODPUT/S is routed calls per simulated second this frame, OCC the backed/budget EPTP-slot ratio, REMAP/S the HCSlotFault re-bind rate; imbalance %.2f, %d objects, %d object moves, %d tenant rebalances",
		st.Imbalance, st.Objects, st.Moves, st.Rebalances)
	fmt.Fprint(out, tb.String())
	fmt.Fprintln(out)
}

// shardSnapshot is one shard's row in the -once -json document (schema
// >= 2; the array is empty on 1-shard runs).
type shardSnapshot struct {
	Shard       int     `json:"shard"`
	Objects     int     `json:"objects"`
	Guests      int     `json:"guests"`
	Calls       uint64  `json:"calls"`
	FnErrors    uint64  `json:"fn_errors"`
	SlotsBacked int     `json:"slots_backed"`
	SlotBudget  int     `json:"slot_budget"`
	Occupancy   float64 `json:"occupancy"`
	Remaps      uint64  `json:"slot_remaps"`
}
