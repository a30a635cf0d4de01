package experiments

import (
	"fmt"

	"github.com/elisa-go/elisa/internal/cluster"
	"github.com/elisa-go/elisa/internal/core"
	"github.com/elisa-go/elisa/internal/fleet"
	"github.com/elisa-go/elisa/internal/mem"
	"github.com/elisa-go/elisa/internal/stats"
	"github.com/elisa-go/elisa/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "ext_rebalance",
		Title: "Extension: load-driven auto-rebalancing — the committed skewed trace, with and without the controller armed",
		Paper: "extension of the sharding model: the paper's manager is one machine, so placement is static; a multi-manager deployment needs tenants to follow load. The controller watches per-shard demand and migrates tenants (revoke, copy, re-attach — the paper's own revocation path) until the max/mean imbalance converges",
		Run:   runRebalance,
	})
}

// runRebalance replays the committed skewed trace — four equal-rate
// tenants, every object pinned on shard 0 of a 4-shard cluster — twice:
// once with the auto-rebalancer unarmed (placement stays maximally
// skewed) and once armed with defaults. The armed run's decision log is
// rendered as a convergence table: one row per controller tick that
// moved a tenant, imbalance falling from 4.0 to its converged value.
// Same committed bytes, same seeds: the table is identical on every run.
func runRebalance(Config) (*stats.Table, error) {
	tr, err := workload.RebalanceTrace()
	if err != nil {
		return nil, err
	}
	type entry struct {
		name  string
		armed bool
		rep   *fleet.Report
		st    cluster.Stats
		decs  []cluster.RebalanceDecision
	}
	entries := []entry{{name: "unarmed"}, {name: "armed", armed: true}}
	for i := range entries {
		rep, st, decs, err := replayRebalance(entries[i].armed, tr)
		if err != nil {
			return nil, fmt.Errorf("rebalance replay %s: %w", entries[i].name, err)
		}
		entries[i].rep, entries[i].st, entries[i].decs = rep, st, decs
	}
	t := stats.NewTable(
		fmt.Sprintf("Auto-rebalancing: %d events, 4 tenants pinned on shard 0 of 4", len(tr.Events)),
		"Config", "Submitted", "Done", "Migrations", "Final imbalance")
	for _, e := range entries {
		var sub, done uint64
		for _, ten := range e.rep.Tenants {
			sub += ten.Submitted
			done += ten.Completed
		}
		t.AddRow(e.name, sub, done, e.st.Rebalances, fmt.Sprintf("%.3f", e.st.Imbalance))
	}
	for _, e := range entries {
		if !e.armed {
			continue
		}
		for _, d := range e.decs {
			if d.Moved {
				t.AddNote("tick %d ns: move %s shard %d -> %d (imbalance %.2f before)",
					int64(d.At), d.Tenant, d.From, d.To, d.Imbalance)
			}
		}
		held := 0
		for _, d := range e.decs {
			if !d.Moved {
				held++
			}
		}
		t.AddNote("armed: %d migrations, %d held ticks (hysteresis), converged at %.3f",
			e.st.Rebalances, held, e.st.Imbalance)
	}
	return t, nil
}

// replayRebalance boots the skewed 4-shard cluster — the rebalance
// scenario's objects force-pinned to shard 0 — admits the committed
// tenants, and replays the committed trace. armed installs the
// auto-rebalancer with default hysteresis.
func replayRebalance(armed bool, tr *workload.Trace) (*fleet.Report, cluster.Stats, []cluster.RebalanceDecision, error) {
	specs, err := workload.RebalanceSpecs()
	if err != nil {
		return nil, cluster.Stats{}, nil, err
	}
	c, err := cluster.New(cluster.Config{Shards: 4, Seed: 11})
	if err != nil {
		return nil, cluster.Stats{}, nil, err
	}
	if err := c.RegisterFunc(workload.RebalanceFn, func(*core.CallContext) (uint64, error) { return 0, nil }); err != nil {
		return nil, cluster.Stats{}, nil, err
	}
	for _, sp := range specs {
		for _, obj := range sp.Objects {
			if err := c.Ring().Pin(obj, 0); err != nil {
				return nil, cluster.Stats{}, nil, err
			}
			if _, err := c.CreateObject(obj, mem.PageSize); err != nil {
				return nil, cluster.Stats{}, nil, err
			}
		}
	}
	fc := cluster.FleetConfig{
		Config: fleet.Config{Cores: 2, Seed: 42, QueueDepth: 32, RingDepth: 16},
	}
	if armed {
		fc.Rebalance = true
	}
	f, err := c.NewFleet(fc)
	if err != nil {
		return nil, cluster.Stats{}, nil, err
	}
	for _, sp := range specs {
		ts, err := fleet.SpecFromWorkload(sp, fc.Seed)
		if err != nil {
			return nil, cluster.Stats{}, nil, err
		}
		if _, err := f.Admit(ts); err != nil {
			return nil, cluster.Stats{}, nil, err
		}
	}
	rep, err := f.Replay(tr, workload.RebalanceHorizon)
	if err != nil {
		return nil, cluster.Stats{}, nil, err
	}
	var decs []cluster.RebalanceDecision
	if reb := f.Rebalancer(); reb != nil {
		decs = reb.Decisions()
	}
	return rep, c.Stats(), decs, nil
}
