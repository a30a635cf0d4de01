package experiments

import (
	"fmt"

	"github.com/elisa-go/elisa/internal/fitness"
	"github.com/elisa-go/elisa/internal/fleet"
	"github.com/elisa-go/elisa/internal/overload"
	"github.com/elisa-go/elisa/internal/stats"
	"github.com/elisa-go/elisa/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "ext_workload",
		Title: "Extension: trace-driven replay — two overload configs ranked by fitness on the committed regression trace",
		Paper: "extension of the methodology: serverless and consolidation papers evaluate on recorded traces (Azure Functions, SURF) because open-loop synthetic load hides burst correlation; a committed trace plus a fitness function turns 'which config is better' into a deterministic, regression-testable number",
		Run:   runWorkloadReplay,
	})
}

// workloadFitnessSpec is the weighting ext_workload (and the
// elisa-replay default) scores configs under.
const workloadFitnessSpec = "goodput:0.5,p99:0.3,drops:0.2"

// runWorkloadReplay replays the committed regression trace (three
// tenants: diurnal web, MMPP batch bursts, Poisson svc) through the same
// machine twice — once with overload control unarmed, once with
// admission buckets plus class-based shedding — and ranks the two
// configurations by fitness. The winner's decision trace is then mined
// counterfactually: which (tenant, verdict) refusal group cost the most
// fitness? Everything is replayed from the same bytes, so the table is
// identical on every run.
func runWorkloadReplay(cfg Config) (*stats.Table, error) {
	tr, err := workload.RegressionTrace()
	if err != nil {
		return nil, err
	}
	type entry struct {
		name  string
		rep   *fleet.Report
		dec   *overload.DecisionTrace
		score *fitness.Score
	}
	entries := []entry{{name: "unarmed"}, {name: "armed"}}
	for i := range entries {
		armed := entries[i].name == "armed"
		entries[i].dec = overload.NewDecisionTrace(0)
		rep, err := replayRegression(armed, entries[i].dec)
		if err != nil {
			return nil, fmt.Errorf("workload replay %s: %w", entries[i].name, err)
		}
		sc, err := fitness.Eval(rep, workloadFitnessSpec)
		if err != nil {
			return nil, err
		}
		entries[i].rep, entries[i].score = rep, sc
	}
	t := stats.NewTable(
		fmt.Sprintf("Trace replay: %d events, 3 tenants, fitness %s", len(tr.Events), workloadFitnessSpec),
		"Config", "Submitted", "Done", "Refused", "Worst p99 [ns]", "Fitness")
	for _, e := range entries {
		var sub, done, refused uint64
		var worst int64
		for _, ten := range e.rep.Tenants {
			sub += ten.Submitted
			done += ten.Completed
			refused += ten.Dropped + ten.Shed + ten.BreakerShed + ten.Throttled + ten.Busied
			if p := int64(ten.P99); p > worst {
				worst = p
			}
		}
		t.AddRow(e.name, sub, done, refused, worst, fmt.Sprintf("%.4f", e.score.Total))
	}
	winner, loser := entries[0], entries[1]
	if loser.score.Total > winner.score.Total {
		winner, loser = loser, winner
	}
	t.AddNote("fitness ranks %q over %q (%.4f vs %.4f) on the same trace bytes",
		winner.name, loser.name, winner.score.Total, loser.score.Total)
	whats, err := fitness.Counterfactual(winner.rep, winner.dec, workloadFitnessSpec, 3)
	if err != nil {
		return nil, err
	}
	for _, w := range whats {
		t.AddNote("counterfactual (%s): had %s's %d %s refusals completed, fitness %.4f (%+.4f)",
			winner.name, w.Tenant, w.Count, w.Verdict, w.Fitness, w.Gain)
	}
	return t, nil
}

// replayRegression boots a fresh machine with the regression scenario's
// objects, admits its tenants, and replays the committed trace through
// it. armed selects the overload-control stack (classes + shedding, and
// the specs' admission buckets); unarmed strips both, leaving only the
// bounded queues.
func replayRegression(armed bool, dec *overload.DecisionTrace) (*fleet.Report, error) {
	specs, err := workload.RegressionSpecs()
	if err != nil {
		return nil, err
	}
	var objs []string
	seen := map[string]bool{}
	for _, sp := range specs {
		for _, obj := range sp.Objects {
			if !seen[obj] {
				seen[obj] = true
				objs = append(objs, obj)
			}
		}
	}
	fc := fleet.Config{Cores: 2, Seed: 42, QueueDepth: 32, Decisions: dec}
	if armed {
		// Shed early and low: refuse at the edge while queues are still
		// short instead of letting every queue fill and drop blindly —
		// goodput is capacity-bound either way, but the waiting time the
		// survivors see (and so the p99 term of the fitness) is not.
		fc.Classes = 3
		fc.ShedLow, fc.ShedHigh = 0.15, 0.4
	}
	_, f, err := oneShardFleet(256*1024*1024, 0, workload.RegressionFn, objs, fc, workload.RegressionHorizon)
	if err != nil {
		return nil, err
	}
	for _, sp := range specs {
		ts, err := fleet.SpecFromWorkload(sp, fc.Seed)
		if err != nil {
			return nil, err
		}
		if !armed {
			ts.AdmitRateOPS, ts.Class = 0, 0
		}
		if _, err := f.Admit(ts); err != nil {
			return nil, err
		}
	}
	tr, err := workload.RegressionTrace()
	if err != nil {
		return nil, err
	}
	return f.Replay(tr, workload.RegressionHorizon)
}
