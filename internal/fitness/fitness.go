// Package fitness scores fleet reports against weighted objectives and
// answers "what refusal hurt most?" counterfactually.
//
// A fitness spec is a flat string like "goodput:0.5,p99:0.3,drops:0.2":
// each metric is normalised into [0,1] (higher is better) and the score
// is the weight-normalised sum, so configurations are comparable across
// runs of the same scenario. The counterfactual analysis takes the
// overload plane's decision trace, hypothetically converts each
// (tenant, verdict) refusal group into completions, re-scores, and ranks
// the groups by fitness gained — the top-K list names the overload knob
// whose refusals cost the most.
//
// Everything is pure arithmetic over a report: same report, same spec,
// same bytes — which makes rendered scores and counterfactuals
// golden-file artefacts.
package fitness

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"github.com/elisa-go/elisa/internal/fleet"
	"github.com/elisa-go/elisa/internal/overload"
	"github.com/elisa-go/elisa/internal/stats"
)

// Metrics the spec string may name, each normalised into [0,1] with
// higher better.
const (
	// MetricGoodput is completed/submitted across the fleet.
	MetricGoodput = "goodput"
	// MetricP50 is 1/(1+µs) of the worst per-tenant p50 latency.
	MetricP50 = "p50"
	// MetricP99 is 1/(1+µs) of the worst per-tenant p99 latency.
	MetricP99 = "p99"
	// MetricDrops is 1 - refused/submitted, where refused counts every
	// flavour of refusal (drop, shed, quarantine, throttle, busy).
	MetricDrops = "drops"
)

// Weight is one weighted metric from a fitness spec.
type Weight struct {
	Metric string
	Weight float64
}

// ParseWeights parses a fitness spec like "goodput:0.5,p99:0.3,drops:0.2"
// into its weighted metrics, in spec order. Weights must be positive;
// metrics must be known and unique.
func ParseWeights(spec string) ([]Weight, error) {
	known := map[string]bool{MetricGoodput: true, MetricP50: true, MetricP99: true, MetricDrops: true}
	seen := map[string]bool{}
	var out []Weight
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("fitness: %q is not metric:weight", part)
		}
		name = strings.TrimSpace(name)
		if !known[name] {
			return nil, fmt.Errorf("fitness: unknown metric %q (want goodput, p50, p99, drops)", name)
		}
		if seen[name] {
			return nil, fmt.Errorf("fitness: metric %q repeated", name)
		}
		seen[name] = true
		w, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil || w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("fitness: metric %q needs a positive finite weight, got %q", name, val)
		}
		out = append(out, Weight{Metric: name, Weight: w})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("fitness: empty spec %q", spec)
	}
	return out, nil
}

// Part is one metric's contribution to a score.
type Part struct {
	Metric string
	// Raw is the metric in its own units (ops ratio, worst ns, refusal
	// ratio); Norm is its [0,1] normalisation; Weight its spec weight.
	Raw, Norm, Weight float64
}

// Score is one report's fitness under one spec.
type Score struct {
	// Total is the weight-normalised sum of the parts, in [0,1].
	Total float64
	// Parts lists each metric's contribution, in spec order.
	Parts []Part
}

// refused sums every refusal flavour in one tenant's report.
func refused(t fleet.TenantReport) uint64 {
	return t.Dropped + t.Shed + t.BreakerShed + t.Throttled + t.Busied
}

// Eval scores a fleet report against a fitness spec string.
func Eval(rep *fleet.Report, spec string) (*Score, error) {
	weights, err := ParseWeights(spec)
	if err != nil {
		return nil, err
	}
	if rep == nil {
		return nil, fmt.Errorf("fitness: nil report")
	}
	var submitted, completed, refusals uint64
	var worstP50, worstP99 float64
	for _, t := range rep.Tenants {
		submitted += t.Submitted
		completed += t.Completed
		refusals += refused(t)
		if p := float64(t.P50); p > worstP50 {
			worstP50 = p
		}
		if p := float64(t.P99); p > worstP99 {
			worstP99 = p
		}
	}
	sc := &Score{}
	var wsum float64
	for _, w := range weights {
		var raw, norm float64
		switch w.Metric {
		case MetricGoodput:
			if submitted > 0 {
				raw = float64(completed) / float64(submitted)
			}
			norm = raw
		case MetricP50:
			raw = worstP50
			norm = 1 / (1 + worstP50/1000) // ns -> µs
		case MetricP99:
			raw = worstP99
			norm = 1 / (1 + worstP99/1000)
		case MetricDrops:
			if submitted > 0 {
				raw = float64(refusals) / float64(submitted)
			}
			norm = 1 - raw
		}
		sc.Parts = append(sc.Parts, Part{Metric: w.Metric, Raw: raw, Norm: norm, Weight: w.Weight})
		sc.Total += norm * w.Weight
		wsum += w.Weight
	}
	sc.Total /= wsum
	return sc, nil
}

// Table renders the score as the canonical fitness table (a golden-file
// artefact).
func (s *Score) Table(title string) *stats.Table {
	t := stats.NewTable(title, "Metric", "Raw", "Norm", "Weight")
	for _, p := range s.Parts {
		t.AddRow(p.Metric, p.Raw, p.Norm, p.Weight)
	}
	t.AddNote("fitness %.4f", s.Total)
	return t
}

// What is one counterfactual: the fitness the scenario would have scored
// had this (tenant, verdict) refusal group completed instead.
type What struct {
	Tenant  string
	Verdict overload.Verdict
	Count   uint64
	// Fitness is the re-evaluated total; Gain is Fitness minus the
	// factual score (negative gains are possible only by rounding).
	Fitness float64
	Gain    float64
}

// Counterfactual ranks refusal groups by the fitness each would have
// returned: for every (tenant, verdict≠admit) group in the decision
// trace it clones the report, converts those refusals to completions
// (latency percentiles stay factual — unrun ops have no latencies), and
// re-scores under the same spec. The top k gains, largest first (ties by
// tenant then verdict), name the overload decisions that cost the most.
func Counterfactual(rep *fleet.Report, d *overload.DecisionTrace, spec string, k int) ([]What, error) {
	base, err := Eval(rep, spec)
	if err != nil {
		return nil, err
	}
	if d == nil {
		return nil, fmt.Errorf("fitness: counterfactual needs a decision trace")
	}
	var out []What
	for _, c := range d.Counts() {
		// Only refusal verdicts have a counterfactual: admits already
		// completed, and rebalance entries are placement moves, not
		// refused work.
		if c.Key.Verdict == overload.VerdictAdmit || c.Key.Verdict == overload.VerdictRebalance || c.Count == 0 {
			continue
		}
		alt := *rep
		alt.Tenants = append([]fleet.TenantReport(nil), rep.Tenants...)
		found := false
		for i := range alt.Tenants {
			t := &alt.Tenants[i]
			if t.Name != c.Key.Tenant {
				continue
			}
			found = true
			n := c.Count
			switch c.Key.Verdict {
			case overload.VerdictThrottle:
				n = min(n, t.Throttled)
				t.Throttled -= n
			case overload.VerdictQuarantine:
				n = min(n, t.BreakerShed)
				t.BreakerShed -= n
			case overload.VerdictShed:
				n = min(n, t.Shed)
				t.Shed -= n
			case overload.VerdictDrop:
				n = min(n, t.Dropped)
				t.Dropped -= n
			case overload.VerdictBusy:
				n = min(n, t.Busied)
				t.Busied -= n
			}
			t.Completed += n
			if alt.Duration > 0 {
				t.GoodputOPS = float64(t.Completed) * 1e9 / float64(alt.Duration)
			}
		}
		if !found {
			continue // decisions for tenants outside this report
		}
		s, err := Eval(&alt, spec)
		if err != nil {
			return nil, err
		}
		out = append(out, What{
			Tenant:  c.Key.Tenant,
			Verdict: c.Key.Verdict,
			Count:   c.Count,
			Fitness: s.Total,
			Gain:    s.Total - base.Total,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Gain != out[j].Gain {
			return out[i].Gain > out[j].Gain
		}
		if out[i].Tenant != out[j].Tenant {
			return out[i].Tenant < out[j].Tenant
		}
		return out[i].Verdict < out[j].Verdict
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out, nil
}

// CounterfactualTable renders a top-K counterfactual ranking (a
// golden-file artefact).
func CounterfactualTable(whats []What, base *Score) *stats.Table {
	t := stats.NewTable(fmt.Sprintf("Counterfactuals vs fitness %.4f", base.Total),
		"Tenant", "Verdict", "Refused", "Fitness", "Gain")
	for _, w := range whats {
		t.AddRow(w.Tenant, w.Verdict.String(), w.Count,
			fmt.Sprintf("%.4f", w.Fitness), fmt.Sprintf("%+.4f", w.Gain))
	}
	if len(whats) == 0 {
		t.AddNote("no refusals recorded: every arrival was admitted")
	}
	return t
}
