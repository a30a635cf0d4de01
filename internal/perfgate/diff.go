package perfgate

import (
	"fmt"
	"strings"
)

// Direction says which way a metric is allowed to move.
type Direction int

// Metric directions.
const (
	// HigherIsBetter flags a regression when the metric drops.
	HigherIsBetter Direction = iota
	// LowerIsBetter flags a regression when the metric rises.
	LowerIsBetter
)

// String names the direction for reports.
func (d Direction) String() string {
	if d == HigherIsBetter {
		return "higher-is-better"
	}
	return "lower-is-better"
}

// MetricSpec is one compared metric: how to read it off a KernelResult,
// which direction is good, and how much relative movement the gate
// tolerates before failing.
type MetricSpec struct {
	// Name is the metric's JSON field name, used in reports.
	Name string
	// Get extracts the metric from a result.
	Get func(KernelResult) float64
	// Dir is the direction of goodness.
	Dir Direction
	// Threshold is the tolerated relative regression (0.02 = 2%).
	Threshold float64
}

// DefaultSpecs is the CI gate's metric set. The simulated ops rate is
// deterministic, so its threshold is tight; allocations, per op and in
// setup, are stable enough for a generous gate. Wall time, per
// simulated second and in setup, swings by orders of magnitude with host
// load and hardware (a baseline committed from one machine is compared
// on another in CI), so it ships with Threshold 0 — recorded in every
// snapshot for the trajectory, but not gated unless a threshold is set
// explicitly.
func DefaultSpecs() []MetricSpec {
	return []MetricSpec{
		{Name: "sim_ops_per_sec", Get: func(r KernelResult) float64 { return r.SimOpsPerSec }, Dir: HigherIsBetter, Threshold: 0.02},
		{Name: "wall_ns_per_sim_sec", Get: func(r KernelResult) float64 { return r.WallNsPerSimSec }, Dir: LowerIsBetter, Threshold: 0},
		{Name: "allocs_per_op", Get: func(r KernelResult) float64 { return r.AllocsPerOp }, Dir: LowerIsBetter, Threshold: 0.25},
		{Name: "setup_bytes", Get: func(r KernelResult) float64 { return float64(r.SetupBytes) }, Dir: LowerIsBetter, Threshold: 0.25},
		{Name: "setup_wall_ns", Get: func(r KernelResult) float64 { return float64(r.SetupWallNS) }, Dir: LowerIsBetter, Threshold: 0},
	}
}

// Regression is one metric that moved the wrong way past its threshold.
type Regression struct {
	// Kernel and Metric identify what regressed.
	Kernel string
	Metric string
	// Base and Cur are the compared values; Delta is the relative change
	// signed so that positive is always worse (direction-normalised).
	Base, Cur, Delta float64
	// Threshold is the limit Delta exceeded.
	Threshold float64
}

// String renders one regression as a report line.
func (r Regression) String() string {
	return fmt.Sprintf("%s %s: %.4g -> %.4g (%+.1f%% worse, threshold %.0f%%)",
		r.Kernel, r.Metric, r.Base, r.Cur, r.Delta*100, r.Threshold*100)
}

// Diff compares a current snapshot against a baseline under specs and
// returns every regression. Schemas 1 and 2 compare with each other: a
// field a schema-1 file lacks reads as 0, and a zero baseline is
// skipped. Diff errors (rather than reporting clean) when the snapshots
// are not comparable: a foreign schema, mismatched quick/full scale, or
// a kernel present in the baseline but missing now.
func Diff(base, cur *Bench, specs []MetricSpec) ([]Regression, error) {
	if !knownSchema(base.Schema) || !knownSchema(cur.Schema) {
		return nil, fmt.Errorf("perfgate: unknown schema: baseline %d, current %d; this tool compares 1 and %d", base.Schema, cur.Schema, SchemaVersion)
	}
	if base.Quick != cur.Quick {
		return nil, fmt.Errorf("perfgate: scale mismatch: baseline quick=%v vs current quick=%v", base.Quick, cur.Quick)
	}
	if len(specs) == 0 {
		specs = DefaultSpecs()
	}
	var regs []Regression
	var missing []string
	for _, bk := range base.Kernels {
		ck, ok := cur.Kernel(bk.ID)
		if !ok {
			missing = append(missing, bk.ID)
			continue
		}
		for _, spec := range specs {
			if spec.Threshold <= 0 {
				continue // informational metric: recorded, never gated
			}
			bv, cv := spec.Get(bk), spec.Get(ck)
			if bv == 0 {
				continue // no baseline signal: relative compare undefined
			}
			// Normalise so positive delta always means "worse".
			delta := (cv - bv) / bv
			if spec.Dir == HigherIsBetter {
				delta = -delta
			}
			if delta > spec.Threshold {
				regs = append(regs, Regression{
					Kernel: bk.ID, Metric: spec.Name,
					Base: bv, Cur: cv, Delta: delta, Threshold: spec.Threshold,
				})
			}
		}
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("perfgate: kernels in baseline but not in current snapshot: %s", strings.Join(missing, ", "))
	}
	return regs, nil
}
