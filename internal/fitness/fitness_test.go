package fitness

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"github.com/elisa-go/elisa/internal/fleet"
	"github.com/elisa-go/elisa/internal/overload"
	"github.com/elisa-go/elisa/internal/simtime"
)

var update = flag.Bool("update", false, "rewrite golden files")

// synthReport is a hand-built two-tenant report with every refusal
// flavour populated — deterministic input for the golden renderings.
func synthReport() *fleet.Report {
	return &fleet.Report{
		Duration: simtime.Millisecond,
		Cores:    2,
		Tenants: []fleet.TenantReport{
			{
				Name: "web", Class: 2, Weight: 4,
				Submitted: 1000, Completed: 850, Dropped: 40, Shed: 60, Throttled: 50,
				GoodputOPS: 850_000_000, P50: 2_000, P99: 30_000, MaxQueue: 12,
			},
			{
				Name: "batch", Class: 0, Weight: 1,
				Submitted: 500, Completed: 300, Dropped: 120, BreakerShed: 30, Busied: 50,
				GoodputOPS: 300_000_000, P50: 5_000, P99: 90_000, MaxQueue: 31,
			},
		},
	}
}

// synthDecisions mirrors synthReport's refusal counters as a decision
// trace (counts are what the counterfactual consumes).
func synthDecisions() *overload.DecisionTrace {
	d := overload.NewDecisionTrace(0)
	rec := func(tenant string, v overload.Verdict, class int, n int) {
		for i := 0; i < n; i++ {
			d.Record(simtime.Time(i), d.Tenant(tenant), v, class, overload.NoteNone)
		}
	}
	rec("web", overload.VerdictAdmit, 2, 850)
	rec("web", overload.VerdictDrop, 2, 40)
	rec("web", overload.VerdictShed, 2, 60)
	rec("web", overload.VerdictThrottle, 2, 50)
	rec("batch", overload.VerdictAdmit, 0, 300)
	rec("batch", overload.VerdictDrop, 0, 120)
	rec("batch", overload.VerdictQuarantine, 0, 30)
	rec("batch", overload.VerdictBusy, 0, 50)
	return d
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to cut the golden)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from golden; run with -update if intentional\n--- got\n%s\n--- want\n%s", name, got, want)
	}
}

// TestFitnessParseWeights: the spec grammar and its refusals.
func TestFitnessParseWeights(t *testing.T) {
	ws, err := ParseWeights("goodput:0.5,p99:0.3,drops:0.2")
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 3 || ws[0].Metric != "goodput" || ws[1].Weight != 0.3 || ws[2].Metric != "drops" {
		t.Fatalf("parsed %+v", ws)
	}
	for _, bad := range []string{
		"", "goodput", "goodput:", "goodput:0", "goodput:-1", "goodput:x",
		"latency:1", "goodput:1,goodput:2",
	} {
		if _, err := ParseWeights(bad); err == nil {
			t.Errorf("%q: accepted", bad)
		}
	}
}

// TestFitnessParseWeightsRefusesNonFinite: a NaN weight passes a
// `<= 0` check, and an infinite one swamps every other metric.
func TestFitnessParseWeightsRefusesNonFinite(t *testing.T) {
	for _, bad := range []string{
		"goodput:NaN", "p99:Inf", "drops:+Inf", "goodput:0.5,p50:infinity",
	} {
		if _, err := ParseWeights(bad); err == nil {
			t.Errorf("%q: accepted", bad)
		}
	}
}

// TestFitnessEvalMonotone: fitness moves the right way — more
// completions raise it, more refusals and worse tails lower it.
func TestFitnessEvalMonotone(t *testing.T) {
	const spec = "goodput:0.5,p99:0.3,drops:0.2"
	base, err := Eval(synthReport(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if base.Total <= 0 || base.Total >= 1 {
		t.Fatalf("total %v outside (0,1)", base.Total)
	}
	better := synthReport()
	better.Tenants[1].Completed += 120
	better.Tenants[1].Dropped -= 120
	b, _ := Eval(better, spec)
	if b.Total <= base.Total {
		t.Fatalf("recovering drops did not raise fitness: %v <= %v", b.Total, base.Total)
	}
	worse := synthReport()
	worse.Tenants[0].P99 = 900_000
	w, _ := Eval(worse, spec)
	if w.Total >= base.Total {
		t.Fatalf("a worse tail did not lower fitness: %v >= %v", w.Total, base.Total)
	}
	if _, err := Eval(nil, spec); err == nil {
		t.Fatal("nil report accepted")
	}
}

// TestFitnessEvalGolden pins the rendered fitness table for the
// synthetic report.
func TestFitnessEvalGolden(t *testing.T) {
	sc, err := Eval(synthReport(), "goodput:0.5,p99:0.3,drops:0.2")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fitness_report.golden", []byte(sc.Table("Fitness: synthetic scenario").String()))
}

// TestFitnessCounterfactualGolden pins the rendered top-K counterfactual
// ranking, and checks the ranking logic: the largest refusal group with
// the cheapest recovery ranks first, and every gain is non-negative.
func TestFitnessCounterfactualGolden(t *testing.T) {
	const spec = "goodput:0.5,p99:0.3,drops:0.2"
	rep, d := synthReport(), synthDecisions()
	base, err := Eval(rep, spec)
	if err != nil {
		t.Fatal(err)
	}
	whats, err := Counterfactual(rep, d, spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(whats) != 3 {
		t.Fatalf("top-3 returned %d rows", len(whats))
	}
	if whats[0].Tenant != "batch" || whats[0].Verdict != overload.VerdictDrop {
		t.Fatalf("largest refusal group should rank first, got %+v", whats[0])
	}
	for _, w := range whats {
		if w.Gain < 0 {
			t.Fatalf("negative gain: %+v", w)
		}
	}
	checkGolden(t, "fitness_counterfactual.golden",
		[]byte(CounterfactualTable(whats, base).String()))
	if _, err := Counterfactual(rep, nil, spec, 3); err == nil {
		t.Fatal("nil decision trace accepted")
	}
}
