package main

import (
	"encoding/json"
	"io"
	"os"
	"runtime"
	"slices"
	"testing"
	"time"
)

// quickRun runs one workload at short scale for a single untraced round
// (or one untraced and one traced round).
func quickRun(t *testing.T, name string, seed int64, lanes int, trace bool) *result {
	t.Helper()
	w, ok := findBench(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	res, err := measure(w, options{
		seed: seed, seconds: 0.001, trace: trace, quick: true, lanes: lanes,
		minRounds: 1, limit: time.Minute,
	}, io.Discard)
	if err != nil {
		t.Fatalf("%s seed %d: %v", name, seed, err)
	}
	return res
}

func TestSmokeEachWorkload(t *testing.T) {
	for _, w := range benches {
		t.Run(w.name, func(t *testing.T) {
			res := quickRun(t, w.name, defaultSeed, 0, false)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(endToEnd) {
				t.Fatalf("%d metrics, want %d", len(res.Metrics), len(endToEnd))
			}
			for _, m := range endToEnd {
				v, ok := res.Metrics[m.name]
				if !ok || v.Unit != m.unit || !(v.Value > 0) {
					t.Errorf("metric %s = %+v, want a positive value in %s", m.name, v, m.unit)
				}
			}
		})
	}
}

func TestTracedRunReportsEveryLayerMetric(t *testing.T) {
	res := quickRun(t, "paper_sweep", defaultSeed, 0, true)
	if !res.Correct {
		t.Fatal("traced run failed its output checks")
	}
	if len(res.Metrics) != len(perLayer) {
		t.Fatalf("%d metrics, want %d", len(res.Metrics), len(perLayer))
	}
	for _, m := range perLayer {
		if v, ok := res.Metrics[m.name]; !ok || v.Unit != m.unit {
			t.Errorf("metric %s = %+v, want unit %s", m.name, v, m.unit)
		}
	}
	if got := res.Metrics["cluster.forced_serial_ratio"].Value; runtime.NumCPU() > 1 && got != 1 {
		t.Errorf("forced_serial_ratio = %v, want 1 with the decision trace armed", got)
	}
	if got := res.Metrics["hv.boot_share"].Value; got <= 0.5 {
		t.Errorf("hv.boot_share = %v, want boots to be most of setup", got)
	}
}

func TestSameSeedSameOutputs(t *testing.T) {
	for _, name := range []string{"kv_ycsb", "paper_sweep"} {
		a := quickRun(t, name, 7, 0, false)
		b := quickRun(t, name, 7, 0, false)
		if a.digest != b.digest {
			t.Errorf("%s: digests %s and %s differ for one seed", name, a.digest, b.digest)
		}
	}
}

// TestFleetPointIdenticalAtAnyLaneWidth runs paper_sweep, whose fleet
// point is the only lane-width-dependent code, at width 1 and wide.
func TestFleetPointIdenticalAtAnyLaneWidth(t *testing.T) {
	serial := quickRun(t, "paper_sweep", 7, 1, false)
	wide := quickRun(t, "paper_sweep", 7, max(2, runtime.NumCPU()), false)
	if serial.digest != wide.digest {
		t.Fatalf("lane width 1 digest %s, wide %s", serial.digest, wide.digest)
	}
}

func TestSecondSeedPassesEveryCheck(t *testing.T) {
	for _, w := range benches {
		res := quickRun(t, w.name, 2, 0, false)
		if !res.Correct || res.Failed != 0 {
			t.Errorf("%s seed 2: correct=%v failed=%d", w.name, res.Correct, res.Failed)
		}
		if d, _ := committedDigest(w.name, true); d == res.digest {
			t.Errorf("%s: seed 2 rendered the default seed's outputs", w.name)
		}
	}
}

func TestTracerSelfTime(t *testing.T) {
	tr := newTracer()
	tr.begin(lSetup, -1)
	tr.begin(lBoot, -1)
	time.Sleep(20 * time.Millisecond)
	tr.end()
	time.Sleep(10 * time.Millisecond)
	tr.end()
	boot, setup := tr.self[lBoot], tr.self[lSetup]
	if boot < 20*time.Millisecond || setup < 10*time.Millisecond || setup > boot {
		t.Fatalf("self times boot=%v setup=%v", boot, setup)
	}
	if len(tr.spans) != 2 || tr.spans[1].Parent != tr.spans[0].ID {
		t.Fatalf("spans %+v", tr.spans)
	}
	tr.begin(lKVGet, 1) // unsampled per-op span: timed, not kept
	tr.end()
	if len(tr.spans) != 2 || tr.calls[lKVGet] != 1 {
		t.Fatalf("per-op span kept or not counted: %d spans, %d calls", len(tr.spans), tr.calls[lKVGet])
	}
}

// TestBenchmarkJSONMatches keeps the repository's BENCHMARK.json in step
// with the workloads and metrics this program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names, want []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	for _, w := range benches {
		want = append(want, w.name)
	}
	slices.Sort(names)
	slices.Sort(want)
	if !slices.Equal(names, want) {
		t.Errorf("workloads %v, program runs %v", names, want)
	}
	check := func(kind string, got []struct{ Name, Unit string }, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: %d metrics listed, program reports %d", kind, len(got), len(defs))
			return
		}
		for i, m := range defs {
			if got[i].Name != m.name || got[i].Unit != m.unit {
				t.Errorf("%s[%d] = %s %s, program reports %s %s", kind, i, got[i].Name, got[i].Unit, m.name, m.unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
