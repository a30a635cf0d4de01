package perfgate

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// sample builds a plausible snapshot for diff tests.
func sample() *Bench {
	return &Bench{
		Schema: SchemaVersion,
		Quick:  true,
		Kernels: []KernelResult{
			{ID: "call_rtt", Title: "t", SimOps: 500, SimElapsedNS: 98_000, SimOpsPerSec: 5.1e6, WallNsPerSimSec: 2e9, AllocsPerOp: 3},
			{ID: "ring_flush", Title: "t", SimOps: 512, SimElapsedNS: 10_000, SimOpsPerSec: 5.1e7, WallNsPerSimSec: 9e9, AllocsPerOp: 1},
		},
	}
}

func TestDiffCleanOnIdenticalSnapshots(t *testing.T) {
	regs, err := Diff(sample(), sample(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Fatalf("identical snapshots regressed: %v", regs)
	}
}

// The acceptance bar: a synthetic regression must make Diff report.
// Wall time is gated here via an explicit spec — by default it is
// informational only (Threshold 0), since it tracks host speed.
func TestDiffFlagsSyntheticRegression(t *testing.T) {
	base, cur := sample(), sample()
	cur.Kernels[0].SimOpsPerSec *= 0.90  // -10% on a 2% higher-is-better gate
	cur.Kernels[1].AllocsPerOp = 2       // +100% on a 25% lower-is-better gate
	cur.Kernels[1].WallNsPerSimSec *= 10 // way past the opted-in 50% wall gate
	specs := DefaultSpecs()
	for i := range specs {
		if specs[i].Name == "wall_ns_per_sim_sec" {
			specs[i].Threshold = 0.50
		}
	}
	regs, err := Diff(base, cur, specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 3 {
		t.Fatalf("got %d regressions, want 3: %v", len(regs), regs)
	}
	byKey := map[string]Regression{}
	for _, r := range regs {
		byKey[r.Kernel+"/"+r.Metric] = r
	}
	if r, ok := byKey["call_rtt/sim_ops_per_sec"]; !ok {
		t.Error("sim ops drop not flagged")
	} else if r.Delta < 0.09 || r.Delta > 0.11 {
		t.Errorf("sim ops delta = %v, want ~0.10", r.Delta)
	}
	if _, ok := byKey["ring_flush/allocs_per_op"]; !ok {
		t.Error("alloc growth not flagged")
	}
	if r, ok := byKey["ring_flush/wall_ns_per_sim_sec"]; !ok {
		t.Error("wall growth not flagged")
	} else if !strings.Contains(r.String(), "wall_ns_per_sim_sec") {
		t.Errorf("regression line %q missing metric name", r.String())
	}
}

// Wall time per simulated second is host-dependent (baseline machine vs
// CI runner), so the default specs record it without gating it.
func TestDiffWallUngatedByDefault(t *testing.T) {
	base, cur := sample(), sample()
	cur.Kernels[0].WallNsPerSimSec *= 100 // two orders of host slowdown
	regs, err := Diff(base, cur, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Fatalf("default specs gated wall time: %v", regs)
	}
}

// Improvements in either direction never trip the gate.
func TestDiffIgnoresImprovements(t *testing.T) {
	base, cur := sample(), sample()
	cur.Kernels[0].SimOpsPerSec *= 2   // faster sim: good
	cur.Kernels[0].AllocsPerOp = 0     // fewer allocs: good
	cur.Kernels[1].WallNsPerSimSec = 1 // faster host: good
	regs, err := Diff(base, cur, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Fatalf("improvements flagged as regressions: %v", regs)
	}
}

func TestDiffRejectsMismatchedSnapshots(t *testing.T) {
	base, cur := sample(), sample()
	cur.Schema = SchemaVersion + 1
	if _, err := Diff(base, cur, nil); err == nil {
		t.Fatal("schema mismatch not rejected")
	}
	cur = sample()
	cur.Quick = false
	if _, err := Diff(base, cur, nil); err == nil {
		t.Fatal("quick/full mismatch not rejected")
	}
	cur = sample()
	cur.Kernels = cur.Kernels[:1] // drop ring_flush
	if _, err := Diff(base, cur, nil); err == nil {
		t.Fatal("missing kernel not rejected")
	}
}

// A schema-1 baseline (no setup fields) compares against a schema-2
// snapshot in either direction: the missing fields read as 0 and are
// skipped, while the fields both schemas share still gate. Setup bytes
// gate between two schema-2 snapshots; setup wall time does not.
func TestDiffSchema1AgainstSchema2(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_3.json")
	v1 := `{"schema": 1, "quick": true, "kernels": [
  {"id": "call_rtt", "title": "t", "sim_ops": 500, "sim_elapsed_ns": 98000, "sim_ops_per_sec": 5.1e6, "wall_ns_per_sim_sec": 2e9, "allocs_per_op": 3},
  {"id": "ring_flush", "title": "t", "sim_ops": 512, "sim_elapsed_ns": 10000, "sim_ops_per_sec": 5.1e7, "wall_ns_per_sim_sec": 9e9, "allocs_per_op": 1}]}`
	if err := os.WriteFile(path, []byte(v1), 0o644); err != nil {
		t.Fatal(err)
	}
	old, err := Read(path)
	if err != nil {
		t.Fatalf("schema-1 file rejected: %v", err)
	}
	if k, _ := old.Kernel("call_rtt"); k.SetupBytes != 0 || k.SetupWallNS != 0 {
		t.Fatalf("schema-1 setup fields read as %+v, want 0", k)
	}
	cur := sample()
	for i := range cur.Kernels {
		cur.Kernels[i].SetupBytes, cur.Kernels[i].SetupWallNS = 1<<20, 5e6
	}
	for _, pair := range [][2]*Bench{{old, cur}, {cur, old}} {
		if regs, err := Diff(pair[0], pair[1], nil); err != nil || len(regs) != 0 {
			t.Fatalf("schema %d vs %d: regs=%v err=%v", pair[0].Schema, pair[1].Schema, regs, err)
		}
	}
	cur.Kernels[0].SimOpsPerSec *= 0.5
	if regs, err := Diff(old, cur, nil); err != nil || len(regs) != 1 || regs[0].Metric != "sim_ops_per_sec" {
		t.Fatalf("shared field not gated across schemas: regs=%v err=%v", regs, err)
	}

	base, next := sample(), sample()
	base.Kernels[0].SetupBytes, base.Kernels[0].SetupWallNS = 1<<20, 5e6
	next.Kernels[0].SetupBytes, next.Kernels[0].SetupWallNS = 2<<20, 50e6 // +100% bytes, 10x wall
	regs, err := Diff(base, next, nil)
	if err != nil || len(regs) != 1 || regs[0].Metric != "setup_bytes" {
		t.Fatalf("setup regressions: regs=%v err=%v, want setup_bytes alone", regs, err)
	}
	foreign := sample()
	foreign.Schema = 99
	if _, err := Diff(old, foreign, nil); err == nil {
		t.Fatal("schema 99 compared against schema 1")
	}
}

// A zero baseline value (e.g. allocs_per_op already at 0) cannot divide;
// the metric is skipped rather than spuriously flagged.
func TestDiffSkipsZeroBaseline(t *testing.T) {
	base, cur := sample(), sample()
	base.Kernels[0].AllocsPerOp = 0
	cur.Kernels[0].AllocsPerOp = 5
	regs, err := Diff(base, cur, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range regs {
		if r.Metric == "allocs_per_op" && r.Kernel == "call_rtt" {
			t.Fatalf("zero-baseline metric flagged: %v", r)
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_0.json")
	b := sample()
	if err := Write(path, b); err != nil {
		t.Fatal(err)
	}
	got, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != b.Schema || got.Quick != b.Quick || len(got.Kernels) != len(b.Kernels) {
		t.Fatalf("round trip mangled snapshot: %+v", got)
	}
	if k, ok := got.Kernel("ring_flush"); !ok || k.SimOps != 512 {
		t.Fatalf("kernel lookup after round trip: %+v ok=%v", k, ok)
	}
	// Committed baselines end in a newline so they diff cleanly.
	raw, _ := os.ReadFile(path)
	if len(raw) == 0 || raw[len(raw)-1] != '\n' {
		t.Fatal("written snapshot missing trailing newline")
	}
}

func TestReadRejectsForeignSchema(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_0.json")
	if err := os.WriteFile(path, []byte(`{"schema": 99, "kernels": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(path); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("foreign schema accepted: %v", err)
	}
}

func TestTrajectoryAndNextPath(t *testing.T) {
	dir := t.TempDir()
	p, err := NextPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(p) != "BENCH_0.json" {
		t.Fatalf("empty dir next = %s", p)
	}
	for _, name := range []string{"BENCH_0.json", "BENCH_2.json", "BENCH_10.json", "notes.md", "BENCH_x.json"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("{}\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	traj, err := Trajectory(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(traj) != 3 || filepath.Base(traj[0]) != "BENCH_0.json" || filepath.Base(traj[2]) != "BENCH_10.json" {
		t.Fatalf("trajectory = %v", traj)
	}
	p, err = NextPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(p) != "BENCH_11.json" {
		t.Fatalf("next after BENCH_10 = %s", p)
	}
}

// End to end at quick scale: every kernel runs, produces sane figures,
// and the simulated half reproduces exactly.
func TestMeasureAllQuickDeterministicSimHalf(t *testing.T) {
	a, err := MeasureAll(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Kernels) != len(Kernels()) {
		t.Fatalf("measured %d kernels, registry has %d", len(a.Kernels), len(Kernels()))
	}
	for _, k := range a.Kernels {
		if k.SimOps <= 0 || k.SimElapsedNS <= 0 || k.SimOpsPerSec <= 0 {
			t.Errorf("kernel %s: degenerate sim figures %+v", k.ID, k)
		}
		if k.WallNsPerSimSec <= 0 {
			t.Errorf("kernel %s: no wall time recorded", k.ID)
		}
		if k.SetupBytes <= 0 || k.SetupWallNS <= 0 {
			t.Errorf("kernel %s: no setup cost recorded: %d B, %d ns", k.ID, k.SetupBytes, k.SetupWallNS)
		}
	}
	// The per-call kernel must sit at the paper's 196 ns figure.
	if k, ok := a.Kernel("call_rtt"); !ok {
		t.Fatal("call_rtt missing")
	} else if perCall := float64(k.SimElapsedNS) / float64(k.SimOps); perCall < 150 || perCall > 206 {
		t.Errorf("call_rtt per-call sim time = %.1f ns, want ~196", perCall)
	}
	// Batching must beat the per-call path on simulated throughput.
	rf, _ := a.Kernel("ring_flush")
	cr, _ := a.Kernel("call_rtt")
	if rf.SimOpsPerSec <= cr.SimOpsPerSec {
		t.Errorf("ring_flush (%.3g ops/s) not faster than call_rtt (%.3g ops/s)", rf.SimOpsPerSec, cr.SimOpsPerSec)
	}
	b, err := MeasureAll(true)
	if err != nil {
		t.Fatal(err)
	}
	for i, ka := range a.Kernels {
		kb := b.Kernels[i]
		if ka.SimOps != kb.SimOps || ka.SimElapsedNS != kb.SimElapsedNS {
			t.Errorf("kernel %s sim half not deterministic: %d/%d vs %d/%d",
				ka.ID, ka.SimOps, ka.SimElapsedNS, kb.SimOps, kb.SimElapsedNS)
		}
	}
}
