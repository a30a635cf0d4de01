package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/elisa-go/elisa/internal/perfgate"
)

func snap(t *testing.T, dir, name string, simOps float64, allocs float64) string {
	t.Helper()
	b := &perfgate.Bench{
		Schema: perfgate.SchemaVersion,
		Quick:  true,
		Kernels: []perfgate.KernelResult{
			{ID: "call_rtt", Title: "t", SimOps: 500, SimElapsedNS: 98_000,
				SimOpsPerSec: simOps, WallNsPerSimSec: 1e9, AllocsPerOp: allocs},
		},
	}
	path := filepath.Join(dir, name)
	if err := perfgate.Write(path, b); err != nil {
		t.Fatal(err)
	}
	return path
}

// The acceptance bar: elisa-benchdiff must exit non-zero on a synthetic
// regression and zero on a clean comparison.
func TestBenchdiffExitCodes(t *testing.T) {
	dir := t.TempDir()
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()

	base := snap(t, dir, "BENCH_0.json", 5.1e6, 3)
	same := snap(t, dir, "BENCH_1.json", 5.1e6, 3)
	worse := snap(t, dir, "BENCH_2.json", 4.0e6, 3) // -22% sim ops
	better := snap(t, dir, "BENCH_3.json", 9.0e6, 1)

	if code := run([]string{base, same}, devnull, devnull); code != 0 {
		t.Errorf("identical snapshots exited %d, want 0", code)
	}
	if code := run([]string{base, worse}, devnull, devnull); code != 1 {
		t.Errorf("synthetic regression exited %d, want 1", code)
	}
	if code := run([]string{base, better}, devnull, devnull); code != 0 {
		t.Errorf("improvement exited %d, want 0", code)
	}
	// A looser threshold waves the same regression through.
	if code := run([]string{"-sim-threshold", "0.5", base, worse}, devnull, devnull); code != 0 {
		t.Errorf("regression within loosened threshold exited %d, want 0", code)
	}
}

func TestBenchdiffUsageAndBadInput(t *testing.T) {
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	if code := run(nil, devnull, devnull); code != 2 {
		t.Errorf("no args exited %d, want 2", code)
	}
	if code := run([]string{"nope.json", "nada.json"}, devnull, devnull); code != 2 {
		t.Errorf("missing files exited %d, want 2", code)
	}
	dir := t.TempDir()
	quick := snap(t, dir, "q.json", 5e6, 3)
	full := filepath.Join(dir, "f.json")
	b, _ := perfgate.Read(quick)
	b.Quick = false
	if err := perfgate.Write(full, b); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{quick, full}, devnull, devnull); code != 2 {
		t.Errorf("quick/full mismatch exited %d, want 2", code)
	}
}

// capture runs benchdiff with stdout tee'd to a file and returns the
// exit code plus everything it printed.
func capture(t *testing.T, argv []string) (int, string) {
	t.Helper()
	out, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	code := run(argv, out, out)
	data, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return code, string(data)
}

// A quick baseline against a full current snapshot is a usage error
// (exit 2) unless -allow-quick-mismatch opts in, and the comparison mode
// is recorded in the output either way.
func TestBenchdiffQuickMismatchEscapeHatch(t *testing.T) {
	dir := t.TempDir()
	quick := snap(t, dir, "q.json", 5e6, 3)
	full := filepath.Join(dir, "f.json")
	b, err := perfgate.Read(quick)
	if err != nil {
		t.Fatal(err)
	}
	b.Quick = false
	if err := perfgate.Write(full, b); err != nil {
		t.Fatal(err)
	}

	code, out := capture(t, []string{quick, full})
	if code != 2 {
		t.Errorf("mismatch without flag exited %d, want 2", code)
	}
	if !strings.Contains(out, "scale mismatch") || !strings.Contains(out, "-allow-quick-mismatch") {
		t.Errorf("mismatch error does not name the escape hatch: %q", out)
	}

	code, out = capture(t, []string{"-allow-quick-mismatch", quick, full})
	if code != 0 {
		t.Errorf("identical figures with flag exited %d, want 0", code)
	}
	if !strings.Contains(out, "quick-baseline vs full-current, mismatch allowed") {
		t.Errorf("allowed comparison does not record the mode: %q", out)
	}

	// The flag only waives the scale check, not the metric gates.
	worse := filepath.Join(dir, "w.json")
	b.Kernels[0].SimOpsPerSec *= 0.5
	if err := perfgate.Write(worse, b); err != nil {
		t.Fatal(err)
	}
	if code, _ := capture(t, []string{"-allow-quick-mismatch", quick, worse}); code != 1 {
		t.Errorf("regression under allowed mismatch exited %d, want 1", code)
	}

	// A matched comparison records its scale too.
	same := snap(t, dir, "q2.json", 5e6, 3)
	if _, out := capture(t, []string{quick, same}); !strings.Contains(out, "[quick]") {
		t.Errorf("matched comparison does not record the mode: %q", out)
	}
}

// A committed schema-1 baseline gates a schema-2 snapshot on the fields
// both share; a foreign schema is a usage error.
func TestBenchdiffSchema1Baseline(t *testing.T) {
	dir := t.TempDir()
	v1 := filepath.Join(dir, "BENCH_3.json")
	if err := os.WriteFile(v1, []byte(`{"schema": 1, "quick": true, "kernels": [
  {"id": "call_rtt", "title": "t", "sim_ops": 500, "sim_elapsed_ns": 98000, "sim_ops_per_sec": 5.1e6, "wall_ns_per_sim_sec": 1e9, "allocs_per_op": 3}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	same := snap(t, dir, "BENCH_4.json", 5.1e6, 3)
	worse := snap(t, dir, "BENCH_5.json", 4.0e6, 3)
	if code, out := capture(t, []string{v1, same}); code != 0 {
		t.Errorf("schema 1 vs 2 exited %d, want 0: %s", code, out)
	}
	if code, out := capture(t, []string{v1, worse}); code != 1 {
		t.Errorf("regression across schemas exited %d, want 1: %s", code, out)
	}
	foreign := filepath.Join(dir, "BENCH_9.json")
	if err := os.WriteFile(foreign, []byte(`{"schema": 99, "quick": true, "kernels": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, out := capture(t, []string{v1, foreign}); code != 2 || !strings.Contains(out, "schema") {
		t.Errorf("foreign schema exited %d, want 2 naming the schema: %s", code, out)
	}
}
