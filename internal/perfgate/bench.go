// Package perfgate is the continuous-performance trajectory of the
// repository: schema-versioned BENCH_<n>.json snapshots recording, for
// every bench kernel, the *simulated* figure of merit (ops per simulated
// second — deterministic, so tight thresholds hold) and the *simulator's*
// own efficiency (wall-clock ns per simulated second, allocations per
// op, and the heap bytes and wall time of fixture setup —
// hardware-dependent, so thresholds are generous), plus the
// comparator elisa-benchdiff runs in CI to fail the build on regressions
// in either dimension.
package perfgate

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
)

// SchemaVersion is the BENCH_<n>.json schema this package writes.
// Schema 2 added the setup fields; a schema-1 file reads them as 0.
// Readers reject any other version rather than guessing.
const SchemaVersion = 2

// knownSchema reports whether Read and Diff understand schema v.
func knownSchema(v int) bool { return v == 1 || v == SchemaVersion }

// KernelResult is one kernel's measurements in a Bench snapshot.
type KernelResult struct {
	// ID and Title identify the kernel (see Kernels).
	ID    string `json:"id"`
	Title string `json:"title"`
	// SimOps is the fixed operation count the kernel ran; SimElapsedNS
	// is the simulated time those ops consumed. Both are deterministic:
	// the same code and seed reproduce them bit-for-bit.
	SimOps       int64 `json:"sim_ops"`
	SimElapsedNS int64 `json:"sim_elapsed_ns"`
	// SimOpsPerSec is the simulated figure of merit: SimOps over the
	// simulated elapsed seconds.
	SimOpsPerSec float64 `json:"sim_ops_per_sec"`
	// WallNsPerSimSec measures the simulator itself: host wall-clock
	// nanoseconds spent per simulated second. Hardware-dependent.
	WallNsPerSimSec float64 `json:"wall_ns_per_sim_sec"`
	// AllocsPerOp is heap allocations per operation (testing.B-style
	// Mallocs-delta accounting). Near-deterministic for a fixed runtime.
	AllocsPerOp float64 `json:"allocs_per_op"`
	// SetupBytes and SetupWallNS are the heap bytes allocated and the
	// wall-clock time spent building the kernel's fixture (Prepare):
	// boot cost, which the per-op figures above leave out. Schema 2.
	SetupBytes  int64 `json:"setup_bytes"`
	SetupWallNS int64 `json:"setup_wall_ns"`
}

// Bench is one BENCH_<n>.json snapshot.
type Bench struct {
	// Schema is the file-format version (SchemaVersion).
	Schema int `json:"schema"`
	// Quick reports whether kernels ran at quick (CI) scale. Diff
	// refuses to compare quick against full runs.
	Quick bool `json:"quick"`
	// Kernels holds one result per kernel, in registry order.
	Kernels []KernelResult `json:"kernels"`
}

// Kernel looks up one kernel's result by ID.
func (b *Bench) Kernel(id string) (KernelResult, bool) {
	for _, k := range b.Kernels {
		if k.ID == id {
			return k, true
		}
	}
	return KernelResult{}, false
}

// Write marshals a snapshot to path (indented, trailing newline), so
// committed baselines diff cleanly.
func Write(path string, b *Bench) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Read unmarshals a snapshot and validates its schema version.
func Read(path string) (*Bench, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Bench
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("perfgate: %s: %w", path, err)
	}
	if !knownSchema(b.Schema) {
		return nil, fmt.Errorf("perfgate: %s: schema %d, this tool reads 1 and %d", path, b.Schema, SchemaVersion)
	}
	return &b, nil
}

var benchName = regexp.MustCompile(`^BENCH_(\d+)\.json$`)

// Trajectory lists dir's BENCH_<n>.json files in ascending n order.
func Trajectory(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	type numbered struct {
		n    int
		name string
	}
	var found []numbered
	for _, e := range ents {
		m := benchName.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		var n int
		fmt.Sscanf(m[1], "%d", &n)
		found = append(found, numbered{n, e.Name()})
	}
	sort.Slice(found, func(i, j int) bool { return found[i].n < found[j].n })
	out := make([]string, len(found))
	for i, f := range found {
		out[i] = filepath.Join(dir, f.name)
	}
	return out, nil
}

// NextPath returns the next unused BENCH_<n>.json path in dir (the
// trajectory append point): BENCH_0.json in an empty dir, then one past
// the highest existing index.
func NextPath(dir string) (string, error) {
	existing, err := Trajectory(dir)
	if err != nil {
		return "", err
	}
	next := 0
	if len(existing) > 0 {
		last := filepath.Base(existing[len(existing)-1])
		m := benchName.FindStringSubmatch(last)
		fmt.Sscanf(m[1], "%d", &next)
		next++
	}
	return filepath.Join(dir, fmt.Sprintf("BENCH_%d.json", next)), nil
}
