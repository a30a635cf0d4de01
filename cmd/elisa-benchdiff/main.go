// Command elisa-benchdiff compares two BENCH_<n>.json performance
// snapshots (see elisa-bench -json) and exits non-zero when any metric
// regressed past its threshold — the CI perf gate.
//
// Usage:
//
//	elisa-benchdiff BENCH_0.json BENCH_1.json
//	elisa-benchdiff -sim-threshold 0.05 base.json current.json
//
// Five metrics are compared per kernel, each with its own direction:
// sim_ops_per_sec (higher is better; deterministic, tight threshold),
// allocs_per_op and setup_bytes (lower is better; generous thresholds)
// gate by default. wall_ns_per_sim_sec and setup_wall_ns swing with host
// load and hardware, so they are recorded but ungated (-wall-threshold
// opts wall_ns_per_sim_sec in). Improvements never fail the gate.
// Schema-1 and schema-2 snapshots compare with each other (the setup
// fields a schema-1 file lacks read as 0 and are skipped); any other
// schema refuses to compare. Snapshots from different -quick scales are
// a usage error (exit 2) unless -allow-quick-mismatch explicitly opts
// into the cross-scale comparison, and either way the scale mode is
// recorded in the diff output.
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/elisa-go/elisa/internal/perfgate"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main minus the process exit, so tests can drive it.
func run(argv []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("elisa-benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		simThresh   = fs.Float64("sim-threshold", 0.02, "tolerated sim_ops_per_sec drop (fraction)")
		wallThresh  = fs.Float64("wall-threshold", 0, "tolerated wall_ns_per_sim_sec growth (fraction); 0 (default) leaves wall time ungated")
		allocThresh = fs.Float64("alloc-threshold", 0.25, "tolerated allocs_per_op growth (fraction)")
		allowQuick  = fs.Bool("allow-quick-mismatch", false, "compare a quick snapshot against a full one anyway (op counts differ, so thresholds may not be meaningful)")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: elisa-benchdiff [flags] <baseline.json> <current.json>\n\nflags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	base, err := perfgate.Read(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "elisa-benchdiff: %v\n", err)
		return 2
	}
	cur, err := perfgate.Read(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(stderr, "elisa-benchdiff: %v\n", err)
		return 2
	}
	// Comparing a quick (CI-scale) snapshot against a full one is almost
	// always a harness mistake — the op counts differ, so per-op figures
	// shift for reasons that are not regressions. Without the escape
	// hatch it is a usage error; with it, the mismatch is neutralised
	// before Diff (which refuses mismatched scales itself) and the mode
	// string below records what was actually compared.
	mode := scaleName(base.Quick)
	if base.Quick != cur.Quick {
		if !*allowQuick {
			fmt.Fprintf(stderr, "elisa-benchdiff: scale mismatch: baseline is %s, current is %s (rerun both at one scale, or pass -allow-quick-mismatch)\n",
				scaleName(base.Quick), scaleName(cur.Quick))
			return 2
		}
		mode = fmt.Sprintf("%s-baseline vs %s-current, mismatch allowed", scaleName(base.Quick), scaleName(cur.Quick))
		forced := *cur
		forced.Quick = base.Quick
		cur = &forced
	}
	specs := perfgate.DefaultSpecs()
	for i := range specs {
		switch specs[i].Name {
		case "sim_ops_per_sec":
			specs[i].Threshold = *simThresh
		case "wall_ns_per_sim_sec":
			specs[i].Threshold = *wallThresh
		case "allocs_per_op":
			specs[i].Threshold = *allocThresh
		}
	}
	regs, err := perfgate.Diff(base, cur, specs)
	if err != nil {
		fmt.Fprintf(stderr, "elisa-benchdiff: %v\n", err)
		return 2
	}
	if len(regs) == 0 {
		fmt.Fprintf(stdout, "elisa-benchdiff: %s vs %s [%s]: no regressions (%d kernels)\n",
			fs.Arg(0), fs.Arg(1), mode, len(base.Kernels))
		return 0
	}
	fmt.Fprintf(stdout, "elisa-benchdiff: %s vs %s [%s]: %d regression(s):\n",
		fs.Arg(0), fs.Arg(1), mode, len(regs))
	for _, r := range regs {
		fmt.Fprintf(stdout, "  REGRESSION %s\n", r)
	}
	return 1
}

// scaleName names a snapshot's scale for mode reporting.
func scaleName(quick bool) string {
	if quick {
		return "quick"
	}
	return "full"
}
