// Command elisa-bench regenerates the paper's tables and figures on the
// simulated machine, and records the repository's performance trajectory
// as schema-versioned BENCH_<n>.json snapshots.
//
// Usage:
//
//	elisa-bench -list
//	elisa-bench table2 fig_net_rx
//	elisa-bench -quick all
//	elisa-bench -markdown all > results.md
//	elisa-bench -quick -json            # append BENCH_<n>.json in .
//	elisa-bench -quick -json -out B.json
//	elisa-bench -quick -json -parallel 4  # lane fan-out for parallel_fleet
//
// The -json mode runs the internal/perfgate bench kernels (not the paper
// experiments) and writes one snapshot: simulated ops/s per kernel plus
// the simulator's own wall-clock ns per simulated second, allocations
// per op, and the heap bytes and wall time of fixture setup. Compare
// snapshots with elisa-benchdiff. The -parallel flag widens the
// parallel_fleet kernel's lane fan-out: its simulated figures are
// byte-identical at any width, so only wall_ns_per_sim_sec moves.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/elisa-go/elisa/internal/experiments"
	"github.com/elisa-go/elisa/internal/perfgate"
)

func main() {
	var (
		list     = flag.Bool("list", false, "list experiment IDs and exit")
		quick    = flag.Bool("quick", false, "shrink operation counts (noisier tails, same shapes)")
		markdown = flag.Bool("markdown", false, "emit GitHub-flavoured markdown")
		jsonOut  = flag.Bool("json", false, "run the perfgate bench kernels and write a BENCH_<n>.json snapshot")
		outPath  = flag.String("out", "", "with -json: exact snapshot path (default: next BENCH_<n>.json in -dir)")
		dir      = flag.String("dir", ".", "with -json: directory holding the BENCH_<n>.json trajectory")
		parallel = flag.Int("parallel", 0, "with -json: lane fan-out for the parallel_fleet kernel (0 = min(4, GOMAXPROCS)); simulated figures are identical at any width, only wall-clock moves")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: %s [flags] <experiment-id>... | all\n\nflags:\n", os.Args[0])
		flag.PrintDefaults()
		fmt.Fprintf(os.Stderr, "\nexperiments:\n")
		for _, e := range experiments.All() {
			fmt.Fprintf(os.Stderr, "  %-22s %s\n", e.ID, e.Title)
		}
	}
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-22s %s\n\t\tpaper: %s\n", e.ID, e.Title, e.Paper)
		}
		return
	}

	if *jsonOut {
		if *parallel > 0 {
			perfgate.LaneParallelism = *parallel
		}
		if err := runBenchJSON(*quick, *outPath, *dir); err != nil {
			fmt.Fprintf(os.Stderr, "elisa-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	ids := flag.Args()
	if len(ids) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	if len(ids) == 1 && ids[0] == "all" {
		ids = experiments.IDs()
	}

	cfg := experiments.Config{Quick: *quick}
	failed := false
	for _, id := range ids {
		e, ok := experiments.ByID(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "elisa-bench: unknown experiment %q (try -list)\n", id)
			failed = true
			continue
		}
		start := time.Now()
		tbl, err := e.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "elisa-bench: %s: %v\n", id, err)
			failed = true
			continue
		}
		if *markdown {
			fmt.Println(tbl.Markdown())
			fmt.Printf("*paper: %s — ran in %v*\n\n", e.Paper, time.Since(start).Round(time.Millisecond))
		} else {
			fmt.Print(tbl.String())
			fmt.Printf("paper: %s\n(ran in %v)\n\n", e.Paper, time.Since(start).Round(time.Millisecond))
		}
	}
	if failed {
		os.Exit(1)
	}
}

// runBenchJSON runs every perfgate kernel and writes one snapshot.
func runBenchJSON(quick bool, outPath, dir string) error {
	b, err := perfgate.MeasureAll(quick)
	if err != nil {
		return err
	}
	path := outPath
	if path == "" {
		if path, err = perfgate.NextPath(dir); err != nil {
			return err
		}
	}
	if err := perfgate.Write(path, b); err != nil {
		return err
	}
	fmt.Printf("wrote %s (schema %d, quick=%v)\n", path, b.Schema, b.Quick)
	for _, k := range b.Kernels {
		fmt.Printf("  %-14s %12.0f sim ops/s  %10.3g wall ns/sim s  %7.1f allocs/op  %10.3g setup B  %10.3g setup ns\n",
			k.ID, k.SimOpsPerSec, k.WallNsPerSimSec, k.AllocsPerOp, float64(k.SetupBytes), float64(k.SetupWallNS))
	}
	return nil
}
