// Command elisa-kvs runs the cross-VM in-memory key-value store use case
// (paper §7.2): N client VMs sharing one store through a chosen scheme.
//
// Usage:
//
//	elisa-kvs -scheme elisa -vms 4 -ops 5000
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/elisa-go/elisa/internal/kvs"
	"github.com/elisa-go/elisa/internal/stats"
	"github.com/elisa-go/elisa/internal/workload"
)

func main() {
	var (
		scheme = flag.String("scheme", "elisa", "sharing scheme: ivshmem | vmcall | elisa")
		vms    = flag.Int("vms", 4, "number of client VMs (1-8)")
		ops    = flag.Int("ops", 5000, "operations per VM per phase")
		keys   = flag.Int("keys", 1024, "keyspace size")
		zipf   = flag.Bool("zipf", false, "zipfian key popularity instead of uniform")
		mix    = flag.Float64("mix", -1, "read ratio for a mixed phase (e.g. 0.95); <0 skips it")
	)
	flag.Parse()
	if err := checkFlags(*vms, *ops); err != nil {
		fmt.Fprintf(os.Stderr, "elisa-kvs: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*scheme, *vms, *ops, *keys, *zipf, *mix); err != nil {
		fmt.Fprintln(os.Stderr, "elisa-kvs:", err)
		os.Exit(1)
	}
}

// checkFlags refuses flag values the run would fail on or quietly
// ignore: a client count outside [1,8], or no operations to measure. main
// reports its error as a usage error (exit status 2).
func checkFlags(vms, ops int) error {
	switch {
	case vms < 1 || vms > 8:
		return fmt.Errorf("-vms %d: must be in [1,8]", vms)
	case ops < 1:
		return fmt.Errorf("-ops %d: must be at least 1", ops)
	}
	return nil
}

func run(scheme string, vms, ops, nKeys int, zipf bool, mixRatio float64) error {
	cluster, err := kvs.BuildCluster(scheme, vms, kvs.DefaultLayout)
	if err != nil {
		return err
	}
	keys := make([][]byte, nKeys)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%08d", i))
	}
	val := make([]byte, 200)
	workload.FillPattern(val, 1)
	if err := cluster.Preload(keys, val); err != nil {
		return err
	}
	choosers := make([]workload.KeyChooser, vms)
	for i := range choosers {
		if zipf {
			choosers[i], err = workload.NewZipf(int64(i+1), nKeys, 1.1)
		} else {
			choosers[i], err = workload.NewUniform(int64(i+1), nKeys)
		}
		if err != nil {
			return err
		}
	}

	getRes, err := cluster.RunGets(ops, keys, choosers)
	if err != nil {
		return err
	}
	putRes, err := cluster.RunPuts(ops, keys, choosers, val)
	if err != nil {
		return err
	}

	t := stats.NewTable(
		fmt.Sprintf("KV store over %q, %d VMs, %d ops/VM", scheme, vms, ops),
		"Op", "Aggregate [Mops/s]", "p50 [ns]", "p99 [ns]")
	t.AddRow("GET", getRes.AggMops, getRes.Latency.Percentile(0.50), getRes.Latency.Percentile(0.99))
	t.AddRow("PUT", putRes.AggMops, putRes.Latency.Percentile(0.50), putRes.Latency.Percentile(0.99))
	if mixRatio >= 0 {
		mixes := make([]*workload.Mix, vms)
		for i := range mixes {
			if mixes[i], err = workload.NewMix(int64(i+31), mixRatio); err != nil {
				return err
			}
		}
		mixRes, err := cluster.RunMixed(ops, keys, choosers, mixes, val)
		if err != nil {
			return err
		}
		t.AddRow(fmt.Sprintf("MIX %.0f/%.0f", mixRatio*100, (1-mixRatio)*100),
			mixRes.AggMops, mixRes.Latency.Percentile(0.50), mixRes.Latency.Percentile(0.99))
	}
	fmt.Print(t.String())
	return nil
}
