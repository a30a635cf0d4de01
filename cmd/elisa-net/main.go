// Command elisa-net runs the HyperNF-style VM networking use case
// (paper §7.1) for one scheme/scenario/packet-size combination, or the
// full sweep.
//
// Usage:
//
//	elisa-net -scenario rx -scheme elisa -size 64
//	elisa-net -scenario vv -sweep
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"github.com/elisa-go/elisa/internal/stats"
	"github.com/elisa-go/elisa/internal/vnet"
	"github.com/elisa-go/elisa/internal/workload"
)

func main() {
	var (
		scenario = flag.String("scenario", "rx", "rx | tx | vv (VM-to-VM)")
		scheme   = flag.String("scheme", "elisa", "ivshmem | vmcall | elisa | vhost-net | sriov")
		size     = flag.Int("size", 64, "packet size in bytes")
		packets  = flag.Int("packets", 10000, "packets to move")
		sweep    = flag.Bool("sweep", false, "run every scheme and packet size")
	)
	flag.Parse()
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := checkFlags(*scenario, *scheme, *size, *packets, *sweep, set); err != nil {
		fmt.Fprintf(os.Stderr, "elisa-net: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*scenario, *scheme, *size, *packets, *sweep); err != nil {
		fmt.Fprintln(os.Stderr, "elisa-net:", err)
		os.Exit(1)
	}
}

// checkFlags refuses flag values the run would fail on or quietly
// ignore: a scenario or scheme vnet does not have, a packet size no
// frame holds, no packets to move, or a -size or -scheme given with
// -sweep, which runs every size and scheme. set names the flags given
// on the command line. main reports its error as a usage error (exit
// status 2).
func checkFlags(scenario, scheme string, size, packets int, sweep bool, set map[string]bool) error {
	switch {
	case scenario != "rx" && scenario != "tx" && scenario != "vv":
		return fmt.Errorf("-scenario %q: must be rx, tx or vv", scenario)
	case !slices.Contains(vnet.Schemes, scheme):
		return fmt.Errorf("-scheme %q: must be one of %s", scheme, strings.Join(vnet.Schemes, ", "))
	case size <= 0 || size > vnet.SlotBytes:
		return fmt.Errorf("-size %d: must be in (0,%d]", size, vnet.SlotBytes)
	case packets < 1:
		return fmt.Errorf("-packets %d: must be at least 1", packets)
	case sweep && set["size"]:
		return fmt.Errorf("-size %d: -sweep runs every packet size", size)
	case sweep && set["scheme"]:
		return fmt.Errorf("-scheme %q: -sweep runs every scheme", scheme)
	}
	return nil
}

func measure(scenario, scheme string, size, packets int) (*vnet.Result, error) {
	switch scenario {
	case "rx":
		_, nic, b, err := vnet.BuildBackend(scheme)
		if err != nil {
			return nil, err
		}
		return vnet.RunRX(nic, b, size, packets)
	case "tx":
		_, nic, b, err := vnet.BuildBackend(scheme)
		if err != nil {
			return nil, err
		}
		return vnet.RunTX(nic, b, size, packets)
	case "vv":
		p, err := vnet.BuildVVPath(scheme)
		if err != nil {
			return nil, err
		}
		return vnet.RunVV(p, size, packets)
	default:
		return nil, fmt.Errorf("unknown scenario %q", scenario)
	}
}

func run(scenario, scheme string, size, packets int, sweep bool) error {
	if !sweep {
		res, err := measure(scenario, scheme, size, packets)
		if err != nil {
			return err
		}
		fmt.Printf("%s %s %dB: %.2f Mpps (%d packets in %v simulated)\n",
			scheme, scenario, size, res.Mpps, res.Packets, res.Elapsed)
		return nil
	}
	headers := []string{"Scheme"}
	for _, s := range workload.PacketSizes {
		headers = append(headers, fmt.Sprintf("%dB", s))
	}
	t := stats.NewTable(fmt.Sprintf("VM networking %s sweep [Mpps]", scenario), headers...)
	for _, sch := range vnet.Schemes {
		row := []any{sch}
		for _, sz := range workload.PacketSizes {
			res, err := measure(scenario, sch, sz, packets)
			if err != nil {
				return err
			}
			row = append(row, res.Mpps)
		}
		t.AddRow(row...)
	}
	fmt.Print(t.String())
	return nil
}
