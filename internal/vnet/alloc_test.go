package vnet

import (
	"math"
	"testing"
)

// TestRunAllocsFlat: on the paths with no per-batch hypercall (ivshmem,
// ELISA and SR-IOV) the NIC, backends, services and VM-to-VM paths reuse
// their frame scratch, so RunRX, RunTX and RunVV make as many mallocs
// for 4,000 packets as for 400: the allocations are per run, not per
// batch. Each side is the least of three measurements: a stray malloc of
// the runtime's own (the race detector's, a GC cycle starting) only ever
// adds to one, while a malloc per batch adds to all three.
func TestRunAllocsFlat(t *testing.T) {
	const size = 64
	for _, scheme := range []string{"ivshmem", "elisa", "sriov"} {
		runs := []struct {
			name string
			run  func(packets int) func()
		}{
			{"RunRX", func(packets int) func() {
				_, nic, b, err := BuildBackend(scheme)
				if err != nil {
					t.Fatal(err)
				}
				return func() {
					if _, err := RunRX(nic, b, size, packets); err != nil {
						t.Fatal(err)
					}
				}
			}},
			{"RunTX", func(packets int) func() {
				_, nic, b, err := BuildBackend(scheme)
				if err != nil {
					t.Fatal(err)
				}
				return func() {
					if _, err := RunTX(nic, b, size, packets); err != nil {
						t.Fatal(err)
					}
				}
			}},
			{"RunVV", func(packets int) func() {
				p, err := BuildVVPath(scheme)
				if err != nil {
					t.Fatal(err)
				}
				return func() {
					if _, err := RunVV(p, size, packets); err != nil {
						t.Fatal(err)
					}
				}
			}},
		}
		for _, r := range runs {
			mallocs := func(packets int) float64 {
				least := math.Inf(1)
				for range 3 {
					least = math.Min(least, testing.AllocsPerRun(1, r.run(packets)))
				}
				return least
			}
			few, many := mallocs(400), mallocs(4000)
			if few != many {
				t.Errorf("%s %s: %v mallocs for 400 packets, %v for 4000", scheme, r.name, few, many)
			}
		}
	}
}
