package kvs

import (
	"testing"

	"github.com/elisa-go/elisa/internal/workload"
)

// Zero-allocation pins for the KV datapath. Each store view owns its
// probe, padding and request-staging buffers, so a warm GET, PUT or
// DELETE makes no heap allocation through any of the three sharing
// schemes: VMCALL reuses the vCPU's exit record and ELISA the handle's
// call context. testing.AllocsPerRun disables GC pacing, so the counts
// are exact.

func TestZeroAllocClientOps(t *testing.T) {
	for _, scheme := range KVSchemes {
		t.Run(scheme, func(t *testing.T) {
			c := buildCluster(t, scheme, 1)[0]
			key := []byte("alloc-key") // shorter than KeySize: exercises padding
			val := make([]byte, 100)
			workload.FillPattern(val, 3)
			got := make([]byte, clientLayout.ValSize)
			// Warm the store view, the TLB and the gate slot.
			if _, err := c.Put(key, val); err != nil {
				t.Fatal(err)
			}
			if found, err := c.Get(key, got); err != nil || !found {
				t.Fatalf("warm get: %v %v", found, err)
			}
			if n := testing.AllocsPerRun(100, func() {
				if found, err := c.Get(key, got); err != nil || !found {
					t.Fatalf("get: %v %v", found, err)
				}
			}); n != 0 {
				t.Errorf("%s GET allocates %v per op, want 0", scheme, n)
			}
			if n := testing.AllocsPerRun(100, func() {
				if _, err := c.Put(key, val); err != nil {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Errorf("%s PUT allocates %v per op, want 0", scheme, n)
			}
			// DELETE, then the PUT that re-inserts into the tombstone.
			if n := testing.AllocsPerRun(100, func() {
				if existed, err := c.Delete(key); err != nil || !existed {
					t.Fatalf("delete: %v %v", existed, err)
				}
				if _, err := c.Put(key, val); err != nil {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Errorf("%s DELETE+insert allocates %v per op pair, want 0", scheme, n)
			}
		})
	}
}

// TestRunMixedAllocsFlat: the mixed GET/PUT driver's heap allocations do
// not grow with the op count — doubling the ops per VM makes the same
// number of mallocs, so none is made per op (client ordering included).
func TestRunMixedAllocsFlat(t *testing.T) {
	for _, scheme := range KVSchemes {
		t.Run(scheme, func(t *testing.T) {
			const vms, nkeys = 4, 256
			cl, err := BuildCluster(scheme, vms, clientLayout)
			if err != nil {
				t.Fatal(err)
			}
			keys := make([][]byte, nkeys)
			for i := range keys {
				keys[i] = []byte{'k', byte(i), byte(i >> 8)}
			}
			val := make([]byte, 64)
			if err := cl.Preload(keys, val); err != nil {
				t.Fatal(err)
			}
			choosers := make([]workload.KeyChooser, vms)
			mixes := make([]*workload.Mix, vms)
			for v := range choosers {
				if choosers[v], err = workload.NewZipf(int64(v), nkeys, 0.99); err != nil {
					t.Fatal(err)
				}
				if mixes[v], err = workload.NewMix(int64(100+v), 0.5); err != nil {
					t.Fatal(err)
				}
			}
			// The mean over five runs truncates to an integer, which
			// absorbs the odd malloc the runtime makes on its own during
			// a run; one allocation per op would add thousands.
			mallocs := func(opsPerVM int) float64 {
				return testing.AllocsPerRun(5, func() {
					if _, err := cl.RunMixed(opsPerVM, keys, choosers, mixes, val); err != nil {
						t.Fatal(err)
					}
				})
			}
			if a, b := mallocs(2000), mallocs(4000); a != b {
				t.Fatalf("RunMixed makes %v mallocs at 2000 ops per VM, %v at 4000", a, b)
			}
		})
	}
}
