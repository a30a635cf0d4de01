package kvs

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/elisa-go/elisa/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenLayouts are the table geometries the KV golden walks: the one the
// experiments use, and a 64-bucket table whose 48 keys collide and whose
// deleted keys leave tombstones for every later probe to pass through.
var goldenLayouts = []struct {
	name string
	l    Layout
}{
	{"default", DefaultLayout},
	{"small", Layout{Buckets: 64, KeySize: 32, ValSize: 256}},
}

// kvWalk renders every KV path's simulated bytes: per driver step its
// Result, then each client VM's clock and counters.
type kvWalk struct {
	t   *testing.T
	out bytes.Buffer
}

func (w *kvWalk) must(err error) {
	w.t.Helper()
	if err != nil {
		w.t.Fatal(err)
	}
}

func (w *kvWalk) clients(c *Cluster) {
	for i, cl := range c.clients {
		fmt.Fprintf(&w.out, "  vm %d: now=%d %+v\n", i, cl.Clock().Now(), VCPUOf(cl).Stats())
	}
}

func (w *kvWalk) result(step string, c *Cluster, r *Result, err error) {
	w.t.Helper()
	w.must(err)
	fmt.Fprintf(&w.out, "%s: scheme=%s vms=%d ops=%d agg=%v per-vm=%v latency count=%d p50=%d p99=%d max=%d\n",
		step, r.Scheme, r.VMs, r.Ops, r.AggMops, r.PerVMMops,
		r.Latency.Count(), r.Latency.Percentile(0.50), r.Latency.Percentile(0.99), r.Latency.Max())
	w.clients(c)
}

// walk drives one cluster through every driver entry point. Of 48 keys,
// the last 16 are preloaded and then deleted before the runs, so GETs
// probe past their tombstones and PUTs re-insert into them.
func (w *kvWalk) walk(scheme string, vms int, l Layout) {
	c, err := BuildCluster(scheme, vms, l)
	w.must(err)
	const live, doomed, ops = 32, 16, 300
	keys := makeKeys(live + doomed)
	val := make([]byte, 200)
	workload.FillPattern(val, 7)
	w.must(c.Preload(keys, val))
	fmt.Fprintf(&w.out, "preload %d keys\n", len(keys))
	w.clients(c)

	existed := 0
	for k, key := range keys[live:] {
		// Every VM deletes its share; the doomed key's second delete
		// reports it gone.
		cl := c.clients[k%vms]
		for range 2 {
			ok, err := cl.Delete(key)
			w.must(err)
			if ok {
				existed++
			}
		}
	}
	fmt.Fprintf(&w.out, "delete %d keys twice: existed=%d\n", doomed, existed)
	w.clients(c)

	choosers := func(seed int64, n int) []workload.KeyChooser {
		cs := make([]workload.KeyChooser, vms)
		for i := range cs {
			cs[i], err = workload.NewUniform(seed+int64(i), n)
			w.must(err)
		}
		return cs
	}
	r, err := c.RunGets(ops, keys, choosers(10, live))
	w.result("gets", c, r, err)
	r, err = c.RunPuts(ops, keys, choosers(20, len(keys)), val)
	w.result("puts", c, r, err)
	for _, ratio := range []float64{0.5, 0.95} {
		mixes := make([]*workload.Mix, vms)
		zipfs := make([]workload.KeyChooser, vms)
		for i := range mixes {
			mixes[i], err = workload.NewMix(int64(30+i), ratio)
			w.must(err)
			zipfs[i], err = workload.NewZipf(int64(40+i), len(keys), 0.99)
			w.must(err)
		}
		r, err = c.RunMixed(ops, keys, zipfs, mixes, val)
		w.result(fmt.Sprintf("mixed %v", ratio), c, r, err)
	}
}

// refusals sends an over-long key through GET, PUT and DELETE and an
// over-long value through PUT on a fresh client, then renders the clock:
// a refused request must fail before it opens the store view.
func (w *kvWalk) refusals(scheme string, l Layout) {
	c, err := BuildCluster(scheme, 1, l)
	w.must(err)
	cl := c.clients[0]
	longKey := bytes.Repeat([]byte{'k'}, l.KeySize+1)
	val := make([]byte, l.ValSize)
	if _, err := cl.Get(longKey, val); err == nil {
		w.t.Errorf("%s: GET of a %d-byte key accepted", scheme, len(longKey))
	}
	if _, err := cl.Put(longKey, val); err == nil {
		w.t.Errorf("%s: PUT of a %d-byte key accepted", scheme, len(longKey))
	}
	if _, err := cl.Delete(longKey); err == nil {
		w.t.Errorf("%s: DELETE of a %d-byte key accepted", scheme, len(longKey))
	}
	if _, err := cl.Put([]byte("key"), make([]byte, l.ValSize+1)); err == nil {
		w.t.Errorf("%s: PUT of a %d-byte value accepted", scheme, l.ValSize+1)
	}
	fmt.Fprintf(&w.out, "refusals %s\n", scheme)
	w.clients(c)
}

// TestKVPathsGolden pins the simulated bytes of every KV path: each
// sharing scheme at 1 and 3 VMs over both golden layouts through
// Preload, a DELETE round, RunGets, RunPuts and RunMixed at two read
// ratios, plus the refusal of over-long keys and values. A refactor of
// the clients, handlers or driver must reproduce it exactly (run with
// -update only for an explained move).
func TestKVPathsGolden(t *testing.T) {
	w := &kvWalk{t: t}
	for _, gl := range goldenLayouts {
		for _, scheme := range KVSchemes {
			for _, vms := range []int{1, 3} {
				fmt.Fprintf(&w.out, "== %s layout, %s, %d VMs\n", gl.name, scheme, vms)
				w.walk(scheme, vms, gl.l)
			}
			w.refusals(scheme, gl.l)
		}
	}
	got := w.out.Bytes()
	golden := filepath.Join("testdata", "paths.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("KV paths drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
