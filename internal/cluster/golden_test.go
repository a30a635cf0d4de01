package cluster

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"github.com/elisa-go/elisa/internal/fleet"
	"github.com/elisa-go/elisa/internal/mem"
	"github.com/elisa-go/elisa/internal/overload"
	"github.com/elisa-go/elisa/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestRebalanceGolden pins the simulated bytes of the tenant migration
// path, which no benchmark workload exercises. Two scenarios:
//   - the committed skewed trace replayed through the 4-shard rebalancing
//     fleet with cluster-wide buckets and a decision trace armed: the
//     merged report, the controller's decisions and per-tenant moves,
//     the cluster stats and the decision summary;
//   - rb-b moved by hand A→B→A→B on 2 shards (TestMigrateTenantThereAndBack's
//     sequence): the merged report after every run and every move, then
//     after a run with a fifth tenant admitted on shard A. That tenant's
//     generated Poisson load is seeded by its join index on A, which
//     counts every tenant that ever joined A, gone or not.
//
// A refactor of Evict, Adopt or the cluster fleet must pass it without
// -update.
func TestRebalanceGolden(t *testing.T) {
	got := renderRebalance(t)
	golden := filepath.Join("testdata", "rebalance.golden")
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
		t.Errorf("migration path drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func renderRebalance(t *testing.T) []byte {
	t.Helper()
	var b bytes.Buffer
	const capOPS = 800_000.0
	global := map[string]float64{"rb-a": capOPS, "rb-b": capOPS, "rb-c": capOPS, "rb-d": capOPS}
	dec := overload.NewDecisionTrace(0)
	c, f := skewedCluster(t, 4, true, true, dec, global)
	tr, err := workload.RebalanceTrace()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := f.Replay(tr, workload.RebalanceHorizon)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "== skewed trace, 4 shards, rebalancer, global buckets, decision trace ==\n%s\n", rep.Table())
	for _, d := range f.Rebalancer().Decisions() {
		fmt.Fprintf(&b, "decision %+v\n", d)
	}
	moves := f.Rebalancer().TenantMoves()
	names := make([]string, 0, len(moves))
	for name := range moves {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&b, "moves %s %d\n", name, moves[name])
	}
	fmt.Fprintf(&b, "stats %+v\n%s", c.Stats(), dec.Summary())

	c, f = skewedCluster(t, 2, false, false, nil, nil)
	table := func(what string) {
		fmt.Fprintf(&b, "\n== hand moves, 2 shards: %s ==\n%s\n", what, f.Snapshot().Table())
	}
	run := func(what string) {
		if _, err := f.Run(100 * 1000); err != nil {
			t.Fatal(err)
		}
		table(what)
	}
	run("first run")
	for i, to := range []int{1, 0, 1} {
		if err := f.migrateTenant("rb-b", to); err != nil {
			t.Fatalf("move %d to shard %d: %v", i+1, to, err)
		}
		table(fmt.Sprintf("move %d, rb-b to shard %d", i+1, to))
		run(fmt.Sprintf("run after move %d", i+1))
	}
	if err := c.Ring().Pin("rb-obj-e", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateObject("rb-obj-e", mem.PageSize); err != nil {
		t.Fatal(err)
	}
	spec := fleet.TenantSpec{Name: "rb-e", Objects: []string{"rb-obj-e"}, Fn: workload.RebalanceFn, RateOPS: 1_600_000}
	if shard, err := f.Admit(spec); err != nil || shard != 0 {
		t.Fatalf("admit rb-e: shard %d, %v; want shard 0", shard, err)
	}
	run("run after admitting rb-e on shard 0")
	return b.Bytes()
}
