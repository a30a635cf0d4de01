package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/elisa-go/elisa/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files")

// replayRegressionOut runs replay mode over the embedded regression
// scenario at the given shard count with the overload stack armed —
// mirrors: elisa-replay -trace regression_trace.csv -spec
// regression_spec.conf -armed -shards N.
func replayRegressionOut(t *testing.T, shards int) []byte {
	t.Helper()
	specs, err := workload.RegressionSpecs()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := workload.RegressionTrace()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := replay(&buf, specs, tr, replayConfig{
		seed: 42, window: workload.RegressionHorizon, shards: shards, cores: 2,
		queueDepth: 32, armed: true, fitness: "goodput:0.5,p99:0.3,drops:0.2", topK: 3,
	}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name)
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
		t.Fatalf("%v (run with -update to cut the golden)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden; run with -update if intentional\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// TestReplayGolden pins the full replay-mode output — report, fitness,
// counterfactual top-3, decision digest — for the committed regression
// trace at 1 and 4 shards. The two goldens must also be identical to
// each other: objects pin to shard 0, so shard count changes capacity,
// never the simulation of the work that lands on a shard.
func TestReplayGolden(t *testing.T) {
	one := replayRegressionOut(t, 1)
	four := replayRegressionOut(t, 4)
	if !bytes.Equal(one, four) {
		t.Errorf("replay output differs between 1 and 4 shards:\n--- 1 ---\n%s\n--- 4 ---\n%s", one, four)
	}
	checkGolden(t, "replay_1shard.golden", one)
	checkGolden(t, "replay_4shard.golden", four)
	// And determinism run to run, not just vs the files.
	if again := replayRegressionOut(t, 1); !bytes.Equal(one, again) {
		t.Error("same-flag replays differ between runs")
	}
}

// TestReplayGenMatchesCommittedTrace: writer mode over the committed
// spec reproduces the committed trace byte for byte — the CLI, the
// embedded corpus, and the golden trace can never drift apart silently.
func TestReplayGenMatchesCommittedTrace(t *testing.T) {
	specs, err := workload.RegressionSpecs()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := workload.Generate(specs, workload.RegressionSeed, workload.RegressionHorizon)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := workload.WriteTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), workload.RegressionTraceBytes()) {
		t.Fatal("writer mode no longer reproduces the committed regression trace")
	}
}

// TestCheckFlagsRejectsValuesBelowOne: each count flag below 1 — which
// replay used to run on one core, replace with the 64-deep default
// queue, or read as "rank every group" — is a usage error naming its
// flag, and the defaults stay valid.
func TestCheckFlagsRejectsValuesBelowOne(t *testing.T) {
	const window, shards, cores, depth, topk = 250, 1, 2, 32, 3
	cases := []struct {
		flag string
		err  error
	}{
		{"-window-us", checkFlags(0, shards, cores, depth, topk)},
		{"-shards", checkFlags(window, 0, cores, depth, topk)},
		{"-cores", checkFlags(window, shards, 0, depth, topk)},
		{"-cores", checkFlags(window, shards, -3, depth, topk)},
		{"-queue-depth", checkFlags(window, shards, cores, 0, topk)},
		{"-topk", checkFlags(window, shards, cores, depth, -1)},
	}
	for _, c := range cases {
		if c.err == nil || !strings.HasPrefix(c.err.Error(), c.flag+" ") {
			t.Errorf("%s: checkFlags error %v, want one naming %s", c.flag, c.err, c.flag)
		}
	}
	if err := checkFlags(window, shards, cores, depth, topk); err != nil {
		t.Fatalf("default flags rejected: %v", err)
	}
}
