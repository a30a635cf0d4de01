package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"github.com/elisa-go/elisa/internal/simtime"
)

var update = flag.Bool("update", false, "rewrite golden files")

// onceFlags mirrors `-guests 2 -objects 2 -interval 1 -ring 8 -overload
// -poll-budget 16`, the flags behind once.golden.
var onceFlags = options{guests: 2, objects: 2, shards: 1, frames: 5, intervalMs: 1, sample: 1,
	skew: 1.1, readRatio: 0.9, errEvery: 64, ringDepth: 8, ringDeadlineUs: 5, pollBudget: 16, overload: true}

// clusterOnceFlags mirrors `-shards 2 -guests 2 -objects 4 -interval 1`,
// the flags behind once_shards.golden.
var clusterOnceFlags = options{guests: 2, objects: 4, shards: 2, frames: 5, intervalMs: 1, sample: 1,
	skew: 1.1, readRatio: 0.9, errEvery: 64, ringDeadlineUs: 5, pollBudget: 16}

// The one-shot snapshot is a machine-readable contract: same flags, same
// bytes. The golden file pins both the JSON schema and the simulated
// counters; regenerate with `go test ./cmd/elisa-top -run Once -update`
// after an intentional datapath change.
func TestOnceJSONGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := runOnce(&buf, onceFlags); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "once.golden")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("one-shot snapshot drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
	// And it must be deterministic run to run, not just vs the file.
	var again bytes.Buffer
	if err := runOnce(&again, onceFlags); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Error("same-flag one-shot snapshots differ between runs")
	}
}

// TestClusterOnceGolden pins the schema-2 cluster snapshot: -shards 2
// routes the same workload through the placement ring and the document
// gains the per-shard array. Same discipline as the single-shard golden —
// same flags, same bytes; regenerate with
// `go test ./cmd/elisa-top -run Once -update`.
func TestClusterOnceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := runOnce(&buf, clusterOnceFlags); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "once_shards.golden")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("cluster one-shot snapshot drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
	var again bytes.Buffer
	if err := runOnce(&again, clusterOnceFlags); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Error("same-flag cluster snapshots differ between runs")
	}
}

// TestClusterRingOverloadAnyShards: -ring and -overload work at any shard count.
// `-shards 2 -ring 8 -overload` drives exit-less rings on both shards,
// and each shard's poller and the guests' flushes drain descriptors.
func TestClusterRingOverloadAnyShards(t *testing.T) {
	o := clusterOnceFlags
	o.ringDepth, o.overload = 8, true
	m, err := build(o)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.driveFrame(o, simtime.Millisecond); err != nil {
		t.Fatal(err)
	}
	for _, ss := range m.sys.Cluster().Stats().Shards {
		if ss.Objects == 0 || ss.RingDrained == 0 {
			t.Errorf("shard %d: %d objects, %d ring descriptors drained; want both shards serving rings",
				ss.ID, ss.Objects, ss.RingDrained)
		}
	}
	var snap bytes.Buffer
	if err := runOnce(&snap, o); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(snap.Bytes(), []byte(`"ring_depth": 8`)) || !bytes.Contains(snap.Bytes(), []byte(`"overload": true`)) {
		t.Errorf("sharded ring snapshot lost its ring flags:\n%s", snap.Bytes())
	}
}

// TestOverloadDeltaClamp is the regression test for the per-frame rate
// columns after RecoverGuest/Reset: quarantining a crashed guest frees
// its attachments, so a cumulative counter sampled the next frame can be
// smaller than the previous frame's snapshot. The delta helper must
// clamp to zero — an unsigned underflow here rendered ~1.8e19 calls/sec
// in the table.
func TestOverloadDeltaClamp(t *testing.T) {
	cases := []struct {
		name      string
		cur, prev uint64
		want      uint64
	}{
		{"normal forward delta", 150, 100, 50},
		{"no change", 100, 100, 0},
		{"counter went backwards (guest recovered)", 10, 100, 0},
		{"counter reset to zero", 0, 1 << 40, 0},
		{"from zero", 42, 0, 42},
		{"max forward", ^uint64(0), 0, ^uint64(0)},
	}
	for _, tc := range cases {
		if got := deltaU64(tc.cur, tc.prev); got != tc.want {
			t.Errorf("%s: deltaU64(%d, %d) = %d, want %d", tc.name, tc.cur, tc.prev, got, tc.want)
		}
	}
}
