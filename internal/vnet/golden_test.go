package vnet

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/elisa-go/elisa/internal/core"
	"github.com/elisa-go/elisa/internal/cpu"
	"github.com/elisa-go/elisa/internal/simtime"
)

var update = flag.Bool("update", false, "rewrite golden files")

// Sizes and batches the golden walks: minimum Ethernet, a mid-size frame
// and the MTU payload; every VM-to-VM flush batch from one frame to a
// full NIC batch.
var (
	goldenSizes   = []int{64, 200, 1472}
	goldenBatches = []int{1, 2, 8, 16}
)

// pathWalk renders every networking path's simulated bytes: per run the
// Result, then each guest's clock and counters. Guest names are left
// out; they label the machine, they are not what a path charges.
type pathWalk struct {
	t   *testing.T
	out bytes.Buffer
}

func (w *pathWalk) must(err error) {
	w.t.Helper()
	if err != nil {
		w.t.Fatal(err)
	}
}

func (w *pathWalk) result(label string, r *Result) {
	fmt.Fprintf(&w.out, "%s: scheme=%s size=%d packets=%d elapsed=%d mpps=%v\n",
		label, r.Scheme, r.Size, r.Packets, r.Elapsed, r.Mpps)
}

func (w *pathWalk) vcpu(role string, v *cpu.VCPU) {
	fmt.Fprintf(&w.out, "  %s: now=%d %+v\n", role, v.Clock().Now(), v.Stats())
}

func (w *pathWalk) run() []byte {
	for _, scheme := range Schemes {
		for _, size := range goldenSizes {
			_, nic, b, err := BuildBackend(scheme)
			w.must(err)
			res, err := RunRX(nic, b, size, 1000)
			w.must(err)
			w.result(fmt.Sprintf("rx %s %dB", scheme, size), res)
			w.vcpu("guest", b.Guest().VCPU())

			_, nic, b, err = BuildBackend(scheme)
			w.must(err)
			res, err = RunTX(nic, b, size, 1000)
			w.must(err)
			w.result(fmt.Sprintf("tx %s %dB", scheme, size), res)
			w.vcpu("guest", b.Guest().VCPU())
			fmt.Fprintf(&w.out, "  wire: verified=%d\n", nic.TXVerified())

			for _, batch := range goldenBatches {
				p, err := BuildVVPath(scheme)
				w.must(err)
				res, err := RunVVBatch(p, size, 600, batch)
				w.must(err)
				w.result(fmt.Sprintf("vv %s %dB batch %d", scheme, size, batch), res)
				w.vcpu("sender", p.Sender().VCPU())
				w.vcpu("receiver", p.Receiver().VCPU())
			}
		}
		for _, vms := range []int{1, 3} {
			c, err := BuildSharedCluster(scheme, vms)
			w.must(err)
			res, err := c.RunSharedRX(64, 100*simtime.Microsecond)
			w.must(err)
			fmt.Fprintf(&w.out, "shared-rx %s %d VMs: %+v\n", scheme, vms, *res)
			for _, b := range c.backends {
				w.vcpu("guest", b.Guest().VCPU())
			}
		}
	}
	for _, depth := range []int{1, 8, 64} {
		p, err := BuildRingVVPath(RingVVConfig{
			Ring:     core.RingConfig{Depth: depth, Deadline: simtime.Second},
			MaxFrame: 64,
		})
		w.must(err)
		res, err := RunVVBatch(p, 64, 600, depth)
		w.must(err)
		w.result(fmt.Sprintf("ring-vv depth %d", depth), res)
		w.vcpu("sender", p.Sender().VCPU())
		w.vcpu("receiver", p.Receiver().VCPU())
		fmt.Fprintf(&w.out, "  tx-latency: %v\n  rx-latency: %v\n", p.TxLatency(), p.RxLatency())
		for i, rs := range p.RingStats() {
			fmt.Fprintf(&w.out, "  ring %d: depth=%d submitted=%d completed=%d kicks=%d flushes=%d flushed=%d drains=%d drained=%d failed=%d\n",
				i, rs.Depth, rs.Submitted, rs.Completed, rs.Kicks, rs.Flushes, rs.Flushed, rs.Drains, rs.Drained, rs.Failed)
		}
	}
	return w.out.Bytes()
}

// TestPathsGolden pins the simulated bytes of every networking path —
// RX and TX over the NIC, VM-to-VM forwarding at every flush batch, the
// shared-wire cluster and the ring datapath — so a refactor of the
// backends must reproduce them exactly (run with -update only for an
// explained move).
func TestPathsGolden(t *testing.T) {
	got := (&pathWalk{t: t}).run()
	golden := filepath.Join("testdata", "paths.golden")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("networking paths drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
