package vnet

import (
	"fmt"

	"github.com/elisa-go/elisa/internal/hv"
	"github.com/elisa-go/elisa/internal/obs"
	"github.com/elisa-go/elisa/internal/simtime"
	"github.com/elisa-go/elisa/internal/stats"
)

// SharedCluster is the HyperNF deployment shape: N guest VMs on one
// machine, each with its own NIC queue pair, all queues multiplexed onto
// one physical wire. The wire's line rate is the shared resource; the
// question the consolidation experiment asks is how many VMs each scheme
// needs (i.e. how much CPU it burns) to saturate it.
type SharedCluster struct {
	h        *hv.Hypervisor
	wire     *Wire
	nics     []*NIC
	backends []Backend
}

// BuildSharedCluster assembles n guests on one machine, one wire.
// Supported schemes: every entry of Schemes.
func BuildSharedCluster(scheme string, n int) (*SharedCluster, error) {
	return buildSharedCluster(scheme, n, nil)
}

// buildSharedCluster is BuildSharedCluster with rec, if not nil,
// recording the ELISA manager's calls.
func buildSharedCluster(scheme string, n int, rec *obs.Recorder) (*SharedCluster, error) {
	if n <= 0 {
		return nil, fmt.Errorf("vnet: shared cluster needs at least one VM")
	}
	h, err := hv.New(hv.Config{PhysBytes: physBytes})
	if err != nil {
		return nil, err
	}
	s, err := newService(h, scheme, rec)
	if err != nil {
		return nil, err
	}
	c := &SharedCluster{h: h, wire: &Wire{}}
	for i := 0; i < n; i++ {
		nic, err := NewNICOnWire(h, c.wire)
		if err != nil {
			return nil, err
		}
		vm, err := h.CreateVM(fmt.Sprintf("net-guest-%d", i), guestRAM)
		if err != nil {
			return nil, err
		}
		b, err := s.backend(vm, queue{
			rx: nic.rxRegion, tx: nic.txRegion,
			rxObj: fmt.Sprintf("nicq%d-rx", i), txObj: fmt.Sprintf("nicq%d-tx", i),
		}, 0)
		if err != nil {
			return nil, err
		}
		c.nics = append(c.nics, nic)
		c.backends = append(c.backends, b)
	}
	return c, nil
}

// VMs returns the cluster size.
func (c *SharedCluster) VMs() int { return len(c.backends) }

// SharedResult is one aggregate measurement.
type SharedResult struct {
	Scheme   string
	VMs      int
	Size     int
	AggMpps  float64
	LineMpps float64 // the wire's capacity at this size
}

// RunSharedRX drives receive traffic to every VM at once for a window of
// simulated time: the wire delivers frames round-robin across queues at
// line rate; each VM drains its own queue. The aggregate rate is bounded
// by min(Σ per-VM CPU rates, line rate) — the consolidation trade-off
// made measurable.
func (c *SharedCluster) RunSharedRX(size int, window simtime.Duration) (*SharedResult, error) {
	if window <= 0 {
		return nil, fmt.Errorf("vnet: window %v must be positive", window)
	}
	n := len(c.backends)
	received := 0
	cost := c.backends[0].Guest().VCPU().Cost()
	wireStep := cost.NICWireTime(size)
	deadline := simtime.Time(0).Add(window)

	for {
		progressed := false
		// Frames exist on the wire once *global* time has passed their
		// arrival; a lagging consumer's queue keeps filling while it is
		// busy, exactly like real DMA.
		var now simtime.Time
		for _, b := range c.backends {
			if t := b.Guest().VCPU().Clock().Now(); t > now {
				now = t
			}
		}
		for i, b := range c.backends {
			v := b.Guest().VCPU()
			if v.Clock().Now() >= deadline {
				continue
			}
			progressed = true
			if _, _, err := c.nics[i].GenerateRX(BatchNIC, size, now); err != nil {
				return nil, err
			}
			got, err := b.RecvBatch(BatchNIC)
			if err != nil {
				return nil, err
			}
			if got == 0 {
				// Wait for this queue's next batch; the shared wire is
				// also feeding the other queues meanwhile.
				v.Clock().AdvanceTo(c.wire.rx.Add(wireStep * simtime.Duration(BatchNIC)))
				continue
			}
			received += got
		}
		if !progressed {
			break
		}
	}
	return &SharedResult{
		Scheme:   c.backends[0].Name(),
		VMs:      n,
		Size:     size,
		AggMpps:  stats.Throughput(int64(received), window) / 1e6,
		LineMpps: 1e3 / float64(wireStep),
	}, nil
}
