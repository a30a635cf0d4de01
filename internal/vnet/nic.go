// Package vnet implements the paper's first use case: a HyperNF-style VM
// networking system (§7.1). A physical 10 GbE NIC model with DMA
// descriptor rings in simulated memory is reached by guest VMs through
// five I/O backends — ivshmem direct mapping, VMCALL host-interposition,
// ELISA, vhost-net and SR-IOV — across three scenarios: RX over the NIC,
// TX over the NIC, and VM-to-VM forwarding through a virtual switch.
//
// Packets are real bytes moving through simulated physical memory
// (payload integrity is verified end-to-end); throughput comes from the
// calibrated cost model: at small packet sizes the schemes differ by
// their per-batch context-switch costs (the paper's point), at large
// sizes everyone converges on the wire's line rate.
package vnet

import (
	"fmt"

	"github.com/elisa-go/elisa/internal/hv"
	"github.com/elisa-go/elisa/internal/shm"
	"github.com/elisa-go/elisa/internal/simtime"
)

// Ring geometry of the NIC DMA rings: 256 descriptors of MTU-sized slots.
const (
	RingSlots = 256
	SlotBytes = 1500
)

// Wire is the serialisation timeline of one physical link. Several NIC
// queues (VMDq/SR-IOV style) may share a Wire: their frames interleave on
// the same line-rate-bound medium, which is how the multi-VM NIC-sharing
// experiments model consolidation.
type Wire struct {
	rx simtime.Time // when the wire finishes delivering the next RX frame
	tx simtime.Time // when the wire finishes accepting the last TX frame
}

// NIC models one physical 10 GbE adapter queue pair: an RX ring filled
// from the wire and a TX ring drained to the wire, both living in host
// memory, plus the (possibly shared) wire timeline — the line-rate bound.
type NIC struct {
	hv   *hv.Hypervisor
	cost simtime.CostModel

	rxRegion *hv.HostRegion
	txRegion *hv.HostRegion
	rxRing   *shm.Ring // device-side view (uncharged: the NIC is hardware)
	txRing   *shm.Ring

	wire *Wire

	scratch frameScratch // GenerateRX's and DrainTX's frame buffer

	rxSeq int // pattern sequence for generated frames
	txSeq int // expected pattern sequence for transmitted frames
	txOK  int // verified transmitted frames
}

// NewNIC allocates the adapter's DMA rings in host memory, on its own
// dedicated wire.
func NewNIC(h *hv.Hypervisor) (*NIC, error) {
	return NewNICOnWire(h, &Wire{})
}

// NewNICOnWire allocates a queue pair that shares an existing wire with
// other queues (a multi-queue adapter serving several VMs).
func NewNICOnWire(h *hv.Hypervisor, w *Wire) (*NIC, error) {
	if w == nil {
		w = &Wire{}
	}
	n := &NIC{hv: h, cost: *h.Cost(), wire: w}
	var err error
	if n.rxRegion, err = h.AllocHostRegion(shm.RingBytes(RingSlots, SlotBytes)); err != nil {
		return nil, err
	}
	if n.txRegion, err = h.AllocHostRegion(shm.RingBytes(RingSlots, SlotBytes)); err != nil {
		return nil, err
	}
	rxw, err := shm.NewHostWindow(n.rxRegion, nil)
	if err != nil {
		return nil, err
	}
	txw, err := shm.NewHostWindow(n.txRegion, nil)
	if err != nil {
		return nil, err
	}
	if n.rxRing, err = shm.InitRing(rxw, RingSlots, SlotBytes); err != nil {
		return nil, err
	}
	if n.txRing, err = shm.InitRing(txw, RingSlots, SlotBytes); err != nil {
		return nil, err
	}
	return n, nil
}

// RXRegion returns the RX DMA ring's backing memory (for mapping into
// contexts).
func (n *NIC) RXRegion() *hv.HostRegion { return n.rxRegion }

// TXRegion returns the TX DMA ring's backing memory.
func (n *NIC) TXRegion() *hv.HostRegion { return n.txRegion }

// GenerateRX makes the wire deliver up to `want` frames of `size` payload
// bytes into the RX ring, but never past `deadline` (the consumer's
// current time): the wire is a fixed-rate producer, not an infinite
// backlog. It returns how many frames were added and the wire time after
// the last one.
func (n *NIC) GenerateRX(want, size int, deadline simtime.Time) (int, simtime.Time, error) {
	if size <= 0 || size > SlotBytes {
		return 0, n.wire.rx, fmt.Errorf("vnet: frame size %d outside (0,%d]", size, SlotBytes)
	}
	added := 0
	buf := n.scratch.buf[:size]
	for added < want {
		arrival := n.wire.rx.Add(n.cost.NICWireTime(size))
		if arrival > deadline {
			break
		}
		free, err := n.rxRing.Free()
		if err != nil {
			return added, n.wire.rx, err
		}
		if free == 0 {
			break // ring overrun: the consumer is too slow; frames drop
		}
		fillPattern(buf, n.rxSeq)
		if _, err := n.rxRing.Push(buf); err != nil {
			return added, n.wire.rx, err
		}
		n.rxSeq++
		n.wire.rx = arrival
		added++
	}
	return added, n.wire.rx, nil
}

// DrainTX makes the wire transmit every frame currently in the TX ring,
// starting no earlier than `from`, verifying payload integrity. It
// returns the count drained and the wire time after the last frame.
func (n *NIC) DrainTX(from simtime.Time) (int, simtime.Time, error) {
	if n.wire.tx < from {
		n.wire.tx = from
	}
	buf := n.scratch.buf[:]
	drained := 0
	for {
		ln, ok, err := n.txRing.Pop(buf)
		if err != nil {
			return drained, n.wire.tx, err
		}
		if !ok {
			return drained, n.wire.tx, nil
		}
		if !checkPattern(buf[:ln], n.txSeq) {
			return drained, n.wire.tx, fmt.Errorf("vnet: TX frame %d corrupted in flight", n.txSeq)
		}
		n.txSeq++
		n.txOK++
		n.wire.tx = n.wire.tx.Add(n.cost.NICWireTime(ln))
		drained++
	}
}

// frameScratch is the frame staging one packet-path owner — a NIC,
// backend, service or VM-to-VM path — reuses on every batch instead of
// allocating it: an MTU payload buffer and a length header. One
// goroutine drives each owner, so one scratch per owner (per side, where
// an owner has both a guest side and the service side its calls run)
// is never used by two batches at once.
type frameScratch struct {
	buf [SlotBytes]byte
	hdr [8]byte
}

// frame returns the payload buffer cut to size bytes, refusing a size
// no MTU slot can hold.
func (f *frameScratch) frame(size int) ([]byte, error) {
	if size < 0 || size > SlotBytes {
		return nil, fmt.Errorf("vnet: frame size %d outside [0,%d]", size, SlotBytes)
	}
	return f.buf[:size], nil
}

// TXVerified returns how many transmitted frames passed integrity checks.
func (n *NIC) TXVerified() int { return n.txOK }

// fillPattern stamps deterministic, sequence-dependent bytes.
func fillPattern(p []byte, k int) {
	for i := range p {
		p[i] = byte(k*131 + i*7 + 3)
	}
}

func checkPattern(p []byte, k int) bool {
	for i := range p {
		if p[i] != byte(k*131+i*7+3) {
			return false
		}
	}
	return true
}
