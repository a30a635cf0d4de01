package vnet

import (
	"github.com/elisa-go/elisa/internal/hv"
	"github.com/elisa-go/elisa/internal/shm"
	"github.com/elisa-go/elisa/internal/simtime"
)

// VVPath is a VM-to-VM forwarding path: guest A produces frames, guest B
// consumes them, and the scheme in the middle decides who pays which
// context switches.
type VVPath interface {
	// Name is the scheme label.
	Name() string
	// Sender and Receiver return the two guests.
	Sender() *hv.VM
	Receiver() *hv.VM
	// Send produces and forwards count frames of size bytes from A.
	Send(count, size int) (int, error)
	// Recv consumes and verifies up to max frames at B.
	Recv(max int) (int, error)
}

// newVVRing allocates a forwarding ring and returns it with its device
// view (uncharged: no guest reaches the ring through it).
func newVVRing(h *hv.Hypervisor) (*hv.HostRegion, *shm.Ring, error) {
	region, err := h.AllocHostRegion(shm.RingBytes(RingSlots, SlotBytes))
	if err != nil {
		return nil, nil, err
	}
	w, err := shm.NewHostWindow(region, nil)
	if err != nil {
		return nil, nil, err
	}
	ring, err := shm.InitRing(w, RingSlots, SlotBytes)
	if err != nil {
		return nil, nil, err
	}
	return region, ring, nil
}

// vvPath forwards through two backends of one scheme: the sender's
// SendBatch fills a forwarding ring and the receiver's RecvBatch drains
// it, running the receiving application's per-frame work as it goes.
type vvPath struct {
	tx, rx Backend
	sw     *hairpin // SR-IOV only: each guest drives its own VF ring
}

// Name implements VVPath.
func (p *vvPath) Name() string { return p.tx.Name() }

// Sender implements VVPath.
func (p *vvPath) Sender() *hv.VM { return p.tx.Guest() }

// Receiver implements VVPath.
func (p *vvPath) Receiver() *hv.VM { return p.rx.Guest() }

// Send implements VVPath.
func (p *vvPath) Send(count, size int) (int, error) {
	sent, err := p.tx.SendBatch(count, size)
	if err != nil || p.sw == nil {
		return sent, err
	}
	return sent, p.sw.forward(p.tx.Guest().VCPU().Clock().Now())
}

// Recv implements VVPath. Over SR-IOV no frame is visible before the
// hairpin delivered it.
func (p *vvPath) Recv(max int) (int, error) {
	if p.sw != nil {
		p.rx.Guest().VCPU().Clock().AdvanceTo(p.sw.done)
	}
	return p.rx.RecvBatch(max)
}

// hairpin is the SR-IOV adapter's embedded switch: it moves frames from
// the sender's VF ring to the receiver's at wire speed, serialising each
// through the switch on its own timeline (device work, no CPU charge).
type hairpin struct {
	from, to *shm.Ring    // device views of the two VF rings
	done     simtime.Time // when the switch delivers its last frame
	cost     simtime.CostModel

	scratch frameScratch
}

// forward moves every frame queued in the sender's VF ring, starting no
// earlier than now.
func (s *hairpin) forward(now simtime.Time) error {
	if s.done < now {
		s.done = now
	}
	buf := s.scratch.buf[:]
	for {
		n, ok, err := s.from.Pop(buf)
		if err != nil || !ok {
			return err
		}
		s.done = s.done.Add(s.cost.NICWireTime(n) + s.cost.SRIOVSwitchPerPacket)
		if _, err := s.to.Push(buf[:n]); err != nil {
			return err
		}
	}
}
