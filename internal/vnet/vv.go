package vnet

import (
	"fmt"

	"github.com/elisa-go/elisa/internal/core"
	"github.com/elisa-go/elisa/internal/cpu"
	"github.com/elisa-go/elisa/internal/ept"
	"github.com/elisa-go/elisa/internal/hv"
	"github.com/elisa-go/elisa/internal/mem"
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

// Hypercalls and manager functions of the VM-to-VM services.
const (
	HCVVSend uint64 = 0x4E450003
	HCVVRecv uint64 = 0x4E450004

	FnVVSend uint64 = 0x4E45_0103
	FnVVRecv uint64 = 0x4E45_0104
)

// newVVRing allocates the shared forwarding ring.
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

// ---------------------------------------------------------------------------
// Direct (ivshmem) VM-to-VM: one ring mapped into both guests.

// DirectVVPath is the no-isolation baseline: both guests map the ring.
type DirectVVPath struct {
	a, b  *hv.VM
	ringA *shm.Ring
	ringB *shm.Ring
	txSeq int
	rxSeq int

	scratch frameScratch
}

// NewDirectVVPath direct-maps a fresh shared ring into both guests.
func NewDirectVVPath(h *hv.Hypervisor, a, b *hv.VM) (*DirectVVPath, error) {
	region, _, err := newVVRing(h)
	if err != nil {
		return nil, err
	}
	open := func(vm *hv.VM) (*shm.Ring, error) {
		gpa, err := region.MapIntoDefault(vm, ept.PermRW)
		if err != nil {
			return nil, err
		}
		w, err := shm.NewGPAWindow(vm.VCPU(), gpa, region.Size())
		if err != nil {
			return nil, err
		}
		return shm.OpenRing(w)
	}
	ra, err := open(a)
	if err != nil {
		return nil, err
	}
	rb, err := open(b)
	if err != nil {
		return nil, err
	}
	return &DirectVVPath{a: a, b: b, ringA: ra, ringB: rb}, nil
}

// Name implements VVPath.
func (p *DirectVVPath) Name() string { return "ivshmem" }

// Sender implements VVPath.
func (p *DirectVVPath) Sender() *hv.VM { return p.a }

// Receiver implements VVPath.
func (p *DirectVVPath) Receiver() *hv.VM { return p.b }

// Send implements VVPath.
func (p *DirectVVPath) Send(count, size int) (int, error) {
	v := p.a.VCPU()
	buf, err := p.scratch.frame(size)
	if err != nil {
		return 0, err
	}
	sent := 0
	for sent < count {
		v.ChargeInstr(driverInstr)
		v.Charge(v.Cost().CopyCost(size))
		fillPattern(buf, p.txSeq)
		ok, err := p.ringA.Push(buf)
		if err != nil {
			return sent, err
		}
		if !ok {
			break
		}
		p.txSeq++
		sent++
	}
	return sent, nil
}

// Recv implements VVPath.
func (p *DirectVVPath) Recv(max int) (int, error) {
	v := p.b.VCPU()
	buf := p.scratch.buf[:]
	got := 0
	for got < max {
		v.ChargeInstr(driverInstr + vvAppInstr)
		n, ok, err := p.ringB.Pop(buf)
		if err != nil {
			return got, err
		}
		if !ok {
			break
		}
		if !checkPattern(buf[:n], p.rxSeq) {
			return got, fmt.Errorf("vnet: ivshmem vv: frame %d corrupted", p.rxSeq)
		}
		p.rxSeq++
		got++
	}
	return got, nil
}

// ---------------------------------------------------------------------------
// Interposed (VMCALL / vhost-net) VM-to-VM: the ring is host private;
// both sides exit per batch.

// InterposedVVPath models VMCALL or vhost-net forwarding.
type InterposedVVPath struct {
	name  string
	h     *hv.Hypervisor
	a, b  *hv.VM
	ring  *hv.HostRegion
	vhost bool
	txSeq int
	rxSeq int

	// drv is the guests' own scratch, svc the hypercall handlers': a
	// handler runs inside its guest's VMCALL.
	drv, svc frameScratch
}

// NewVMCallVVPath builds the VMCALL forwarding path.
func NewVMCallVVPath(h *hv.Hypervisor, a, b *hv.VM) (*InterposedVVPath, error) {
	return newInterposedVV("vmcall", h, a, b, false)
}

// NewVhostVVPath builds the vhost-net forwarding path.
func NewVhostVVPath(h *hv.Hypervisor, a, b *hv.VM) (*InterposedVVPath, error) {
	return newInterposedVV("vhost-net", h, a, b, true)
}

func newInterposedVV(name string, h *hv.Hypervisor, a, b *hv.VM, vhost bool) (*InterposedVVPath, error) {
	region, _, err := newVVRing(h)
	if err != nil {
		return nil, err
	}
	p := &InterposedVVPath{name: name, h: h, a: a, b: b, ring: region, vhost: vhost}
	if err := h.RegisterHypercall(HCVVSend, p.hcSend); err != nil {
		return nil, err
	}
	if err := h.RegisterHypercall(HCVVRecv, p.hcRecv); err != nil {
		return nil, err
	}
	return p, nil
}

// Name implements VVPath.
func (p *InterposedVVPath) Name() string { return p.name }

// Sender implements VVPath.
func (p *InterposedVVPath) Sender() *hv.VM { return p.a }

// Receiver implements VVPath.
func (p *InterposedVVPath) Receiver() *hv.VM { return p.b }

func (p *InterposedVVPath) perPkt() simtime.Duration {
	if p.vhost {
		return hostExtra + vhostExtra
	}
	return hostExtra
}

func (p *InterposedVVPath) hcSend(vm *hv.VM, args [4]uint64) (uint64, error) {
	staging, count, size := mem.GPA(args[0]), int(args[1]), int(args[2])
	v := vm.VCPU()
	hw, err := shm.NewHostWindow(p.ring, v.Clock())
	if err != nil {
		return 0, err
	}
	ring, err := shm.OpenRing(hw)
	if err != nil {
		return 0, err
	}
	buf, err := p.svc.frame(size)
	if err != nil {
		return 0, err
	}
	sent := 0
	for sent < count {
		v.Charge(p.perPkt())
		if err := vm.GuestRead(staging+mem.GPA(sent*frameStride)+8, buf); err != nil {
			return 0, err
		}
		ok, err := ring.Push(buf)
		if err != nil {
			return 0, err
		}
		if !ok {
			break
		}
		sent++
	}
	if p.vhost {
		v.Charge(p.h.Cost().IRQInject)
	}
	return uint64(sent), nil
}

func (p *InterposedVVPath) hcRecv(vm *hv.VM, args [4]uint64) (uint64, error) {
	staging, max := mem.GPA(args[0]), int(args[1])
	v := vm.VCPU()
	hw, err := shm.NewHostWindow(p.ring, v.Clock())
	if err != nil {
		return 0, err
	}
	ring, err := shm.OpenRing(hw)
	if err != nil {
		return 0, err
	}
	buf, hdr := p.svc.buf[:], p.svc.hdr[:]
	got := 0
	for got < max {
		v.Charge(p.perPkt())
		n, ok, err := ring.Pop(buf)
		if err != nil {
			return 0, err
		}
		if !ok {
			break
		}
		off := staging + mem.GPA(got*frameStride)
		putU64(hdr, uint64(n))
		if err := vm.GuestWrite(off, hdr); err != nil {
			return 0, err
		}
		if err := vm.GuestWrite(off+8, buf[:n]); err != nil {
			return 0, err
		}
		got++
	}
	if p.vhost {
		v.Charge(p.h.Cost().IRQInject)
	}
	return uint64(got), nil
}

// Send implements VVPath.
func (p *InterposedVVPath) Send(count, size int) (int, error) {
	v := p.a.VCPU()
	buf, err := p.drv.frame(size)
	if err != nil {
		return 0, err
	}
	hdr := p.drv.hdr[:]
	for i := 0; i < count; i++ {
		v.ChargeInstr(driverInstr)
		fillPattern(buf, p.txSeq+i)
		off := stagingBase + mem.GPA(i*frameStride)
		putU64(hdr, uint64(size))
		if err := v.WriteGPA(off, hdr); err != nil {
			return 0, err
		}
		if err := v.WriteGPA(off+8, buf); err != nil {
			return 0, err
		}
	}
	if p.vhost {
		v.Charge(v.Cost().KickDoorbell)
	}
	ret, err := v.VMCall(HCVVSend, uint64(stagingBase), uint64(count), uint64(size))
	if err != nil {
		return 0, err
	}
	p.txSeq += int(ret)
	return int(ret), nil
}

// Recv implements VVPath.
func (p *InterposedVVPath) Recv(max int) (int, error) {
	v := p.b.VCPU()
	if p.vhost {
		v.Charge(v.Cost().KickDoorbell)
	}
	ret, err := v.VMCall(HCVVRecv, uint64(stagingBase), uint64(max))
	if err != nil {
		return 0, err
	}
	got := int(ret)
	hdr, buf := p.drv.hdr[:], p.drv.buf[:]
	for i := 0; i < got; i++ {
		v.ChargeInstr(driverInstr + vvAppInstr)
		off := stagingBase + mem.GPA(i*frameStride)
		if err := v.ReadGPA(off, hdr); err != nil {
			return i, err
		}
		n := int(getU64(hdr))
		if n <= 0 || n > SlotBytes {
			return i, fmt.Errorf("vnet: %s vv: bad staged length %d", p.name, n)
		}
		if err := v.ReadGPA(off+8, buf[:n]); err != nil {
			return i, err
		}
		if !checkPattern(buf[:n], p.rxSeq) {
			return i, fmt.Errorf("vnet: %s vv: frame %d corrupted", p.name, p.rxSeq)
		}
		p.rxSeq++
	}
	return got, nil
}

// ---------------------------------------------------------------------------
// ELISA VM-to-VM: the ring is a manager object; both guests reach it
// through their own sub contexts, exit-less.

// ELISAVVPath forwards through the gate.
type ELISAVVPath struct {
	h     *hv.Hypervisor
	mgr   *core.Manager
	a, b  *core.Guest
	hA    *core.Handle
	hB    *core.Handle
	rings map[ringViewKey]*shm.Ring
	txSeq int
	rxSeq int

	// drv is the guests' own scratch, svc the manager functions': a
	// function runs inside its guest's gate call.
	drv, svc frameScratch
}

// ringViewKey identifies one view of the shared payload ring: the same
// object is reached through a different vCPU and at a different GPA by
// each guest's sub context and by the manager's host-side ring drain, so
// the window cache must key on both. The GPA alone is not enough — every
// VM's physical address space is independent, so the same numeric GPA can
// name different windows on different vCPUs.
type ringViewKey struct {
	v    *cpu.VCPU
	base mem.GPA
}

// NewELISAVVPath publishes the forwarding ring as a manager object and
// attaches both guests.
func NewELISAVVPath(h *hv.Hypervisor, mgr *core.Manager, a, b *core.Guest) (*ELISAVVPath, error) {
	region, _, err := newVVRing(h)
	if err != nil {
		return nil, err
	}
	p := &ELISAVVPath{h: h, mgr: mgr, a: a, b: b, rings: make(map[ringViewKey]*shm.Ring)}
	if _, err := mgr.CreateObjectFromRegion("vv-ring", region); err != nil {
		return nil, err
	}
	if err := mgr.RegisterFunc(FnVVSend, p.fnSend); err != nil {
		return nil, err
	}
	if err := mgr.RegisterFunc(FnVVRecv, p.fnRecv); err != nil {
		return nil, err
	}
	if p.hA, err = a.Attach("vv-ring"); err != nil {
		return nil, err
	}
	if p.hB, err = b.Attach("vv-ring"); err != nil {
		return nil, err
	}
	return p, nil
}

// Name implements VVPath.
func (p *ELISAVVPath) Name() string { return "elisa" }

// Sender implements VVPath.
func (p *ELISAVVPath) Sender() *hv.VM { return p.a.VM() }

// Receiver implements VVPath.
func (p *ELISAVVPath) Receiver() *hv.VM { return p.b.VM() }

func (p *ELISAVVPath) ringFor(ctx *core.CallContext) (*shm.Ring, error) {
	key := ringViewKey{ctx.VCPU, ctx.Object}
	if r, ok := p.rings[key]; ok {
		return r, nil
	}
	w, err := shm.NewGPAWindow(ctx.VCPU, ctx.Object, ctx.ObjectSize)
	if err != nil {
		return nil, err
	}
	r, err := shm.OpenRing(w)
	if err != nil {
		return nil, err
	}
	p.rings[key] = r
	return r, nil
}

func (p *ELISAVVPath) fnSend(ctx *core.CallContext) (uint64, error) {
	count, size := int(ctx.Args[0]), int(ctx.Args[1])
	ring, err := p.ringFor(ctx)
	if err != nil {
		return 0, err
	}
	buf, err := p.svc.frame(size)
	if err != nil {
		return 0, err
	}
	sent := 0
	for sent < count {
		ctx.VCPU.Charge(mgrExtra)
		if err := ctx.ReadExchange(sent*frameStride+8, buf); err != nil {
			return 0, err
		}
		ok, err := ring.Push(buf)
		if err != nil {
			return 0, err
		}
		if !ok {
			break
		}
		sent++
	}
	return uint64(sent), nil
}

func (p *ELISAVVPath) fnRecv(ctx *core.CallContext) (uint64, error) {
	max := int(ctx.Args[0])
	ring, err := p.ringFor(ctx)
	if err != nil {
		return 0, err
	}
	buf, hdr := p.svc.buf[:], p.svc.hdr[:]
	got := 0
	for got < max {
		ctx.VCPU.Charge(mgrExtra)
		n, ok, err := ring.Pop(buf)
		if err != nil {
			return 0, err
		}
		if !ok {
			break
		}
		off := got * frameStride
		putU64(hdr, uint64(n))
		if err := ctx.WriteExchange(off, hdr); err != nil {
			return 0, err
		}
		if err := ctx.WriteExchange(off+8, buf[:n]); err != nil {
			return 0, err
		}
		got++
	}
	return uint64(got), nil
}

// Send implements VVPath.
func (p *ELISAVVPath) Send(count, size int) (int, error) {
	v := p.a.VM().VCPU()
	if cap := p.hA.ExchangeSize() / frameStride; count > cap {
		count = cap
	}
	buf, err := p.drv.frame(size)
	if err != nil {
		return 0, err
	}
	hdr := p.drv.hdr[:]
	for i := 0; i < count; i++ {
		v.ChargeInstr(driverInstr)
		fillPattern(buf, p.txSeq+i)
		putU64(hdr, uint64(size))
		off := i * frameStride
		if err := p.hA.ExchangeWrite(v, off, hdr); err != nil {
			return 0, err
		}
		if err := p.hA.ExchangeWrite(v, off+8, buf); err != nil {
			return 0, err
		}
	}
	ret, err := p.hA.Call(v, FnVVSend, uint64(count), uint64(size))
	if err != nil {
		return 0, err
	}
	p.txSeq += int(ret)
	return int(ret), nil
}

// Recv implements VVPath.
func (p *ELISAVVPath) Recv(max int) (int, error) {
	v := p.b.VM().VCPU()
	if cap := p.hB.ExchangeSize() / frameStride; max > cap {
		max = cap
	}
	ret, err := p.hB.Call(v, FnVVRecv, uint64(max))
	if err != nil {
		return 0, err
	}
	got := int(ret)
	hdr, buf := p.drv.hdr[:], p.drv.buf[:]
	for i := 0; i < got; i++ {
		v.ChargeInstr(driverInstr + vvAppInstr)
		off := i * frameStride
		if err := p.hB.ExchangeRead(v, off, hdr); err != nil {
			return i, err
		}
		n := int(getU64(hdr))
		if n <= 0 || n > SlotBytes {
			return i, fmt.Errorf("vnet: elisa vv: bad staged length %d", n)
		}
		if err := p.hB.ExchangeRead(v, off+8, buf[:n]); err != nil {
			return i, err
		}
		if !checkPattern(buf[:n], p.rxSeq) {
			return i, fmt.Errorf("vnet: elisa vv: frame %d corrupted", p.rxSeq)
		}
		p.rxSeq++
	}
	return got, nil
}

// ---------------------------------------------------------------------------
// SR-IOV VM-to-VM: each guest drives its own VF ring; the adapter's
// embedded switch hairpins frames between them at wire speed.

// SRIOVVVPath hairpins through the NIC.
type SRIOVVVPath struct {
	h       *hv.Hypervisor
	a, b    *hv.VM
	ringA   *shm.Ring // A's VF TX ring (guest view)
	ringB   *shm.Ring // B's VF RX ring (guest view)
	devA    *shm.Ring // device views
	devB    *shm.Ring
	hairpin simtime.Time
	txSeq   int
	rxSeq   int
	cost    simtime.CostModel

	scratch frameScratch
}

// NewSRIOVVVPath allocates per-VF rings and the hairpin plumbing.
func NewSRIOVVVPath(h *hv.Hypervisor, a, b *hv.VM) (*SRIOVVVPath, error) {
	p := &SRIOVVVPath{h: h, a: a, b: b, cost: h.Cost()}
	build := func(vm *hv.VM) (guest, dev *shm.Ring, err error) {
		region, devRing, err := newVVRing(h)
		if err != nil {
			return nil, nil, err
		}
		gpa, err := region.MapIntoDefault(vm, ept.PermRW)
		if err != nil {
			return nil, nil, err
		}
		w, err := shm.NewGPAWindow(vm.VCPU(), gpa, region.Size())
		if err != nil {
			return nil, nil, err
		}
		g, err := shm.OpenRing(w)
		if err != nil {
			return nil, nil, err
		}
		return g, devRing, nil
	}
	var err error
	if p.ringA, p.devA, err = build(a); err != nil {
		return nil, err
	}
	if p.ringB, p.devB, err = build(b); err != nil {
		return nil, err
	}
	return p, nil
}

// Name implements VVPath.
func (p *SRIOVVVPath) Name() string { return "sriov" }

// Sender implements VVPath.
func (p *SRIOVVVPath) Sender() *hv.VM { return p.a }

// Receiver implements VVPath.
func (p *SRIOVVVPath) Receiver() *hv.VM { return p.b }

// Send implements VVPath: A pushes into its VF ring; the embedded switch
// moves frames to B's VF ring on the hairpin timeline (device work, no
// CPU charge).
func (p *SRIOVVVPath) Send(count, size int) (int, error) {
	v := p.a.VCPU()
	buf, err := p.scratch.frame(size)
	if err != nil {
		return 0, err
	}
	sent := 0
	for sent < count {
		v.ChargeInstr(driverInstr)
		v.Charge(vfExtra + v.Cost().CopyCost(size))
		fillPattern(buf, p.txSeq)
		ok, err := p.ringA.Push(buf)
		if err != nil {
			return sent, err
		}
		if !ok {
			break
		}
		p.txSeq++
		sent++
	}
	// Hairpin: the adapter forwards each frame after serialising it
	// through its internal switch.
	if p.hairpin < v.Clock().Now() {
		p.hairpin = v.Clock().Now()
	}
	hbuf := p.scratch.buf[:]
	for {
		n, ok, err := p.devA.Pop(hbuf)
		if err != nil {
			return sent, err
		}
		if !ok {
			break
		}
		p.hairpin = p.hairpin.Add(p.cost.NICWireTime(n) + p.cost.SRIOVSwitchPerPacket)
		if _, err := p.devB.Push(hbuf[:n]); err != nil {
			return sent, err
		}
	}
	return sent, nil
}

// Recv implements VVPath: B polls its VF ring; frames are not visible
// before the hairpin delivered them.
func (p *SRIOVVVPath) Recv(max int) (int, error) {
	v := p.b.VCPU()
	v.Clock().AdvanceTo(p.hairpin)
	buf := p.scratch.buf[:]
	got := 0
	for got < max {
		v.ChargeInstr(driverInstr + vvAppInstr)
		v.Charge(vfExtra)
		n, ok, err := p.ringB.Pop(buf)
		if err != nil {
			return got, err
		}
		if !ok {
			break
		}
		if !checkPattern(buf[:n], p.rxSeq) {
			return got, fmt.Errorf("vnet: sriov vv: frame %d corrupted", p.rxSeq)
		}
		p.rxSeq++
		got++
	}
	return got, nil
}
