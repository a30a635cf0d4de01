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

// Per-packet processing costs beyond raw byte movement. Calibrated (with
// the batch sizes in runner.go) against the paper's §7.1 figures; see
// EXPERIMENTS.md.
const (
	// driverInstr is the guest driver's per-packet descriptor handling.
	driverInstr = 20
	// hostExtra is the host-interposition path's per-packet processing
	// (address validation, switching) on top of the copies.
	hostExtra simtime.Duration = 40
	// mgrExtra is the ELISA manager code's per-packet processing in the
	// sub context (same switching logic, no exits).
	mgrExtra simtime.Duration = 30
	// vhostExtra is the vhost-net kernel path's per-packet overhead
	// (virtio descriptor parsing, skb handling).
	vhostExtra simtime.Duration = 200
	// vfExtra is the SR-IOV virtual function's per-packet overhead.
	vfExtra simtime.Duration = 5
	// vvAppInstr is the receiving application's per-packet work in the
	// VM-to-VM scenario (header inspection, forwarding decision).
	vvAppInstr = 25
)

// frameStride is the packed frame footprint in staging/exchange buffers.
const frameStride = 8 + SlotBytes + 4 // u64 length + MTU payload, padded

// Backend is one guest's path to its descriptor rings: a NIC queue pair,
// or one side of a VM-to-VM forwarding ring.
type Backend interface {
	// Name is the scheme label used in the paper's figures.
	Name() string
	// Guest returns the VM driving the rings through this backend.
	Guest() *hv.VM
	// RecvBatch moves up to max frames from the RX ring into the guest,
	// verifying payload integrity. Costs land on the guest clock.
	RecvBatch(max int) (int, error)
	// SendBatch produces and hands count frames of size bytes to the TX
	// ring. It returns how many were accepted (ring may fill).
	SendBatch(count, size int) (int, error)
}

// queue is the ring pair one backend drives: it receives from rx and
// sends into tx. A NIC queue has both; a VM-to-VM sender drives only
// the forwarding ring's tx side and the receiver only its rx side, the
// other left nil. rxObj and txObj name the objects the ELISA scheme
// publishes the rings as; guests that share a ring share its object.
type queue struct {
	rx, tx       *hv.HostRegion
	rxObj, txObj string
}

// ---------------------------------------------------------------------------
// Direct mapping (ivshmem-like) and SR-IOV: the guest touches the DMA
// rings itself; SR-IOV adds a VF tax per packet.

// DirectBackend maps its rings straight into the guest's default
// context. With extra=vfExtra it models an SR-IOV virtual function.
type DirectBackend struct {
	name  string
	vm    *hv.VM
	rx    *shm.Ring
	tx    *shm.Ring
	extra simtime.Duration
	app   int // receiving application's instructions per frame
	rxSeq int
	txSeq int

	scratch frameScratch
}

// newDirect maps q's rings into the guest; extra is the per-frame
// device tax (vfExtra for an SR-IOV virtual function).
func newDirect(name string, vm *hv.VM, q queue, extra simtime.Duration, app int) (*DirectBackend, error) {
	rx, err := mapRing(vm, q.rx)
	if err != nil {
		return nil, err
	}
	tx, err := mapRing(vm, q.tx)
	if err != nil {
		return nil, err
	}
	return &DirectBackend{name: name, vm: vm, rx: rx, tx: tx, extra: extra, app: app}, nil
}

// mapRing maps r into the guest's default context and opens its ring
// through the guest's vCPU. A nil r is a direction the guest never
// drives.
func mapRing(vm *hv.VM, r *hv.HostRegion) (*shm.Ring, error) {
	if r == nil {
		return nil, nil
	}
	gpa, err := r.MapIntoDefault(vm, ept.PermRW)
	if err != nil {
		return nil, err
	}
	w, err := shm.NewGPAWindow(vm.VCPU(), gpa, r.Size())
	if err != nil {
		return nil, err
	}
	return shm.OpenRing(w)
}

// Name implements Backend.
func (b *DirectBackend) Name() string { return b.name }

// Guest implements Backend.
func (b *DirectBackend) Guest() *hv.VM { return b.vm }

// RecvBatch implements Backend.
func (b *DirectBackend) RecvBatch(max int) (int, error) {
	v := b.vm.VCPU()
	buf := b.scratch.buf[:]
	got := 0
	for got < max {
		v.ChargeInstr(driverInstr + b.app)
		v.Charge(b.extra)
		n, ok, err := b.rx.Pop(buf)
		if err != nil {
			return got, err
		}
		if !ok {
			break
		}
		if !checkPattern(buf[:n], b.rxSeq) {
			return got, fmt.Errorf("vnet: %s: RX frame %d corrupted", b.name, b.rxSeq)
		}
		b.rxSeq++
		got++
	}
	return got, nil
}

// SendBatch implements Backend.
func (b *DirectBackend) SendBatch(count, size int) (int, error) {
	v := b.vm.VCPU()
	buf, err := b.scratch.frame(size)
	if err != nil {
		return 0, err
	}
	sent := 0
	for sent < count {
		// Produce the payload in guest memory, then hand it to the ring.
		v.ChargeInstr(driverInstr)
		v.Charge(b.extra + v.Cost().CopyCost(size))
		fillPattern(buf, b.txSeq)
		ok, err := b.tx.Push(buf)
		if err != nil {
			return sent, err
		}
		if !ok {
			break
		}
		b.txSeq++
		sent++
	}
	return sent, nil
}

// ---------------------------------------------------------------------------
// Host interposition (VMCALL) and vhost-net: the rings stay host
// private; the guest stages batches in its RAM and exits per batch.

// Hypercall numbers of the interposed network service.
const (
	HCNetRX uint64 = 0x4E450001
	HCNetTX uint64 = 0x4E450002
)

// stagingBase is where interposed backends stage packet batches in guest
// RAM (the guest's driver owns this area).
const stagingBase mem.GPA = 0x8000

// InterposedService is the host side of the VMCALL / vhost-net paths:
// registered once per hypervisor, it routes each hypercall to the calling
// VM's ring pair, so any number of guests can share one machine (and one
// wire, or one forwarding ring).
type InterposedService struct {
	h      *hv.Hypervisor
	vhost  bool
	queues map[int]queue // by VM id

	scratch frameScratch
}

// NewInterposedService registers the network hypercalls. One service per
// hypervisor (vmcall and vhost-net are alternative models of the same
// interposed path, never deployed together here).
func NewInterposedService(h *hv.Hypervisor, vhost bool) (*InterposedService, error) {
	s := &InterposedService{h: h, vhost: vhost, queues: make(map[int]queue)}
	if err := h.RegisterHypercall(HCNetRX, s.hcRX); err != nil {
		return nil, err
	}
	if err := h.RegisterHypercall(HCNetTX, s.hcTX); err != nil {
		return nil, err
	}
	return s, nil
}

// newBackend wires a guest to its ring pair through this service.
func (s *InterposedService) newBackend(vm *hv.VM, q queue, app int) (*InterposedBackend, error) {
	if int(stagingBase)+16*frameStride > vm.RAMBytes() {
		return nil, fmt.Errorf("vnet: guest RAM %d too small for staging", vm.RAMBytes())
	}
	if _, dup := s.queues[vm.ID()]; dup {
		return nil, fmt.Errorf("vnet: vm %q already has an interposed backend", vm.Name())
	}
	s.queues[vm.ID()] = q
	name := "vmcall"
	if s.vhost {
		name = "vhost-net"
	}
	return &InterposedBackend{name: name, svc: s, vm: vm, app: app}, nil
}

// openRing opens the caller's RX ring (rx) or TX ring on the caller's
// clock. Every hypercall reopens it and pays its two header reads.
func (s *InterposedService) openRing(vm *hv.VM, rx bool) (*shm.Ring, error) {
	q, ok := s.queues[vm.ID()]
	if !ok {
		return nil, fmt.Errorf("vnet: vm %q has no ring pair", vm.Name())
	}
	r := q.tx
	if rx {
		r = q.rx
	}
	hw, err := shm.NewHostWindow(r, vm.VCPU().Clock())
	if err != nil {
		return nil, err
	}
	return shm.OpenRing(hw)
}

func (s *InterposedService) perPkt() simtime.Duration {
	if s.vhost {
		return hostExtra + vhostExtra
	}
	return hostExtra
}

// hcRX pops up to args[1] frames from the caller's RX ring into guest
// staging.
func (s *InterposedService) hcRX(vm *hv.VM, args [4]uint64) (uint64, error) {
	staging, max := mem.GPA(args[0]), int(args[1])
	ring, err := s.openRing(vm, true)
	if err != nil {
		return 0, err
	}
	v := vm.VCPU()
	buf, hdr := s.scratch.buf[:], s.scratch.hdr[:]
	got := 0
	for got < max {
		v.Charge(s.perPkt())
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
	if s.vhost {
		v.Charge(s.h.Cost().IRQInject)
	}
	return uint64(got), nil
}

// hcTX pushes args[1] frames of size args[2] from guest staging into the
// caller's TX ring.
func (s *InterposedService) hcTX(vm *hv.VM, args [4]uint64) (uint64, error) {
	staging, count, size := mem.GPA(args[0]), int(args[1]), int(args[2])
	buf, err := s.scratch.frame(size)
	if err != nil {
		return 0, err
	}
	ring, err := s.openRing(vm, false)
	if err != nil {
		return 0, err
	}
	v := vm.VCPU()
	sent := 0
	for sent < count {
		v.Charge(s.perPkt())
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
	if s.vhost {
		v.Charge(s.h.Cost().IRQInject)
	}
	return uint64(sent), nil
}

// InterposedBackend reaches its ring pair through the service's
// hypercalls. With a vhost service it models vhost-net: a virtio kick per
// batch, kernel-path per-packet overhead, and a completion interrupt.
type InterposedBackend struct {
	name  string
	svc   *InterposedService
	vm    *hv.VM
	app   int // receiving application's instructions per frame
	rxSeq int
	txSeq int

	scratch frameScratch
}

// Name implements Backend.
func (b *InterposedBackend) Name() string { return b.name }

// Guest implements Backend.
func (b *InterposedBackend) Guest() *hv.VM { return b.vm }

// RecvBatch implements Backend.
func (b *InterposedBackend) RecvBatch(max int) (int, error) {
	v := b.vm.VCPU()
	if b.svc.vhost {
		v.Charge(v.Cost().KickDoorbell)
	}
	ret, err := v.VMCall(HCNetRX, uint64(stagingBase), uint64(max))
	if err != nil {
		return 0, err
	}
	got := int(ret)
	hdr, buf := b.scratch.hdr[:], b.scratch.buf[:]
	for i := 0; i < got; i++ {
		v.ChargeInstr(driverInstr + b.app)
		off := stagingBase + mem.GPA(i*frameStride)
		if err := v.ReadGPA(off, hdr); err != nil {
			return i, err
		}
		n := int(getU64(hdr))
		if n <= 0 || n > SlotBytes {
			return i, fmt.Errorf("vnet: %s: bad staged length %d", b.name, n)
		}
		if err := v.ReadGPA(off+8, buf[:n]); err != nil {
			return i, err
		}
		if !checkPattern(buf[:n], b.rxSeq) {
			return i, fmt.Errorf("vnet: %s: RX frame %d corrupted", b.name, b.rxSeq)
		}
		b.rxSeq++
	}
	return got, nil
}

// SendBatch implements Backend.
func (b *InterposedBackend) SendBatch(count, size int) (int, error) {
	v := b.vm.VCPU()
	buf, err := b.scratch.frame(size)
	if err != nil {
		return 0, err
	}
	hdr := b.scratch.hdr[:]
	for i := 0; i < count; i++ {
		v.ChargeInstr(driverInstr)
		fillPattern(buf, b.txSeq+i)
		off := stagingBase + mem.GPA(i*frameStride)
		putU64(hdr, uint64(size))
		if err := v.WriteGPA(off, hdr); err != nil {
			return 0, err
		}
		if err := v.WriteGPA(off+8, buf); err != nil {
			return 0, err
		}
	}
	if b.svc.vhost {
		v.Charge(v.Cost().KickDoorbell)
	}
	ret, err := v.VMCall(HCNetTX, uint64(stagingBase), uint64(count), uint64(size))
	if err != nil {
		return 0, err
	}
	b.txSeq += int(ret)
	return int(ret), nil
}

// ---------------------------------------------------------------------------
// ELISA: the rings are manager objects; the guest switches into sub
// contexts to run the manager's ring code — no exits.

// Manager function IDs of the ELISA network service.
const (
	FnNetRX uint64 = 0x4E45_0101
	FnNetTX uint64 = 0x4E45_0102
)

// ELISANetService is the manager side of the ELISA networking path:
// registered once per manager, it publishes each ring as an object and
// routes the manager functions to the calling guest's view of it, so any
// number of guests can share the machine (and the wire, or a forwarding
// ring) exit-lessly.
type ELISANetService struct {
	mgr   *core.Manager
	rings ringViews

	scratch frameScratch
}

// NewELISANetService registers the manager functions.
func NewELISANetService(mgr *core.Manager) (*ELISANetService, error) {
	s := &ELISANetService{mgr: mgr, rings: make(ringViews)}
	if err := mgr.RegisterFunc(FnNetRX, s.fnRX); err != nil {
		return nil, err
	}
	if err := mgr.RegisterFunc(FnNetTX, s.fnTX); err != nil {
		return nil, err
	}
	return s, nil
}

// newBackend attaches the guest to the objects publishing q's rings,
// publishing each one the first time a guest attaches it.
func (s *ELISANetService) newBackend(g *core.Guest, q queue, app int) (*ELISABackend, error) {
	for _, obj := range []struct {
		name   string
		region *hv.HostRegion
	}{{q.rxObj, q.rx}, {q.txObj, q.tx}} {
		if _, published := s.mgr.Object(obj.name); obj.region == nil || published {
			continue
		}
		if _, err := s.mgr.CreateObjectFromRegion(obj.name, obj.region); err != nil {
			return nil, err
		}
	}
	b := &ELISABackend{guest: g, app: app}
	var err error
	if q.rx != nil {
		if b.hRX, err = g.Attach(q.rxObj); err != nil {
			return nil, err
		}
	}
	if q.tx != nil {
		if b.hTX, err = g.Attach(q.txObj); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// ringViews caches the ring each guest opened on an object, keyed by
// the calling vCPU and the object's GPA. Both guests of a VM-to-VM ring
// reach its object at the same GPA, so a GPA-only key would hand one
// guest the other's view and charge its reads to the wrong clock.
type ringViews map[ringViewKey]*shm.Ring

type ringViewKey struct {
	v    *cpu.VCPU
	base mem.GPA
}

// open returns the calling guest's view of the ring behind ctx's
// object, opening it through the guest's sub context the first time.
func (m ringViews) open(ctx *core.CallContext) (*shm.Ring, error) {
	key := ringViewKey{ctx.VCPU, ctx.Object}
	if r, ok := m[key]; ok {
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
	m[key] = r
	return r, nil
}

func (s *ELISANetService) fnRX(ctx *core.CallContext) (uint64, error) {
	max := int(ctx.Args[0])
	ring, err := s.rings.open(ctx)
	if err != nil {
		return 0, err
	}
	buf, hdr := s.scratch.buf[:], s.scratch.hdr[:]
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

func (s *ELISANetService) fnTX(ctx *core.CallContext) (uint64, error) {
	count, size := int(ctx.Args[0]), int(ctx.Args[1])
	buf, err := s.scratch.frame(size)
	if err != nil {
		return 0, err
	}
	ring, err := s.rings.open(ctx)
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

// ELISABackend reaches its rings through the gate — no exits.
type ELISABackend struct {
	guest *core.Guest
	hRX   *core.Handle
	hTX   *core.Handle
	app   int // receiving application's instructions per frame
	rxSeq int
	txSeq int

	scratch frameScratch
}

// Name implements Backend.
func (b *ELISABackend) Name() string { return "elisa" }

// Guest implements Backend.
func (b *ELISABackend) Guest() *hv.VM { return b.guest.VM() }

// RecvBatch implements Backend.
func (b *ELISABackend) RecvBatch(max int) (int, error) {
	v := b.guest.VM().VCPU()
	if cap := b.hRX.ExchangeSize() / frameStride; max > cap {
		max = cap
	}
	ret, err := b.hRX.Call(v, FnNetRX, uint64(max))
	if err != nil {
		return 0, err
	}
	got := int(ret)
	hdr, buf := b.scratch.hdr[:], b.scratch.buf[:]
	for i := 0; i < got; i++ {
		v.ChargeInstr(driverInstr + b.app)
		off := i * frameStride
		if err := b.hRX.ExchangeRead(v, off, hdr); err != nil {
			return i, err
		}
		n := int(getU64(hdr))
		if n <= 0 || n > SlotBytes {
			return i, fmt.Errorf("vnet: elisa: bad staged length %d", n)
		}
		if err := b.hRX.ExchangeRead(v, off+8, buf[:n]); err != nil {
			return i, err
		}
		if !checkPattern(buf[:n], b.rxSeq) {
			return i, fmt.Errorf("vnet: elisa: RX frame %d corrupted", b.rxSeq)
		}
		b.rxSeq++
	}
	return got, nil
}

// SendBatch implements Backend.
func (b *ELISABackend) SendBatch(count, size int) (int, error) {
	v := b.guest.VM().VCPU()
	if cap := b.hTX.ExchangeSize() / frameStride; count > cap {
		count = cap
	}
	buf, err := b.scratch.frame(size)
	if err != nil {
		return 0, err
	}
	hdr := b.scratch.hdr[:]
	for i := 0; i < count; i++ {
		v.ChargeInstr(driverInstr)
		fillPattern(buf, b.txSeq+i)
		putU64(hdr, uint64(size))
		off := i * frameStride
		if err := b.hTX.ExchangeWrite(v, off, hdr); err != nil {
			return 0, err
		}
		if err := b.hTX.ExchangeWrite(v, off+8, buf); err != nil {
			return 0, err
		}
	}
	ret, err := b.hTX.Call(v, FnNetTX, uint64(count), uint64(size))
	if err != nil {
		return 0, err
	}
	b.txSeq += int(ret)
	return int(ret), nil
}

func putU64(p []byte, v uint64) {
	for i := 0; i < 8; i++ {
		p[i] = byte(v >> (8 * i))
	}
}

func getU64(p []byte) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(p[i]) << (8 * i)
	}
	return v
}
