package kvs

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

// clientOverheadInstr is the request-handling work every client performs
// per operation regardless of scheme (command parse, protocol handling,
// response formatting — memcached-style). Calibrated together with the
// store's DRAM-access costs so the single-VM ELISA-over-VMCALL GET gain
// lands near the paper's +64%.
const clientOverheadInstr = 300

// Client is one VM's access path to the shared store. Put returns the
// span of the store mutation (the critical section) so the cluster runner
// can model cross-VM writer serialisation.
type Client interface {
	// Get fills val and reports whether key exists.
	Get(key, val []byte) (bool, error)
	// Put upserts key and returns the mutation's critical-section span.
	Put(key, val []byte) (simtime.Duration, error)
	// Delete removes key, reporting whether it existed.
	Delete(key []byte) (bool, error)
	// Clock is the issuing VM's clock.
	Clock() *simtime.Clock
	// Scheme names the sharing scheme ("ivshmem", "vmcall", "elisa").
	Scheme() string
}

// newTable formats an empty table of layout l over region.
func newTable(h *hv.Hypervisor, region *hv.HostRegion, l Layout) error {
	w, err := shm.NewHostWindow(region, nil)
	if err != nil {
		return err
	}
	_, err = Format(w, l, *h.Cost())
	return err
}

// newHostTable allocates a host region holding an empty table of layout l.
func newHostTable(h *hv.Hypervisor, l Layout) (*hv.HostRegion, error) {
	region, err := h.AllocHostRegion(l.Bytes())
	if err != nil {
		return nil, err
	}
	return region, newTable(h, region, l)
}

// ---------------------------------------------------------------------------
// ivshmem (direct mapping): fast, no isolation.

// DirectService owns a table in a region that is direct-mapped into every
// client VM.
type DirectService struct {
	hv     *hv.Hypervisor
	region *hv.HostRegion
}

// NewDirectService allocates and formats the shared table.
func NewDirectService(h *hv.Hypervisor, l Layout) (*DirectService, error) {
	region, err := newHostTable(h, l)
	if err != nil {
		return nil, err
	}
	return &DirectService{hv: h, region: region}, nil
}

// DirectClient issues operations straight against the mapped table.
type DirectClient struct {
	v     *cpu.VCPU
	store *Store
}

// NewClient direct-maps the table into vm and returns its client.
func (s *DirectService) NewClient(vm *hv.VM) (*DirectClient, error) {
	gpa, err := s.region.MapIntoDefault(vm, ept.PermRW)
	if err != nil {
		return nil, err
	}
	w, err := shm.NewGPAWindow(vm.VCPU(), gpa, s.region.Size())
	if err != nil {
		return nil, err
	}
	store, err := Open(w, *s.hv.Cost())
	if err != nil {
		return nil, err
	}
	return &DirectClient{v: vm.VCPU(), store: store}, nil
}

// Get implements Client.
func (c *DirectClient) Get(key, val []byte) (bool, error) {
	c.v.ChargeInstr(clientOverheadInstr)
	return c.store.Get(key, val)
}

// Put implements Client.
func (c *DirectClient) Put(key, val []byte) (simtime.Duration, error) {
	c.v.ChargeInstr(clientOverheadInstr)
	start := c.v.Clock().Now()
	err := c.store.Put(key, val)
	return c.v.Clock().Elapsed(start), err
}

// Delete implements Client.
func (c *DirectClient) Delete(key []byte) (bool, error) {
	c.v.ChargeInstr(clientOverheadInstr)
	return c.store.Delete(key)
}

// Clock implements Client.
func (c *DirectClient) Clock() *simtime.Clock { return c.v.Clock() }

// Scheme implements Client.
func (c *DirectClient) Scheme() string { return "ivshmem" }

// ---------------------------------------------------------------------------
// The isolated schemes. VMCALL (host interposition) takes one exit round
// trip per operation; ELISA one exit-less gate call. Both stage a request
// the same way and serve it with the same code: only the crossing and
// where the staged bytes live differ.

// Hypercall numbers of the VMCALL KV service. Arguments: the staging
// GPA, the key length and the value length (zero for GET and DELETE).
const (
	HCKVGet uint64 = 0x4B560001
	HCKVPut uint64 = 0x4B560002
	HCKVDel uint64 = 0x4B560003
)

// Manager function IDs of the ELISA KV service. Arguments: the key
// length and the value length (zero for GET and DELETE).
const (
	FnKVGet uint64 = 0x4B56_0101
	FnKVPut uint64 = 0x4B56_0102
	FnKVDel uint64 = 0x4B56_0103
)

// op is a KV request kind; it indexes each scheme's crossing numbers.
type op uint8

const (
	opGet op = iota
	opPut
	opDel
)

var (
	hypercallNrs = [...]uint64{opGet: HCKVGet, opPut: HCKVPut, opDel: HCKVDel}
	kvFns        = [...]uint64{opGet: FnKVGet, opPut: FnKVPut, opDel: FnKVDel}
)

// Staging layout, in guest RAM (VMCALL) or the exchange buffer (ELISA):
// key at +0 (KeySize max 256), value at +256.
const stagingKeyCap = 256

// checkRequest refuses request lengths the layout cannot hold. Services
// check before resolving the caller's store view: a view's first use
// opens it, which charges the header reads to the caller.
func (l Layout) checkRequest(keyLen, valLen int) error {
	if keyLen <= 0 || keyLen > l.KeySize || valLen < 0 || valLen > l.ValSize {
		return fmt.Errorf("kvs: request key/value lengths %d/%d outside (0,%d]/[0,%d]", keyLen, valLen, l.KeySize, l.ValSize)
	}
	return nil
}

// stage is where a request's bytes wait on the service side: the
// calling VM's RAM at gpa (VMCALL), or the gate call's exchange buffer
// (ELISA, ctx set).
type stage struct {
	vm  *hv.VM
	gpa mem.GPA
	ctx *core.CallContext
}

func (p stage) read(off int, b []byte) error {
	if p.ctx != nil {
		return p.ctx.ReadExchange(off, b)
	}
	return p.vm.GuestRead(p.gpa+mem.GPA(off), b)
}

func (p stage) write(off int, b []byte) error {
	if p.ctx != nil {
		return p.ctx.WriteExchange(off, b)
	}
	return p.vm.GuestWrite(p.gpa+mem.GPA(off), b)
}

// serve runs one staged request on store view st: it copies the key, and
// a PUT's value, into the view's request scratch, runs the operation and
// copies a found GET value back. A GET or DELETE returns 1 when the key
// was there. A PUT returns its mutation span on clk, which rides back in
// RAX so the client can report the critical section to the cluster
// driver.
func serve(st *Store, p stage, clk *simtime.Clock, o op, keyLen, valLen int) (uint64, error) {
	key, val := st.reqKey[:keyLen], st.reqVal[:valLen]
	if err := p.read(0, key); err != nil {
		return 0, err
	}
	var hit bool
	var err error
	switch o {
	case opGet:
		if hit, err = st.Get(key, st.reqVal); hit && err == nil {
			err = p.write(stagingKeyCap, st.reqVal)
		}
	case opPut:
		if err := p.read(stagingKeyCap, val); err != nil {
			return 0, err
		}
		start := clk.Now()
		if err := st.Put(key, val); err != nil {
			return 0, err
		}
		return uint64(clk.Elapsed(start)), nil
	case opDel:
		hit, err = st.Delete(key)
	}
	if err != nil || !hit {
		return 0, err
	}
	return 1, nil
}

// VMCallService owns a host-private table; guests reach it via hypercalls.
type VMCallService struct {
	hv     *hv.Hypervisor
	region *hv.HostRegion
	layout Layout
	stores map[int]*Store // per-VM store views charging that VM's clock
}

// NewVMCallService allocates the host-private table and registers the
// hypercalls.
func NewVMCallService(h *hv.Hypervisor, l Layout) (*VMCallService, error) {
	region, err := newHostTable(h, l)
	if err != nil {
		return nil, err
	}
	s := &VMCallService{hv: h, region: region, layout: l, stores: make(map[int]*Store)}
	for o, nr := range hypercallNrs {
		if err := h.RegisterHypercall(nr, func(vm *hv.VM, args [4]uint64) (uint64, error) {
			return s.hypercall(vm, op(o), args)
		}); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// hypercall serves a request staged in the calling VM's RAM.
func (s *VMCallService) hypercall(vm *hv.VM, o op, args [4]uint64) (uint64, error) {
	keyLen, valLen := int(args[1]), int(args[2])
	if err := s.layout.checkRequest(keyLen, valLen); err != nil {
		return 0, err
	}
	st, err := s.view(vm)
	if err != nil {
		return 0, err
	}
	return serve(st, stage{vm: vm, gpa: mem.GPA(args[0])}, vm.VCPU().Clock(), o, keyLen, valLen)
}

// view returns a Store view whose host-side work is charged to the
// calling VM's clock (the hypercall is serviced synchronously on its core).
func (s *VMCallService) view(vm *hv.VM) (*Store, error) {
	if st, ok := s.stores[vm.ID()]; ok {
		return st, nil
	}
	w, err := shm.NewHostWindow(s.region, vm.VCPU().Clock())
	if err != nil {
		return nil, err
	}
	st, err := Open(w, *s.hv.Cost())
	if err != nil {
		return nil, err
	}
	s.stores[vm.ID()] = st
	return st, nil
}

// NewClient sets up a client; staging must point at writable guest RAM
// with room for a key (256 B) plus one value.
func (s *VMCallService) NewClient(vm *hv.VM, staging mem.GPA) (*VMCallClient, error) {
	if int(staging)+stagingKeyCap+s.layout.ValSize > vm.RAMBytes() {
		return nil, fmt.Errorf("kvs: staging area %v does not fit in guest RAM", staging)
	}
	return &VMCallClient{stagedClient{v: vm.VCPU(), gpa: staging, valSize: s.layout.ValSize}}, nil
}

// ELISAService publishes the table as an ELISA shared object plus its
// manager functions.
type ELISAService struct {
	hv     *hv.Hypervisor
	obj    *core.Object
	layout Layout
	stores map[storeViewKey]*Store // per-view store windows (see storeViewKey)
}

// storeViewKey identifies one view of the table: a gate call sees it
// through the calling guest's sub context, at that guest's object GPA.
// Every VM's physical address space is independent, so the cache keys on
// both the vCPU and the GPA.
type storeViewKey struct {
	v    *cpu.VCPU
	base mem.GPA
}

// NewELISAService creates the manager object, formats the table inside
// it, and registers the manager functions.
func NewELISAService(h *hv.Hypervisor, mgr *core.Manager, objName string, l Layout) (*ELISAService, error) {
	obj, err := mgr.CreateObject(objName, l.Bytes())
	if err != nil {
		return nil, err
	}
	if err := newTable(h, obj.Region(), l); err != nil {
		return nil, err
	}
	s := &ELISAService{hv: h, obj: obj, layout: l, stores: make(map[storeViewKey]*Store)}
	for o, fn := range kvFns {
		if err := mgr.RegisterFunc(fn, func(ctx *core.CallContext) (uint64, error) {
			return s.call(ctx, op(o))
		}); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// call serves a request staged in the caller's exchange buffer.
func (s *ELISAService) call(ctx *core.CallContext, o op) (uint64, error) {
	keyLen, valLen := int(ctx.Args[0]), int(ctx.Args[1])
	if err := s.layout.checkRequest(keyLen, valLen); err != nil {
		return 0, err
	}
	st, err := s.view(ctx)
	if err != nil {
		return 0, err
	}
	return serve(st, stage{ctx: ctx}, ctx.VCPU.Clock(), o, keyLen, valLen)
}

// view returns a Store over the object as seen from the calling guest's
// sub context (accesses go through its vCPU, charging its clock and
// obeying its EPT grant).
func (s *ELISAService) view(ctx *core.CallContext) (*Store, error) {
	key := storeViewKey{ctx.VCPU, ctx.Object}
	if st, ok := s.stores[key]; ok {
		return st, nil
	}
	w, err := shm.NewGPAWindow(ctx.VCPU, ctx.Object, ctx.ObjectSize)
	if err != nil {
		return nil, err
	}
	st, err := Open(w, *s.hv.Cost())
	if err != nil {
		return nil, err
	}
	s.stores[key] = st
	return st, nil
}

// NewClient attaches the guest to the service's object.
func (s *ELISAService) NewClient(g *core.Guest) (*ELISAClient, error) {
	h, err := g.Attach(s.obj.Name())
	if err != nil {
		return nil, err
	}
	if h.ExchangeSize() < stagingKeyCap+s.layout.ValSize {
		return nil, fmt.Errorf("kvs: exchange buffer %d too small for value size %d", h.ExchangeSize(), s.layout.ValSize)
	}
	return &ELISAClient{stagedClient{v: g.VM().VCPU(), h: h, valSize: s.layout.ValSize}}, nil
}

// stagedClient is the guest half of both isolated schemes. It stages a
// request's key at +0 of its staging area and a PUT's value at +256,
// crosses once, and reads a found GET value back from +256. A VMCALL
// client stages in its own RAM at gpa and crosses with a hypercall; an
// ELISA client stages in its attachment's exchange buffer (h set) and
// crosses through the gate, with no exit.
type stagedClient struct {
	v       *cpu.VCPU
	gpa     mem.GPA
	h       *core.Handle
	valSize int
}

// VMCallClient stages requests in its RAM and hypercalls per operation.
type VMCallClient struct{ stagedClient }

// ELISAClient stages requests in its exchange buffer and calls through
// the gate — no exits on the data path.
type ELISAClient struct{ stagedClient }

func (c *stagedClient) write(off int, p []byte) error {
	if c.h != nil {
		return c.h.ExchangeWrite(c.v, off, p)
	}
	return c.v.WriteGPA(c.gpa+mem.GPA(off), p)
}

func (c *stagedClient) read(off int, p []byte) error {
	if c.h != nil {
		return c.h.ExchangeRead(c.v, off, p)
	}
	return c.v.ReadGPA(c.gpa+mem.GPA(off), p)
}

// send stages key, and a PUT's val, then makes the scheme's one crossing.
func (c *stagedClient) send(o op, key, val []byte) (uint64, error) {
	c.v.ChargeInstr(clientOverheadInstr)
	if err := c.write(0, key); err != nil {
		return 0, err
	}
	if o == opPut {
		if err := c.write(stagingKeyCap, val); err != nil {
			return 0, err
		}
	}
	if c.h != nil {
		return c.h.CallArgs(c.v, kvFns[o], [4]uint64{uint64(len(key)), uint64(len(val))})
	}
	return c.v.VMCall(hypercallNrs[o], uint64(c.gpa), uint64(len(key)), uint64(len(val)))
}

// Get implements Client.
func (c *stagedClient) Get(key, val []byte) (bool, error) {
	if ret, err := c.send(opGet, key, nil); err != nil || ret == 0 {
		return false, err
	}
	if err := c.read(stagingKeyCap, val[:c.valSize]); err != nil {
		return false, err
	}
	return true, nil
}

// Put implements Client.
func (c *stagedClient) Put(key, val []byte) (simtime.Duration, error) {
	cs, err := c.send(opPut, key, val)
	if err != nil {
		return 0, err
	}
	return simtime.Duration(cs), nil
}

// Delete implements Client.
func (c *stagedClient) Delete(key []byte) (bool, error) {
	ret, err := c.send(opDel, key, nil)
	return ret == 1 && err == nil, err
}

// Clock implements Client.
func (c *stagedClient) Clock() *simtime.Clock { return c.v.Clock() }

// Scheme implements Client.
func (c *stagedClient) Scheme() string {
	if c.h != nil {
		return "elisa"
	}
	return "vmcall"
}

var (
	_ Client = (*DirectClient)(nil)
	_ Client = (*VMCallClient)(nil)
	_ Client = (*ELISAClient)(nil)
)
