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

// ---------------------------------------------------------------------------
// ivshmem (direct mapping): fast, no isolation.

// DirectService owns a table in a region that is direct-mapped into every
// client VM.
type DirectService struct {
	hv     *hv.Hypervisor
	region *hv.HostRegion
	layout Layout
}

// NewDirectService allocates and formats the shared table.
func NewDirectService(h *hv.Hypervisor, l Layout) (*DirectService, error) {
	region, err := h.AllocHostRegion(l.Bytes())
	if err != nil {
		return nil, err
	}
	w, err := shm.NewHostWindow(region, nil)
	if err != nil {
		return nil, err
	}
	if _, err := Format(w, l, *h.Cost()); err != nil {
		return nil, err
	}
	return &DirectService{hv: h, region: region, layout: l}, nil
}

// Region exposes the backing region (host-side verification).
func (s *DirectService) Region() *hv.HostRegion { return s.region }

// DirectClient issues operations straight against the mapped table.
type DirectClient struct {
	vm    *hv.VM
	store *Store
	cost  simtime.CostModel
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
	return &DirectClient{vm: vm, store: store, cost: *s.hv.Cost()}, nil
}

// Get implements Client.
func (c *DirectClient) Get(key, val []byte) (bool, error) {
	c.vm.VCPU().ChargeInstr(clientOverheadInstr)
	return c.store.Get(key, val)
}

// Put implements Client.
func (c *DirectClient) Put(key, val []byte) (simtime.Duration, error) {
	c.vm.VCPU().ChargeInstr(clientOverheadInstr)
	clk := c.vm.VCPU().Clock()
	start := clk.Now()
	err := c.store.Put(key, val)
	return clk.Elapsed(start), err
}

// Delete implements Client.
func (c *DirectClient) Delete(key []byte) (bool, error) {
	c.vm.VCPU().ChargeInstr(clientOverheadInstr)
	return c.store.Delete(key)
}

// Clock implements Client.
func (c *DirectClient) Clock() *simtime.Clock { return c.vm.VCPU().Clock() }

// Scheme implements Client.
func (c *DirectClient) Scheme() string { return "ivshmem" }

// ---------------------------------------------------------------------------
// VMCALL (host-interposition): isolated, one exit round trip per op.

// Hypercall numbers of the VMCALL KV service.
const (
	HCKVGet uint64 = 0x4B560001
	HCKVPut uint64 = 0x4B560002
	HCKVDel uint64 = 0x4B560003
)

// Staging layout in guest RAM: key at +0 (KeySize max 256), value at +256.
const stagingKeyCap = 256

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
	region, err := h.AllocHostRegion(l.Bytes())
	if err != nil {
		return nil, err
	}
	w, err := shm.NewHostWindow(region, nil)
	if err != nil {
		return nil, err
	}
	if _, err := Format(w, l, *h.Cost()); err != nil {
		return nil, err
	}
	s := &VMCallService{hv: h, region: region, layout: l, stores: make(map[int]*Store)}
	if err := h.RegisterHypercall(HCKVGet, s.hcGet); err != nil {
		return nil, err
	}
	if err := h.RegisterHypercall(HCKVPut, s.hcPut); err != nil {
		return nil, err
	}
	if err := h.RegisterHypercall(HCKVDel, s.hcDel); err != nil {
		return nil, err
	}
	return s, nil
}

// Region exposes the backing region (host-side verification).
func (s *VMCallService) Region() *hv.HostRegion { return s.region }

// storeFor returns a Store view whose host-side work is charged to the
// calling VM's clock (the hypercall is serviced synchronously on its core).
func (s *VMCallService) storeFor(vm *hv.VM) (*Store, error) {
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

func (s *VMCallService) hcGet(vm *hv.VM, args [4]uint64) (uint64, error) {
	staging, keyLen := mem.GPA(args[0]), int(args[1])
	if keyLen <= 0 || keyLen > s.layout.KeySize {
		return 0, fmt.Errorf("kvs: hypercall key length %d invalid", keyLen)
	}
	st, err := s.storeFor(vm)
	if err != nil {
		return 0, err
	}
	key, val := st.reqKey[:keyLen], st.reqVal
	if err := vm.GuestRead(staging, key); err != nil {
		return 0, err
	}
	found, err := st.Get(key, val)
	if err != nil {
		return 0, err
	}
	if !found {
		return 0, nil
	}
	if err := vm.GuestWrite(staging+stagingKeyCap, val); err != nil {
		return 0, err
	}
	return 1, nil
}

func (s *VMCallService) hcPut(vm *hv.VM, args [4]uint64) (uint64, error) {
	staging, keyLen, valLen := mem.GPA(args[0]), int(args[1]), int(args[2])
	if keyLen <= 0 || keyLen > s.layout.KeySize || valLen < 0 || valLen > s.layout.ValSize {
		return 0, fmt.Errorf("kvs: hypercall lengths %d/%d invalid", keyLen, valLen)
	}
	st, err := s.storeFor(vm)
	if err != nil {
		return 0, err
	}
	key, val := st.reqKey[:keyLen], st.reqVal[:valLen]
	if err := vm.GuestRead(staging, key); err != nil {
		return 0, err
	}
	if err := vm.GuestRead(staging+stagingKeyCap, val); err != nil {
		return 0, err
	}
	clk := vm.VCPU().Clock()
	start := clk.Now()
	if err := st.Put(key, val); err != nil {
		return 0, err
	}
	// Model instrumentation: the mutation span rides back in RAX so the
	// client can report the critical section to the cluster runner.
	return uint64(clk.Elapsed(start)), nil
}

func (s *VMCallService) hcDel(vm *hv.VM, args [4]uint64) (uint64, error) {
	staging, keyLen := mem.GPA(args[0]), int(args[1])
	if keyLen <= 0 || keyLen > s.layout.KeySize {
		return 0, fmt.Errorf("kvs: hypercall key length %d invalid", keyLen)
	}
	st, err := s.storeFor(vm)
	if err != nil {
		return 0, err
	}
	key := st.reqKey[:keyLen]
	if err := vm.GuestRead(staging, key); err != nil {
		return 0, err
	}
	existed, err := st.Delete(key)
	if err != nil {
		return 0, err
	}
	if existed {
		return 1, nil
	}
	return 0, nil
}

// VMCallClient stages requests in its RAM and hypercalls per operation.
type VMCallClient struct {
	vm      *hv.VM
	svc     *VMCallService
	staging mem.GPA
}

// NewClient sets up a client; staging must point at writable guest RAM
// with room for a key (256 B) plus one value.
func (s *VMCallService) NewClient(vm *hv.VM, staging mem.GPA) (*VMCallClient, error) {
	if int(staging)+stagingKeyCap+s.layout.ValSize > vm.RAMBytes() {
		return nil, fmt.Errorf("kvs: staging area %v does not fit in guest RAM", staging)
	}
	return &VMCallClient{vm: vm, svc: s, staging: staging}, nil
}

// Get implements Client.
func (c *VMCallClient) Get(key, val []byte) (bool, error) {
	v := c.vm.VCPU()
	v.ChargeInstr(clientOverheadInstr)
	if err := v.WriteGPA(c.staging, key); err != nil {
		return false, err
	}
	ret, err := v.VMCall(HCKVGet, uint64(c.staging), uint64(len(key)))
	if err != nil {
		return false, err
	}
	if ret == 0 {
		return false, nil
	}
	if err := v.ReadGPA(c.staging+stagingKeyCap, val[:c.svc.layout.ValSize]); err != nil {
		return false, err
	}
	return true, nil
}

// Put implements Client.
func (c *VMCallClient) Put(key, val []byte) (simtime.Duration, error) {
	v := c.vm.VCPU()
	v.ChargeInstr(clientOverheadInstr)
	if err := v.WriteGPA(c.staging, key); err != nil {
		return 0, err
	}
	if err := v.WriteGPA(c.staging+stagingKeyCap, val); err != nil {
		return 0, err
	}
	cs, err := v.VMCall(HCKVPut, uint64(c.staging), uint64(len(key)), uint64(len(val)))
	if err != nil {
		return 0, err
	}
	return simtime.Duration(cs), nil
}

// Delete implements Client.
func (c *VMCallClient) Delete(key []byte) (bool, error) {
	v := c.vm.VCPU()
	v.ChargeInstr(clientOverheadInstr)
	if err := v.WriteGPA(c.staging, key); err != nil {
		return false, err
	}
	ret, err := v.VMCall(HCKVDel, uint64(c.staging), uint64(len(key)))
	if err != nil {
		return false, err
	}
	return ret == 1, nil
}

// Clock implements Client.
func (c *VMCallClient) Clock() *simtime.Clock { return c.vm.VCPU().Clock() }

// Scheme implements Client.
func (c *VMCallClient) Scheme() string { return "vmcall" }

// ---------------------------------------------------------------------------
// ELISA: isolated, exit-less.

// Manager function IDs of the ELISA KV service. FnKVGetAt is the
// ring-datapath variant of FnKVGet: it carries an explicit exchange slot
// offset in its second argument word, so several in-flight lookups can
// stage keys and receive values side by side in one exchange buffer.
const (
	FnKVGet   uint64 = 0x4B56_0101
	FnKVPut   uint64 = 0x4B56_0102
	FnKVDel   uint64 = 0x4B56_0103
	FnKVGetAt uint64 = 0x4B56_0104
)

// Exchange layout: key at +0, value at +256.

// ELISAService publishes the table as an ELISA shared object plus two
// manager functions.
type ELISAService struct {
	hv     *hv.Hypervisor
	mgr    *core.Manager
	obj    *core.Object
	layout Layout
	stores map[storeViewKey]*Store // per-view store windows (see storeViewKey)
}

// storeViewKey identifies one view of the table: gate calls see it
// through the calling guest's sub context, while manager-poller ring
// drains see it through the manager VM's own mappings — a different vCPU
// and a different GPA. Since every VM's physical address space is
// independent, the cache must key on both.
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
	w, err := shm.NewHostWindow(obj.Region(), nil)
	if err != nil {
		return nil, err
	}
	if _, err := Format(w, l, *h.Cost()); err != nil {
		return nil, err
	}
	s := &ELISAService{hv: h, mgr: mgr, obj: obj, layout: l, stores: make(map[storeViewKey]*Store)}
	if err := mgr.RegisterFunc(FnKVGet, s.fnGet); err != nil {
		return nil, err
	}
	if err := mgr.RegisterFunc(FnKVPut, s.fnPut); err != nil {
		return nil, err
	}
	if err := mgr.RegisterFunc(FnKVDel, s.fnDel); err != nil {
		return nil, err
	}
	if err := mgr.RegisterFunc(FnKVGetAt, s.fnGetAt); err != nil {
		return nil, err
	}
	return s, nil
}

// Object exposes the shared object (host-side verification).
func (s *ELISAService) Object() *core.Object { return s.obj }

// storeFor returns a Store over the object as seen from the calling
// guest's sub context (accesses go through its vCPU, charging its clock
// and obeying its EPT grant).
func (s *ELISAService) storeFor(ctx *core.CallContext) (*Store, error) {
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

func (s *ELISAService) fnGet(ctx *core.CallContext) (uint64, error) {
	keyLen := int(ctx.Args[0])
	if keyLen <= 0 || keyLen > s.layout.KeySize {
		return 0, fmt.Errorf("kvs: elisa key length %d invalid", keyLen)
	}
	st, err := s.storeFor(ctx)
	if err != nil {
		return 0, err
	}
	key, val := st.reqKey[:keyLen], st.reqVal
	if err := ctx.ReadExchange(0, key); err != nil {
		return 0, err
	}
	found, err := st.Get(key, val)
	if err != nil {
		return 0, err
	}
	if !found {
		return 0, nil
	}
	if err := ctx.WriteExchange(stagingKeyCap, val); err != nil {
		return 0, err
	}
	return 1, nil
}

func (s *ELISAService) fnPut(ctx *core.CallContext) (uint64, error) {
	keyLen, valLen := int(ctx.Args[0]), int(ctx.Args[1])
	if keyLen <= 0 || keyLen > s.layout.KeySize || valLen < 0 || valLen > s.layout.ValSize {
		return 0, fmt.Errorf("kvs: elisa lengths %d/%d invalid", keyLen, valLen)
	}
	st, err := s.storeFor(ctx)
	if err != nil {
		return 0, err
	}
	key, val := st.reqKey[:keyLen], st.reqVal[:valLen]
	if err := ctx.ReadExchange(0, key); err != nil {
		return 0, err
	}
	if err := ctx.ReadExchange(stagingKeyCap, val); err != nil {
		return 0, err
	}
	clk := ctx.VCPU.Clock()
	start := clk.Now()
	if err := st.Put(key, val); err != nil {
		return 0, err
	}
	return uint64(clk.Elapsed(start)), nil
}

func (s *ELISAService) fnDel(ctx *core.CallContext) (uint64, error) {
	keyLen := int(ctx.Args[0])
	if keyLen <= 0 || keyLen > s.layout.KeySize {
		return 0, fmt.Errorf("kvs: elisa key length %d invalid", keyLen)
	}
	st, err := s.storeFor(ctx)
	if err != nil {
		return 0, err
	}
	key := st.reqKey[:keyLen]
	if err := ctx.ReadExchange(0, key); err != nil {
		return 0, err
	}
	existed, err := st.Delete(key)
	if err != nil {
		return 0, err
	}
	if existed {
		return 1, nil
	}
	return 0, nil
}

// ELISAClient stages requests in its exchange buffer and calls through
// the gate — no exits on the data path.
type ELISAClient struct {
	g      *core.Guest
	handle *core.Handle
	svc    *ELISAService
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
	return &ELISAClient{g: g, handle: h, svc: s}, nil
}

// Get implements Client.
func (c *ELISAClient) Get(key, val []byte) (bool, error) {
	v := c.g.VM().VCPU()
	v.ChargeInstr(clientOverheadInstr)
	if err := c.handle.ExchangeWrite(v, 0, key); err != nil {
		return false, err
	}
	ret, err := c.handle.Call(v, FnKVGet, uint64(len(key)))
	if err != nil {
		return false, err
	}
	if ret == 0 {
		return false, nil
	}
	if err := c.handle.ExchangeRead(v, stagingKeyCap, val[:c.svc.layout.ValSize]); err != nil {
		return false, err
	}
	return true, nil
}

// Put implements Client.
func (c *ELISAClient) Put(key, val []byte) (simtime.Duration, error) {
	v := c.g.VM().VCPU()
	v.ChargeInstr(clientOverheadInstr)
	if err := c.handle.ExchangeWrite(v, 0, key); err != nil {
		return 0, err
	}
	if err := c.handle.ExchangeWrite(v, stagingKeyCap, val); err != nil {
		return 0, err
	}
	cs, err := c.handle.Call(v, FnKVPut, uint64(len(key)), uint64(len(val)))
	if err != nil {
		return 0, err
	}
	return simtime.Duration(cs), nil
}

// Delete implements Client.
func (c *ELISAClient) Delete(key []byte) (bool, error) {
	v := c.g.VM().VCPU()
	v.ChargeInstr(clientOverheadInstr)
	if err := c.handle.ExchangeWrite(v, 0, key); err != nil {
		return false, err
	}
	ret, err := c.handle.Call(v, FnKVDel, uint64(len(key)))
	if err != nil {
		return false, err
	}
	return ret == 1, nil
}

// Clock implements Client.
func (c *ELISAClient) Clock() *simtime.Clock { return c.g.VM().VCPU().Clock() }

// Scheme implements Client.
func (c *ELISAClient) Scheme() string { return "elisa" }

var (
	_ Client = (*DirectClient)(nil)
	_ Client = (*VMCallClient)(nil)
	_ Client = (*ELISAClient)(nil)
)

// VCPUOf returns the vCPU a client issues operations on (test helper).
func VCPUOf(c Client) *cpu.VCPU {
	switch x := c.(type) {
	case *DirectClient:
		return x.vm.VCPU()
	case *VMCallClient:
		return x.vm.VCPU()
	case *ELISAClient:
		return x.g.VM().VCPU()
	}
	return nil
}
