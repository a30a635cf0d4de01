package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/elisa-go/elisa/internal/cpu"
	"github.com/elisa-go/elisa/internal/ept"
	"github.com/elisa-go/elisa/internal/fault"
	"github.com/elisa-go/elisa/internal/hv"
	"github.com/elisa-go/elisa/internal/mem"
	"github.com/elisa-go/elisa/internal/obs"
	"github.com/elisa-go/elisa/internal/simtime"
	"github.com/elisa-go/elisa/internal/trace"
)

// Fixed guest-physical landmarks shared by every sub context. Keeping them
// constant across guests lets one copy of the manager code address objects
// uniformly, as in the paper's implementation.
const (
	// MgrCodeGPA is where the manager code page appears in sub contexts.
	MgrCodeGPA mem.GPA = 0x9000_0000
	// StackGPA is where the per-guest ELISA stack appears in gate and sub
	// contexts.
	StackGPA mem.GPA = 0xA000_0000
	// objectBaseGPA is the bottom of the shared-object address range.
	objectBaseGPA mem.GPA = 0x8000_0000
)

// EPTP-list slot conventions.
const (
	// IdxDefault is the EPTP-list slot of the guest's default context.
	IdxDefault = 0
	// IdxGate is the EPTP-list slot of the gate context.
	IdxGate = 1
	// firstSubIdx is the first slot used for sub contexts.
	firstSubIdx = 2
)

// exchangePages is the size of the per-attachment exchange buffer guests
// stage arguments and results in (mapped in the guest default context and
// the sub context, never in other guests').
const exchangePages = 8

// ExchangeBytes is the byte size of an attachment's exchange buffer.
const ExchangeBytes = exchangePages * mem.PageSize

// Object is a shared in-memory object owned by the manager. Its pages live
// in host memory and are mapped only into sub EPT contexts, at the same
// GPA in every one of them.
type Object struct {
	name        string
	region      *hv.HostRegion
	size        int
	gpa         mem.GPA
	huge        bool             // mapped with 2MiB EPT entries
	defaultPerm ept.Perm         // grant for guests with no explicit ACL entry
	acl         map[int]ept.Perm // per-VM-id overrides

	// Manager-VM default-context mapping, built lazily on first ring
	// setup so host-side drains can address the object (see ring.go).
	mgrGPA    mem.GPA
	mgrMapped bool
}

// Name returns the object's name.
func (o *Object) Name() string { return o.name }

// Size returns the object's size in bytes (whole pages).
func (o *Object) Size() int { return o.size }

// GPA returns the object's address in every sub context that maps it.
func (o *Object) GPA() mem.GPA { return o.gpa }

// Region exposes the backing host region (manager/host-side access).
func (o *Object) Region() *hv.HostRegion { return o.region }

// CallContext is what a manager function sees while servicing one
// exit-less call: the calling vCPU (running in the sub context), the
// object and exchange-buffer windows, and the guest's register arguments.
type CallContext struct {
	// VCPU is the caller's vCPU, currently executing in the sub context.
	// All memory access must go through it.
	VCPU *cpu.VCPU

	// Object is the base GPA of the attached object in the sub context.
	Object mem.GPA
	// ObjectSize is the object's size in bytes.
	ObjectSize int

	// Exchange is the base GPA of the caller's exchange buffer.
	Exchange mem.GPA
	// ExchangeSize is the exchange buffer's size in bytes.
	ExchangeSize int

	// Args are the guest's register arguments (RDI, RSI, RDX, RCX).
	Args [4]uint64

	// GuestID identifies the calling VM (for per-guest state in
	// manager functions).
	GuestID int

	// exchTime, when non-nil, accumulates the simulated time the call
	// spends in the exchange-buffer helpers (the flight recorder's
	// exchange phase). Set by Manager.invoke while a recorder is attached.
	exchTime *simtime.Duration
}

// ObjectFunc is a manager-provided function: code the manager publishes in
// the manager code page, invoked by guests through the gate. It returns a
// result for the guest's RAX.
type ObjectFunc func(ctx *CallContext) (uint64, error)

// Manager is the ELISA manager-VM runtime. Host-side code creates exactly
// one per machine; guests talk to it only through the negotiation
// hypercalls (slow path) and the gate (fast path).
//
// The manager is safe for concurrent use by multiple guest-driving
// goroutines (one goroutine per guest vCPU): all slow-path work — the
// negotiation hypercalls, slot faults, and every public accessor —
// serialises on one mutex, mirroring the single manager VM of the real
// system. The fast path takes the lock only for the gate's slot-table
// lookups, never while a manager function runs.
type Manager struct {
	hv   *hv.Hypervisor
	vm   *hv.VM            // the manager VM itself
	cost simtime.CostModel // the machine's cost model, read per ring visit

	gateCode *hv.HostRegion // 1 page, RX in default+gate+sub contexts
	mgrCode  *hv.HostRegion // 1 page, RX in sub contexts only

	// mu guards all mutable manager state below. Lowercase helpers assume
	// it is held; exported methods and hypercall handlers take it.
	mu sync.Mutex

	// pollMu serialises manager-side ring work: DrainRings passes,
	// administrative failRing completions, and post-mortem ring-memory
	// release. Lock order is pollMu > (per-ring) drainMu > mu — nothing
	// takes pollMu or a drainMu while holding mu (see ring.go).
	pollMu sync.Mutex

	objects    map[string]*Object
	nextObjGPA mem.GPA

	guests map[int]*guestState // by VM id
	funcs  map[uint64]ObjectFunc

	// slotBudget is the per-guest cap on physical EPTP-list slots handed
	// to sub contexts (see ManagerConfig.SlotBudget). Attachments beyond
	// it stay virtual until a slot fault backs them.
	slotBudget int
	// lruTick is a global logical clock stamped onto attachments on every
	// fast-path hit; the eviction policy takes the per-guest minimum.
	lruTick uint64

	// rec, when non-nil, is the fast-path flight recorder Call/CallMulti
	// report spans to. Nil means observability is off and the hot path
	// pays exactly one pointer comparison.
	rec *obs.Recorder

	// inj, when non-nil, is the armed fault injector. Like the recorder
	// it costs the hot path exactly one nil check when chaos is off, and
	// it never charges simulated time of its own.
	inj *fault.Injector

	// ov configures overload control on the drain side (busy bounce-backs
	// and weighted-fair budget splits — see SetOverload). Like rec and inj
	// it is set before traffic starts and read without mu. drainCursor
	// rotates the weighted-fair starting guest across DrainRings passes so
	// leftover budget is not always handed to the lowest VM id; it is
	// guarded by pollMu.
	ov          OverloadConfig
	drainCursor int

	// gen counts changes to what the DrainRings worklist is built from:
	// guest state torn down, an attachment revoked, a ring set up, a poll
	// weight set. Guarded by mu. Creating guest state or binding a vslot
	// does not bump it: the worklist holds only rings, and a guest or
	// attachment joins it only through ring setup, which does.
	gen uint64

	// The DrainRings worklist, guarded by pollMu like drainCursor: the live
	// rings in (VM id, vslot) order, grouped by guest, as built when gen
	// read drainGen. A pass rebuilds it, into the same slices, only when
	// gen has moved since.
	drainGen     uint64
	drainIDs     []int
	drainVslots  []int
	drainTargets []drainTarget
	drainGroups  []drainGroup

	// recovery-side accounting (see RecoveryStats).
	recoveries    uint64 // RecoverGuest completions
	midGateDeaths uint64 // recovered guests that died inside gate/sub ctx
	repairs       uint64 // FsckRepair fixes applied
	retries       uint64 // guest-side negotiation retries after transient faults
}

// SetRecorder attaches (or, with nil, detaches) the fast-path flight
// recorder. Recording never charges simulated time, so switching it on
// does not change any measured latency.
func (m *Manager) SetRecorder(r *obs.Recorder) { m.rec = r }

// Recorder returns the attached flight recorder (nil when off).
func (m *Manager) Recorder() *obs.Recorder { return m.rec }

// SetInjector arms (or, with nil, disarms) a fault injector on the
// manager's hook points. Injection checks read clocks but never charge
// them, so with no fault due the hot path still costs exactly 196 ns.
func (m *Manager) SetInjector(inj *fault.Injector) { m.inj = inj }

// Injector returns the armed fault injector (nil when chaos is off).
func (m *Manager) Injector() *fault.Injector { return m.inj }

// guestState is the manager's per-guest bookkeeping.
type guestState struct {
	vm      *hv.VM
	list    *ept.List
	gateCtx *ept.Table
	gateGPA mem.GPA
	stack   *hv.HostRegion

	// Slot virtualisation. Attachments are named by stable *virtual* slot
	// IDs (monotone, never reused — a stale handle can never alias a new
	// grant). A virtual slot is *backed* when an entry of the guest's
	// physical EPTP list holds its sub context; at most budget slots are
	// backed at once, and the LRU binding is evicted to make room. The
	// gate switches only to physical slots; the vslot->phys table below is
	// the gate code's slot table.
	budget    int
	nextVSlot int
	vslots    map[int]*Attachment // by virtual slot, incl. revoked (stale)
	physAtt   map[int]*Attachment // by physical slot, backed only

	// attachments by object name; granted marks live *physical* EPTP-list
	// slots the gate will let this guest switch to; retired holds detached
	// attachments whose exchange buffers await CleanupGuest (the guest's
	// default context may still map them).
	attachments map[string]*Attachment
	granted     map[int]bool
	retired     []*Attachment

	// pendingReap holds revoked attachments whose sub context and TLB
	// entries still await teardown. Revocation is split in two because the
	// revoker may be on a different goroutine than the guest's vCPU: the
	// logical half (revoked flag, list entry, grant) happens immediately
	// under m.mu, while destroying the context and invalidating the TLB
	// must run on the vCPU's own execution path — the moral equivalent of
	// the TLB-shootdown IPI — and is drained by resolveSlot on the
	// guest's next call (or by RecoverGuest/CleanupGuest post-mortem).
	pendingReap []*Attachment

	// pollWeight is the guest's weighted-fair share of the DrainRings
	// budget (see Manager.SetPollWeight); zero or negative means 1.
	pollWeight int

	// slow-path accounting (see Manager.SlotStats)
	faults    uint64
	evictions uint64

	// Gate-path epochs. gateEntries is bumped when the gate admits an
	// inbound crossing (gateAllowsBinding returns true); gateExits when the
	// outbound crossing completes. A dead guest with entries > exits died
	// inside a gate or sub context — the signal RecoverGuest keys on.
	gateEntries uint64
	gateExits   uint64
}

// Attachment is one (guest, object) grant: a sub EPT context plus its
// exchange buffer, named by a stable virtual slot and backed — when the
// guest's slot budget allows — by a physical EPTP-list slot.
type Attachment struct {
	guest       *hv.VM
	obj         *Object
	subCtx      *ept.Table
	vslot       int
	phys        int // physical EPTP-list slot, or physNone when unbacked
	lastUse     uint64
	perm        ept.Perm
	exchange    *hv.HostRegion
	exchangeGPA mem.GPA
	revoked     bool

	// ring, when non-nil, is the attachment's negotiated call ring — the
	// exit-less datapath descriptors travel instead of per-op gate
	// crossings (see ring.go).
	ring *ringState

	// accounting (see Manager.Stats); atomic so the fast path bumps them
	// without the manager lock.
	calls    atomic.Uint64
	fnErrors atomic.Uint64
}

// physNone marks an attachment without a physical EPTP-list slot.
const physNone = -1

// SubIndex returns the attachment's virtual slot ID (what the guest's
// handle names; stable for the attachment's lifetime).
func (a *Attachment) SubIndex() int { return a.vslot }

// PhysIndex returns the physical EPTP-list slot currently backing the
// attachment, or -1 when it is unbacked (the next call takes a slot fault).
func (a *Attachment) PhysIndex() int { return a.phys }

// ExchangeGPA returns the guest-visible exchange buffer address.
func (a *Attachment) ExchangeGPA() mem.GPA { return a.exchangeGPA }

// ManagerConfig configures NewManager.
type ManagerConfig struct {
	// SlotBudget caps the physical EPTP-list slots each guest's sub
	// contexts may occupy at once, in [0, MaxSlotBudget]; 0 means the
	// whole list (minus the default and gate slots), and NewManager
	// refuses a value outside that range. Attachments beyond the budget
	// still succeed; their first call re-negotiates a slot over
	// HCSlotFault.
	SlotBudget int
}

// MaxSlotBudget is the largest SlotBudget: every EPTP-list entry but the
// default and gate slots.
const MaxSlotBudget = ept.ListEntries - firstSubIdx

// managerRAM is the manager VM's private RAM.
const managerRAM = 16 * mem.PageSize

// NewManager boots the manager VM and its runtime, and registers the
// negotiation hypercalls with the hypervisor.
func NewManager(h *hv.Hypervisor, cfg ManagerConfig) (*Manager, error) {
	if cfg.SlotBudget < 0 || cfg.SlotBudget > MaxSlotBudget {
		return nil, fmt.Errorf("core: SlotBudget %d outside [0, %d] (0 = the whole list)", cfg.SlotBudget, MaxSlotBudget)
	}
	if cfg.SlotBudget == 0 {
		cfg.SlotBudget = MaxSlotBudget
	}
	vm, err := h.CreateVM("elisa-manager", managerRAM)
	if err != nil {
		return nil, err
	}
	gate, err := h.AllocHostRegion(mem.PageSize)
	if err != nil {
		return nil, err
	}
	mcode, err := h.AllocHostRegion(mem.PageSize)
	if err != nil {
		return nil, err
	}
	// Stamp the code pages so tests (and curious guests, where mapped)
	// can recognise them byte-for-byte.
	if err := gate.Write(nil, 0, []byte(GateCodeMagic)); err != nil {
		return nil, err
	}
	if err := mcode.Write(nil, 0, []byte(MgrCodeMagic)); err != nil {
		return nil, err
	}
	m := &Manager{
		hv:         h,
		vm:         vm,
		cost:       h.Cost(),
		gateCode:   gate,
		mgrCode:    mcode,
		objects:    make(map[string]*Object),
		nextObjGPA: objectBaseGPA,
		guests:     make(map[int]*guestState),
		funcs:      make(map[uint64]ObjectFunc),
		slotBudget: cfg.SlotBudget,
	}
	if err := m.registerHypercalls(); err != nil {
		return nil, err
	}
	return m, nil
}

// Magic prefixes written into the manager's code pages.
const (
	GateCodeMagic = "ELISA-GATE\x90\x90"
	MgrCodeMagic  = "ELISA-MGRCODE\x90"
)

// VM returns the manager VM.
func (m *Manager) VM() *hv.VM { return m.vm }

// CreateObject allocates a shared object of at least size bytes. Guests
// may attach with the default grant (read-write) unless restricted.
func (m *Manager) CreateObject(name string, size int) (*Object, error) {
	return m.allocObject(name, size, false)
}

// CreateObjectHuge allocates a shared object backed by physically
// contiguous memory and mapped into sub contexts with 2 MiB EPT entries —
// fewer table frames, deeper TLB reach for large objects (see the
// ext_hugepages experiment).
func (m *Manager) CreateObjectHuge(name string, size int) (*Object, error) {
	return m.allocObject(name, size, true)
}

// Huge reports whether the object uses 2 MiB mappings.
func (o *Object) Huge() bool { return o.huge }

// CreateObjectFromRegion publishes an existing host region (e.g. a device
// DMA ring the manager VM drives) as a shared object. The manager takes
// ownership of the region's mappings into sub contexts; the region itself
// remains with its allocator.
func (m *Manager) CreateObjectFromRegion(name string, region *hv.HostRegion) (*Object, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.checkNewNameLocked(name); err != nil {
		return nil, err
	}
	if region == nil {
		return nil, fmt.Errorf("core: object %q: nil region", name)
	}
	return m.publishLocked(name, region, false), nil
}

func (m *Manager) allocObject(name string, size int, huge bool) (*Object, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.checkNewNameLocked(name); err != nil {
		return nil, err
	}
	if size <= 0 {
		return nil, fmt.Errorf("core: object %q: size %d must be positive", name, size)
	}
	alloc := m.hv.AllocHostRegion
	if huge {
		alloc = m.hv.AllocHostRegionHuge
	}
	region, err := alloc(size)
	if err != nil {
		return nil, fmt.Errorf("core: object %q: %w", name, err)
	}
	return m.publishLocked(name, region, huge), nil
}

// checkNewNameLocked is the name check every object constructor shares.
func (m *Manager) checkNewNameLocked(name string) error {
	if name == "" {
		return fmt.Errorf("core: object name must not be empty")
	}
	if _, dup := m.objects[name]; dup {
		return fmt.Errorf("core: object %q already exists", name)
	}
	return nil
}

// publishLocked places a new object at the next free GPA of the
// shared-object range (2 MiB aligned when huge, as huge mappings need)
// and registers it. A guard page follows every object: a linear overrun
// in manager code faults instead of silently entering the next object.
func (m *Manager) publishLocked(name string, region *hv.HostRegion, huge bool) *Object {
	gpa := m.nextObjGPA
	if huge {
		gpa = (gpa + ept.HugePageSize - 1) &^ (ept.HugePageSize - 1)
	}
	o := &Object{
		name:        name,
		region:      region,
		size:        region.Size(),
		gpa:         gpa,
		huge:        huge,
		defaultPerm: ept.PermRW,
		acl:         make(map[int]ept.Perm),
	}
	m.nextObjGPA = gpa + mem.GPA((region.Pages()+1)*mem.PageSize)
	m.objects[name] = o
	// Building the object is manager-side work.
	m.vm.VCPU().Charge(m.cost.MemAccess * 4)
	return o
}

// Object looks up a shared object by name.
func (m *Manager) Object(name string) (*Object, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	o, ok := m.objects[name]
	return o, ok
}

// Restrict sets the grant given to guests without an explicit Grant entry;
// ept.Perm(0) means "deny unless explicitly granted".
func (m *Manager) Restrict(objName string, defaultPerm ept.Perm) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	o, ok := m.objects[objName]
	if !ok {
		return fmt.Errorf("core: no object %q", objName)
	}
	o.defaultPerm = defaultPerm
	return nil
}

// Grant sets the permission a specific guest receives when attaching to
// the object (overriding the default grant).
func (m *Manager) Grant(objName string, guest *hv.VM, perm ept.Perm) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	o, ok := m.objects[objName]
	if !ok {
		return fmt.Errorf("core: no object %q", objName)
	}
	o.acl[guest.ID()] = perm
	return nil
}

// RegisterFunc publishes a manager function under id; guests invoke it
// with Handle.Call. In the paper's terms this places code in the manager
// code page.
func (m *Manager) RegisterFunc(id uint64, fn ObjectFunc) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if fn == nil {
		return fmt.Errorf("core: nil function for id %d", id)
	}
	if _, dup := m.funcs[id]; dup {
		return fmt.Errorf("core: function id %d already registered", id)
	}
	m.funcs[id] = fn
	return nil
}

// Attachment returns the live attachment of a guest to an object, if any.
func (m *Manager) Attachment(guest *hv.VM, objName string) (*Attachment, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	gs, ok := m.guests[guest.ID()]
	if !ok {
		return nil, false
	}
	a, ok := gs.attachments[objName]
	if !ok || a.revoked {
		return nil, false
	}
	return a, true
}

// Revoke withdraws a guest's access to an object: the backing EPTP-list
// slot (if any) is cleared and the sub context destroyed. The guest's next
// cooperative call is refused at the gate; a guest that bypasses the gate
// and VMFUNCs straight to the dead slot faults and the hypervisor kills
// it — revocation is immediate and non-negotiable.
func (m *Manager) Revoke(guest *hv.VM, objName string) error {
	m.mu.Lock()
	gs, ok := m.guests[guest.ID()]
	if !ok {
		m.mu.Unlock()
		return fmt.Errorf("core: guest %q has no ELISA state", guest.Name())
	}
	a, ok := gs.attachments[objName]
	if !ok || a.revoked {
		m.mu.Unlock()
		return fmt.Errorf("core: guest %q is not attached to %q", guest.Name(), objName)
	}
	a.revoked = true
	m.gen++
	if err := m.unbindLocked(gs, a); err != nil {
		m.mu.Unlock()
		return err
	}
	// The manager's clock, not the guest's: Revoke may race the guest's
	// own execution, and the guest clock belongs to its goroutine.
	m.hv.Trace().Emit(m.vm.VCPU().Clock().Now(), guest.Name(), trace.KindRevoke,
		"object %q vslot %d", objName, a.vslot)
	// The list entry and grant are gone (the gate refuses the slot from
	// this instant), but the context teardown is deferred to the guest's
	// own vCPU: it may be executing in the sub context right now, and its
	// TLB can only be shot down from its own execution path.
	gs.pendingReap = append(gs.pendingReap, a)
	rs := a.ring
	m.mu.Unlock()
	// Outside m.mu (lock order — see ring.go): administratively complete
	// any descriptors still queued on the attachment's ring, so revocation
	// never strands submitted work.
	m.failRing(a, rs)
	return nil
}

// unbindLocked releases an attachment's physical slot, if it has one:
// list entry cleared, gate grant withdrawn, free-pool accounting updated.
// The virtual slot stays in gs.vslots (marked stale by a.revoked) so stale
// handles keep resolving to a clean gate refusal.
func (m *Manager) unbindLocked(gs *guestState, a *Attachment) error {
	if a.phys == physNone {
		return nil
	}
	delete(gs.granted, a.phys)
	delete(gs.physAtt, a.phys)
	if err := gs.list.Revoke(a.phys); err != nil {
		return err
	}
	a.phys = physNone
	return nil
}

// SubTableFrames reports how many physical frames the attachment's sub
// context spends on page tables (the hugepage experiment's metric).
func (a *Attachment) SubTableFrames() int {
	if a.subCtx == nil || a.revoked {
		return 0
	}
	return a.subCtx.TableFrames()
}
