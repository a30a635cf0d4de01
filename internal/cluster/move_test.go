package cluster

import (
	"fmt"
	"strings"
	"testing"

	"github.com/elisa-go/elisa/internal/core"
	"github.com/elisa-go/elisa/internal/ept"
	"github.com/elisa-go/elisa/internal/fleet"
	"github.com/elisa-go/elisa/internal/mem"
	"github.com/elisa-go/elisa/internal/shm"
)

// farDeadline keeps ring descriptors parked for the poller: the flush
// policy never fires on its own inside a test.
const farDeadline = 1_000_000_000

// TestMoveObjectRoundTrip: an object moved A→B→A→B with no guest
// attached lives on exactly one shard after every move, keeps its bytes,
// and leaves each shard's FreeFrames exactly where it was before the
// object arrived.
func TestMoveObjectRoundTrip(t *testing.T) {
	c := newTestCluster(t, 2, 1)
	free := func(shard int) int { return c.Shard(shard).Hypervisor().Phys().FreeFrames() }
	before := [2]int{free(0), free(1)}
	if err := c.Ring().Pin("o", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateObject("o", 64*mem.PageSize); err != nil {
		t.Fatal(err)
	}
	obj, _ := c.Shard(0).Manager().Object("o")
	payload := []byte("one home per object")
	if err := obj.Region().Write(nil, 100, payload); err != nil {
		t.Fatal(err)
	}
	for i, to := range []int{1, 0, 1} {
		from := 1 - to
		if err := c.MoveObject("o", to); err != nil {
			t.Fatalf("move %d to shard %d: %v", i+1, to, err)
		}
		if _, ok := c.Shard(from).Manager().Object("o"); ok {
			t.Fatalf("move %d: source shard %d still holds the object", i+1, from)
		}
		if got := free(from); got != before[from] {
			t.Fatalf("move %d: source shard %d FreeFrames %d, want %d (its level before the object arrived)",
				i+1, from, got, before[from])
		}
		if got := c.Owner("o"); got != to {
			t.Fatalf("move %d: owner %d, want %d", i+1, got, to)
		}
		want := fmt.Sprintf("shard %d: 1 objects [o]\nshard %d: 0 objects []\n", to, from)
		if to == 1 {
			want = fmt.Sprintf("shard %d: 0 objects []\nshard %d: 1 objects [o]\n", from, to)
		}
		if got := c.Describe(); got != want {
			t.Fatalf("move %d: Describe\n%s\nwant\n%s", i+1, got, want)
		}
	}
	moved, _ := c.Shard(1).Manager().Object("o")
	got := make([]byte, len(payload))
	if err := moved.Region().Read(nil, 100, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(payload) {
		t.Fatalf("bytes after three moves %q, want %q", got, payload)
	}
	if st := c.Stats(); st.Objects != 1 || st.Moves != 3 {
		t.Fatalf("Stats: %d objects, %d moves; want 1 and 3", st.Objects, st.Moves)
	}
}

// TestMoveObjectIsolatesSource: after a move with a guest attached and
// a ring live on the source, the source keeps nothing that can be
// reached. In-flight descriptors complete as CompErr; the stale handle
// is refused at the gate; the old frames stay allocated exactly as long
// as the guest's revoked sub context still maps them — freed when the
// guest's own vCPU reaps it — and after that no context on the source
// maps them; and a guest booted on the source cannot attach the name.
func TestMoveObjectIsolatesSource(t *testing.T) {
	c := newTestCluster(t, 2, 1)
	if err := c.Ring().Pin("iso", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateObject("iso", 4*mem.PageSize); err != nil {
		t.Fatal(err)
	}
	src := c.Shard(0)
	obj, _ := src.Manager().Object("iso")
	frames := append([]mem.HFN(nil), obj.Region().Frames()...)
	g, err := c.NewGuest("tenant", 16*mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	h, err := g.Attach("iso")
	if err != nil {
		t.Fatal(err)
	}
	rc, err := h.Ring(core.RingConfig{Depth: 8, Deadline: farDeadline})
	if err != nil {
		t.Fatal(err)
	}
	const queued = 4
	for i := 0; i < queued; i++ {
		if err := rc.Submit(h.VCPU(), fnNop); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.MoveObject("iso", 1); err != nil {
		t.Fatal(err)
	}

	comps := make([]shm.Comp, 8)
	n, err := rc.Poll(h.VCPU(), comps)
	if err != nil {
		t.Fatal(err)
	}
	if n != queued {
		t.Fatalf("%d of %d in-flight descriptors surfaced", n, queued)
	}
	for _, cp := range comps[:n] {
		if cp.Status != shm.CompErr {
			t.Fatalf("in-flight descriptor completed with status %d, want CompErr", cp.Status)
		}
	}

	pm := src.Hypervisor().Phys()
	for _, f := range frames {
		if !pm.InUse(f) {
			t.Fatalf("frame %d freed while the guest's revoked sub context still maps it", f)
		}
	}
	// The stale handle's call is refused at the gate, and the gate entry
	// reaps the revoked sub context on the guest's own vCPU.
	if _, err := h.Call(fnNop); err == nil {
		t.Fatal("call through the stale handle succeeded")
	}
	if g.Dead() {
		t.Fatal("stale handle killed the guest; the refusal must be clean")
	}
	for _, f := range frames {
		if pm.InUse(f) {
			t.Fatalf("frame %d still allocated after the last sub context was reaped", f)
		}
	}
	old := make(map[mem.HFN]bool, len(frames))
	for _, f := range frames {
		old[f] = true
	}
	mapsNone := func(what string, ms []ept.Mapping, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range ms {
			for off := 0; off < m.Bytes; off += mem.PageSize {
				if f := (m.HPA + mem.HPA(off)).Frame(); old[f] {
					t.Fatalf("%s maps freed frame %d at %v", what, f, m.GPA)
				}
			}
		}
	}
	mgr := src.Manager()
	for _, vm := range src.Hypervisor().VMs() {
		ms, err := vm.DefaultEPT().Mappings()
		mapsNone(fmt.Sprintf("VM %q default context", vm.Name()), ms, err)
		if _, ok := mgr.GateGPA(vm); ok {
			ms, err := mgr.GateContextMappings(vm)
			mapsNone(fmt.Sprintf("VM %q gate context", vm.Name()), ms, err)
		}
		for _, name := range mgr.ObjectNames() {
			if ms, err := mgr.SubContextMappings(vm, name); err == nil {
				mapsNone(fmt.Sprintf("VM %q sub context %q", vm.Name(), name), ms, nil)
			}
		}
	}

	vm, err := src.Hypervisor().CreateVM("late", 16*mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	late, err := core.NewGuest(vm, mgr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := late.Attach("iso"); err == nil {
		t.Fatal("a guest booted on the source attached the moved object")
	}
	h2, err := g.Attach("iso")
	if err != nil {
		t.Fatal(err)
	}
	if h2.Shard() != 1 {
		t.Fatalf("re-attach landed on shard %d, want the destination 1", h2.Shard())
	}
	if _, err := h2.Call(fnNop); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Fsck(); err != nil {
		t.Fatal(err)
	}
}

// TestMoveObjectRevokesGuestsSharingAName: guest names need not be
// unique, and a move revokes every attachment on the source, found by
// VM, not by name, so two guests named "x" are both revoked.
func TestMoveObjectRevokesGuestsSharingAName(t *testing.T) {
	c := newTestCluster(t, 2, 1)
	if err := c.Ring().Pin("o", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateObject("o", mem.PageSize); err != nil {
		t.Fatal(err)
	}
	var hs []*Handle
	for i := 0; i < 2; i++ {
		g, err := c.NewGuest("x", 16*mem.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		h, err := g.Attach("o")
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
	}
	if err := c.MoveObject("o", 1); err != nil {
		t.Fatalf("move with two guests named x attached: %v", err)
	}
	revoked := 0
	for _, s := range c.Shard(0).Manager().Stats() {
		if s.Object == "o" && s.Revoked {
			revoked++
		}
	}
	if revoked != 2 {
		t.Fatalf("%d source attachments revoked, want both", revoked)
	}
	for i, h := range hs {
		if _, err := h.Call(fnNop); err == nil {
			t.Fatalf("guest %d's stale handle still calls the source copy", i)
		}
	}
	if c.Owner("o") != 1 {
		t.Fatalf("object owned by shard %d after the move, want 1", c.Owner("o"))
	}
}

// TestMigrateTenantThereAndBack: a tenant migrated A→B→A→B reads as one
// continuous tenant in the merged report, its Submitted carried over
// every move and growing between them. The moves back need the source
// copy of each object gone.
func TestMigrateTenantThereAndBack(t *testing.T) {
	_, f := skewedCluster(t, 2, false, false, nil, nil)
	row := func() fleet.TenantReport {
		for _, tr := range f.Snapshot().Tenants {
			if tr.Name == "rb-b" {
				return tr
			}
		}
		t.Fatal("rb-b missing from the merged report")
		return fleet.TenantReport{}
	}
	if _, err := f.Run(100 * 1000); err != nil {
		t.Fatal(err)
	}
	prev := row()
	if prev.Submitted == 0 {
		t.Fatal("rb-b idle before its first move")
	}
	for i, to := range []int{1, 0, 1} {
		if err := f.migrateTenant("rb-b", to); err != nil {
			t.Fatalf("move %d to shard %d: %v", i+1, to, err)
		}
		if got, _ := f.TenantShard("rb-b"); got != to {
			t.Fatalf("move %d: rb-b on shard %d, want %d", i+1, got, to)
		}
		if got := row(); got.Submitted != prev.Submitted || got.Completed != prev.Completed {
			t.Fatalf("move %d dropped carried counters: %+v before, %+v after", i+1, prev, got)
		}
		if _, err := f.Run(100 * 1000); err != nil {
			t.Fatal(err)
		}
		got := row()
		if got.Submitted <= prev.Submitted {
			t.Fatalf("after move %d Submitted went %d -> %d", i+1, prev.Submitted, got.Submitted)
		}
		prev = got
	}
	if n := len(f.Snapshot().Tenants); n != 4 {
		t.Fatalf("merged report has %d rows, want the 4 admitted tenants", n)
	}
}

// TestFleetAdmitRefusesDuplicateName: a fleet's tenant names are unique,
// since traces, global buckets and the rebalancer name tenants. A second
// tenant "t", even on another shard's object, is refused by name.
func TestFleetAdmitRefusesDuplicateName(t *testing.T) {
	c := newTestCluster(t, 2, 1)
	for i, obj := range []string{"a", "b"} {
		if err := c.Ring().Pin(obj, i); err != nil {
			t.Fatal(err)
		}
		if _, err := c.CreateObject(obj, mem.PageSize); err != nil {
			t.Fatal(err)
		}
	}
	f, err := c.NewFleet(FleetConfig{Config: fleet.Config{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Admit(fleet.TenantSpec{Name: "t", Objects: []string{"a"}, Fn: fnNop, RateOPS: 1}); err != nil {
		t.Fatal(err)
	}
	_, err = f.Admit(fleet.TenantSpec{Name: "t", Objects: []string{"b"}, Fn: fnNop, RateOPS: 1})
	if err == nil || !strings.Contains(err.Error(), `"t"`) {
		t.Fatalf("second admit of tenant t: %v, want a refusal naming it", err)
	}
	if n := len(f.Snapshot().Tenants); n != 1 {
		t.Fatalf("%d tenants admitted, want 1", n)
	}
}

// TestMoveBackReattachFreesRevokedBuffers: a guest attached on shard 0
// whose object moves away and back re-attaches there under the same
// name, over its revoked attachment. Cleaning the guest up must release
// the revoked attachment's exchange buffer and ring too: shard 0 ends
// with exactly the frames allocated that it has when the guest attached
// once and no move happened.
func TestMoveBackReattachFreesRevokedBuffers(t *testing.T) {
	kept := func(moves bool) int {
		c := newTestCluster(t, 2, 1)
		if err := c.Ring().Pin("o", 0); err != nil {
			t.Fatal(err)
		}
		if _, err := c.CreateObject("o", mem.PageSize); err != nil {
			t.Fatal(err)
		}
		g, err := c.NewGuest("tenant", 16*mem.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		vm, err := g.VM(0)
		if err != nil {
			t.Fatal(err)
		}
		pm := c.Shard(0).Hypervisor().Phys()
		free := pm.FreeFrames()
		attach := func() {
			h, err := g.Attach("o")
			if err != nil {
				t.Fatal(err)
			}
			if h.Shard() != 0 {
				t.Fatalf("attached on shard %d, want 0", h.Shard())
			}
			if _, err := h.Ring(core.RingConfig{Depth: 8, Deadline: farDeadline}); err != nil {
				t.Fatal(err)
			}
		}
		attach()
		if moves {
			for _, to := range []int{1, 0} {
				if err := c.MoveObject("o", to); err != nil {
					t.Fatal(err)
				}
			}
			attach()
		}
		if err := c.Shard(0).Manager().CleanupGuest(vm); err != nil {
			t.Fatal(err)
		}
		return free - pm.FreeFrames()
	}
	if once, back := kept(false), kept(true); back != once {
		t.Fatalf("shard 0 keeps %d frames after a move there and back, re-attach and cleanup; %d without the moves", back, once)
	}
}
