package hv_test

import (
	"runtime"
	"testing"

	"github.com/elisa-go/elisa/internal/core"
	"github.com/elisa-go/elisa/internal/hv"
	"github.com/elisa-go/elisa/internal/mem"
)

// TestBootBacksOnlyTouchedMemory pins sparse physical memory: booting a
// 512 MiB machine with a manager and one attached guest must cost the
// Go heap a small fraction of PhysBytes, and the host memory resident
// behind it must be exactly the 2 MiB chunks that hold allocated frames.
// A return to dense backing allocates all of PhysBytes and fails here.
func TestBootBacksOnlyTouchedMemory(t *testing.T) {
	const physBytes = 512 << 20
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h, err := hv.New(hv.Config{PhysBytes: physBytes})
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := core.NewManager(h, core.ManagerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.CreateObject("obj", mem.PageSize); err != nil {
		t.Fatal(err)
	}
	vm, err := h.CreateVM("guest", 16*mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	g, err := core.NewGuest(vm, mgr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Attach("obj"); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)

	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= physBytes/32 {
		t.Errorf("boot allocated %d heap bytes, want under PhysBytes/32 = %d", alloc, physBytes/32)
	}
	pm := h.Phys()
	chunks := map[mem.HPA]bool{}
	for f := mem.HFN(1); f < mem.HFN(pm.Frames()); f++ {
		if pm.InUse(f) {
			chunks[f.Page()/mem.ChunkSize] = true
		}
	}
	if len(chunks) == 0 {
		t.Fatal("boot allocated no frames")
	}
	if got, want := pm.ResidentBytes(), len(chunks)*mem.ChunkSize; got != want {
		t.Errorf("ResidentBytes = %d, want %d (%d chunks hold allocated frames)", got, want, len(chunks))
	}
	if got := h.MachineStats().ResidentBytes; got != pm.ResidentBytes() {
		t.Errorf("MachineStats.ResidentBytes = %d, PhysMem reports %d", got, pm.ResidentBytes())
	}
}
