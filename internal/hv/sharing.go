package hv

import (
	"fmt"

	"github.com/elisa-go/elisa/internal/ept"
	"github.com/elisa-go/elisa/internal/mem"
	"github.com/elisa-go/elisa/internal/simtime"
)

// HostRegion is a contiguous (page-granular) chunk of host-owned physical
// memory. It backs every shared object in the reproduction:
//
//   - host-interposition keeps it host-private and lets guests at it only
//     via hypercalls;
//   - direct-mapping (ivshmem) maps it straight into guests' default
//     contexts;
//   - ELISA maps it into manager-built sub EPT contexts.
type HostRegion struct {
	hv     *Hypervisor
	frames []mem.HFN
	size   int
	huge   bool // physically contiguous, 2MiB-aligned backing
	freed  bool
}

// AllocHostRegion allocates a host-private region of at least size bytes
// (rounded up to whole pages), zeroed.
func (h *Hypervisor) AllocHostRegion(size int) (*HostRegion, error) {
	if size <= 0 {
		return nil, fmt.Errorf("hv: host region size %d must be positive", size)
	}
	frames, err := h.pm.AllocFrames(mem.PagesFor(size))
	if err != nil {
		return nil, err
	}
	return &HostRegion{hv: h, frames: frames, size: mem.PagesFor(size) * mem.PageSize}, nil
}

// Size returns the region size in bytes (whole pages).
func (r *HostRegion) Size() int { return r.size }

// Pages returns the number of frames backing the region.
func (r *HostRegion) Pages() int { return len(r.frames) }

// Frames exposes the backing frames (for mapping into EPT contexts).
func (r *HostRegion) Frames() []mem.HFN { return r.frames }

func (r *HostRegion) locate(off, n int) error {
	if r.freed {
		return fmt.Errorf("hv: use of freed host region")
	}
	if off < 0 || n < 0 || off+n > r.size {
		return fmt.Errorf("hv: region access [%d,+%d) outside size %d", off, n, r.size)
	}
	return nil
}

// forEach walks [off, off+n) in per-page chunks.
func (r *HostRegion) forEach(off, n int, fn func(hpa mem.HPA, bufOff, chunk int) error) error {
	if err := r.locate(off, n); err != nil {
		return err
	}
	done := 0
	for done < n {
		o := off + done
		page, in := o/mem.PageSize, o%mem.PageSize
		chunk := mem.PageSize - in
		if chunk > n-done {
			chunk = n - done
		}
		if err := fn(r.frames[page].Page()+mem.HPA(in), done, chunk); err != nil {
			return err
		}
		done += chunk
	}
	return nil
}

// Read copies region bytes out, charging copy cost to clk (the core doing
// the host-side work). A nil clock charges nothing (test inspection).
func (r *HostRegion) Read(clk *simtime.Clock, off int, p []byte) error {
	if clk != nil {
		clk.Advance(r.hv.cost.CopyCost(len(p)))
	}
	return r.forEach(off, len(p), func(hpa mem.HPA, bo, chunk int) error {
		return r.hv.pm.Read(hpa, p[bo:bo+chunk])
	})
}

// Write copies bytes into the region, charging copy cost to clk.
func (r *HostRegion) Write(clk *simtime.Clock, off int, p []byte) error {
	if clk != nil {
		clk.Advance(r.hv.cost.CopyCost(len(p)))
	}
	return r.forEach(off, len(p), func(hpa mem.HPA, bo, chunk int) error {
		return r.hv.pm.Write(hpa, p[bo:bo+chunk])
	})
}

// ReadU64 loads an 8-byte-aligned word, charging one memory access.
func (r *HostRegion) ReadU64(clk *simtime.Clock, off int) (uint64, error) {
	if off%8 != 0 {
		return 0, fmt.Errorf("hv: ReadU64 offset %d not aligned", off)
	}
	if err := r.locate(off, 8); err != nil {
		return 0, err
	}
	if clk != nil {
		clk.Advance(r.hv.cost.MemAccess)
	}
	return r.hv.pm.ReadU64(r.frames[off/mem.PageSize].Page() + mem.HPA(off%mem.PageSize))
}

// ReadU64s loads len(dst) consecutive 8-byte-aligned words starting at
// off, charging one memory access per word. A block that lies inside one
// page of a live region is checked once and charged as one advance of
// len(dst)×MemAccess, which lands the clock where len(dst) single
// charges would. Anything else (a misaligned or out-of-range offset, a
// freed region, a block crossing a page) reads word by word through
// ReadU64, so an error leaves exactly the charges the word-by-word reads
// made before it.
func (r *HostRegion) ReadU64s(clk *simtime.Clock, off int, dst []uint64) error {
	n := 8 * len(dst)
	if off%8 != 0 || r.freed || off < 0 || off+n > r.size || off%mem.PageSize+n > mem.PageSize {
		for i := range dst {
			v, err := r.ReadU64(clk, off+8*i)
			if err != nil {
				return err
			}
			dst[i] = v
		}
		return nil
	}
	if clk != nil {
		clk.Advance(simtime.Duration(len(dst)) * r.hv.cost.MemAccess)
	}
	return r.hv.pm.ReadU64s(r.frames[off/mem.PageSize].Page()+mem.HPA(off%mem.PageSize), dst)
}

// WriteU64 stores an 8-byte-aligned word, charging one memory access.
func (r *HostRegion) WriteU64(clk *simtime.Clock, off int, v uint64) error {
	if off%8 != 0 {
		return fmt.Errorf("hv: WriteU64 offset %d not aligned", off)
	}
	if err := r.locate(off, 8); err != nil {
		return err
	}
	if clk != nil {
		clk.Advance(r.hv.cost.MemAccess)
	}
	return r.hv.pm.WriteU64(r.frames[off/mem.PageSize].Page()+mem.HPA(off%mem.PageSize), v)
}

// MapIntoDefault maps the whole region into a VM's *default* EPT context —
// the direct-mapping (ivshmem) scheme. The returned GPA is where the guest
// sees it. This is deliberately the isolation-violating scheme: whoever
// holds the GPA can do whatever perm allows, forever.
func (r *HostRegion) MapIntoDefault(vm *VM, perm ept.Perm) (mem.GPA, error) {
	if r.freed {
		return 0, fmt.Errorf("hv: use of freed host region")
	}
	base := vm.AllocRegionGPA(len(r.frames))
	if err := vm.defaultEPT.MapRange(base, r.frames, perm); err != nil {
		return 0, err
	}
	return base, nil
}

// MapIntoTable maps the region into an arbitrary EPT context at gpa —
// how the ELISA manager places objects into sub contexts.
func (r *HostRegion) MapIntoTable(tbl *ept.Table, gpa mem.GPA, perm ept.Perm) error {
	if r.freed {
		return fmt.Errorf("hv: use of freed host region")
	}
	return tbl.MapRange(gpa, r.frames, perm)
}

// Free releases the backing frames. The caller must have unmapped the
// region from every context first (the hypervisor does not track mappings
// of host regions; contexts are destroyed wholesale).
func (r *HostRegion) Free() error {
	if r.freed {
		return fmt.Errorf("hv: double free of host region")
	}
	r.freed = true
	for _, f := range r.frames {
		if err := r.hv.pm.FreeFrame(f); err != nil {
			return err
		}
	}
	return nil
}

// ShareDirect allocates a region and direct-maps it into every given VM
// with the same permissions, returning the region and each VM's view GPA.
// This is the ivshmem-style baseline.
func (h *Hypervisor) ShareDirect(size int, perm ept.Perm, vms ...*VM) (*HostRegion, []mem.GPA, error) {
	r, err := h.AllocHostRegion(size)
	if err != nil {
		return nil, nil, err
	}
	gpas := make([]mem.GPA, len(vms))
	for i, vm := range vms {
		g, err := r.MapIntoDefault(vm, perm)
		if err != nil {
			return nil, nil, err
		}
		gpas[i] = g
	}
	return r, gpas, nil
}

// HugePagesPerRegion is the frame granularity of huge regions.
const hugeFrames = 512 // 2 MiB / 4 KiB

// AllocHostRegionHuge allocates a host region backed by physically
// contiguous, 2 MiB-aligned memory (rounded up to whole 2 MiB chunks), so
// it can be mapped with huge EPT entries via MapIntoTable2M.
func (h *Hypervisor) AllocHostRegionHuge(size int) (*HostRegion, error) {
	if size <= 0 {
		return nil, fmt.Errorf("hv: host region size %d must be positive", size)
	}
	chunks := (size + hugeFrames*mem.PageSize - 1) / (hugeFrames * mem.PageSize)
	frames, err := h.pm.AllocFramesContiguous(chunks*hugeFrames, hugeFrames)
	if err != nil {
		return nil, err
	}
	return &HostRegion{hv: h, frames: frames, size: len(frames) * mem.PageSize, huge: true}, nil
}

// Huge reports whether the region is contiguous 2 MiB-aligned memory.
func (r *HostRegion) Huge() bool { return r.huge }

// MapIntoTable2M maps the region into an EPT context with 2 MiB entries at
// a 2 MiB-aligned GPA. The region must come from AllocHostRegionHuge.
func (r *HostRegion) MapIntoTable2M(tbl *ept.Table, gpa mem.GPA, perm ept.Perm) error {
	if r.freed {
		return fmt.Errorf("hv: use of freed host region")
	}
	if !r.huge {
		return fmt.Errorf("hv: region is not huge-page backed")
	}
	return tbl.MapRange2M(gpa, r.frames, perm)
}
