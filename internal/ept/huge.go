package ept

import (
	"fmt"

	"github.com/elisa-go/elisa/internal/mem"
)

// HugePageSize is the 2 MiB mapping granularity (a PD-level leaf entry
// with the PS bit set, as on real EPT hardware).
const HugePageSize = 512 * mem.PageSize

// largeBit is the PS ("page size") bit of a PD entry: set, the entry maps
// a 2 MiB page instead of pointing at a page table.
const largeBit = 1 << 7

// pdLevel is the walk depth of a PD entry (0-based from the root).
const pdLevel = 2

// Map2M installs a 2 MiB translation. Both addresses must be 2 MiB
// aligned; the 512 host frames behind hpa must be physically contiguous
// (see mem.AllocFramesContiguous). Remapping replaces. A 2 MiB entry
// cannot coexist with 4 KiB mappings in the same 2 MiB window: mapping
// over an existing page table is rejected (split/merge is hypervisor
// policy this model does not need).
func (t *Table) Map2M(gpa mem.GPA, hpa mem.HPA, perm Perm) error {
	if uint64(gpa)%HugePageSize != 0 || uint64(hpa)%HugePageSize != 0 {
		return fmt.Errorf("ept: Map2M(%v -> %v): addresses must be 2MiB-aligned", gpa, hpa)
	}
	if perm == 0 || perm&^PermRWX != 0 {
		return fmt.Errorf("ept: Map2M(%v): invalid permissions %#x", gpa, uint8(perm))
	}
	defer t.dropMemo()
	ix := indices(gpa)
	table := t.root
	for l := 0; l < pdLevel; l++ {
		ea := entryAddr(table, ix[l])
		e, err := t.pm.ReadU64(ea)
		if err != nil {
			return err
		}
		if e&permMask == 0 {
			next, err := t.pm.AllocFrame()
			if err != nil {
				return fmt.Errorf("ept: allocating level-%d table: %w", levels-1-l, err)
			}
			t.owned = append(t.owned, next)
			e = uint64(next.Page()) | uint64(PermRWX)
			if err := t.pm.WriteU64(ea, e); err != nil {
				return err
			}
		}
		table = mem.HPA(e & frameMask).Frame()
	}
	ea := entryAddr(table, ix[pdLevel])
	old, err := t.pm.ReadU64(ea)
	if err != nil {
		return err
	}
	if old&permMask != 0 && old&largeBit == 0 {
		return fmt.Errorf("ept: Map2M(%v): window already holds 4KiB mappings", gpa)
	}
	if old&permMask == 0 {
		t.count += 512
	}
	return t.pm.WriteU64(ea, uint64(hpa)&frameMask|largeBit|uint64(perm))
}

// Unmap2M removes a 2 MiB translation.
func (t *Table) Unmap2M(gpa mem.GPA) error {
	if uint64(gpa)%HugePageSize != 0 {
		return fmt.Errorf("ept: Unmap2M(%v): address must be 2MiB-aligned", gpa)
	}
	defer t.dropMemo()
	ix := indices(gpa)
	table := t.root
	for l := 0; l < pdLevel; l++ {
		e, err := t.pm.ReadU64(entryAddr(table, ix[l]))
		if err != nil {
			return err
		}
		if e&permMask == 0 {
			return fmt.Errorf("ept: Unmap2M(%v): not mapped", gpa)
		}
		table = mem.HPA(e & frameMask).Frame()
	}
	ea := entryAddr(table, ix[pdLevel])
	e, err := t.pm.ReadU64(ea)
	if err != nil {
		return err
	}
	if e&permMask == 0 || e&largeBit == 0 {
		return fmt.Errorf("ept: Unmap2M(%v): no 2MiB mapping here", gpa)
	}
	t.count -= 512
	return t.pm.WriteU64(ea, 0)
}

// MapRange2M maps size bytes (a multiple of 2 MiB) of physically
// contiguous memory starting at the 2 MiB-aligned frames.
func (t *Table) MapRange2M(gpa mem.GPA, frames []mem.HFN, perm Perm) error {
	if len(frames)%512 != 0 {
		return fmt.Errorf("ept: MapRange2M: %d frames is not a whole number of 2MiB pages", len(frames))
	}
	for i := 0; i < len(frames); i += 512 {
		if frames[i]%512 != 0 {
			return fmt.Errorf("ept: MapRange2M: frame %d not 2MiB-aligned", frames[i])
		}
		for j := 1; j < 512; j++ {
			if frames[i+j] != frames[i]+mem.HFN(j) {
				return fmt.Errorf("ept: MapRange2M: frames not contiguous at %d", i+j)
			}
		}
		g := gpa + mem.GPA(i*mem.PageSize)
		if err := t.Map2M(g, frames[i].Page(), perm); err != nil {
			return err
		}
	}
	return nil
}
