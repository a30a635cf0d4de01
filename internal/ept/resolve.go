package ept

import (
	"github.com/elisa-go/elisa/internal/mem"
)

// ResolvePage walks the EPT rooted at p and returns the mapping base, the
// permissions, and the mapping granularity (mem.PageSize or HugePageSize)
// for the address. perm 0 means unmapped (pageBytes is then PageSize).
func ResolvePage(pm *mem.PhysMem, p Pointer, gpa mem.GPA) (mem.HPA, Perm, int, error) {
	ix := indices(gpa)
	table := mem.HPA(p).Frame()
	for l := 0; l < levels-1; l++ {
		e, err := pm.ReadU64(entryAddr(table, ix[l]))
		if err != nil {
			return 0, 0, mem.PageSize, err
		}
		if e&permMask == 0 {
			return 0, 0, mem.PageSize, nil
		}
		if l == pdLevel && e&largeBit != 0 {
			return mem.HPA(e & frameMask), Perm(e & permMask), HugePageSize, nil
		}
		table = mem.HPA(e & frameMask).Frame()
	}
	e, err := pm.ReadU64(entryAddr(table, ix[levels-1]))
	if err != nil {
		return 0, 0, mem.PageSize, err
	}
	if e&permMask == 0 {
		return 0, 0, mem.PageSize, nil
	}
	return mem.HPA(e & frameMask), Perm(e & permMask), mem.PageSize, nil
}
