// Package ept implements the Extended Page Tables of the simulated machine:
// 4-level radix tables translating guest-physical to host-physical
// addresses, with R/W/X permissions, EPT violations, EPTP lists (the
// 512-entry page VMFUNC leaf 0 switches between), and a tagged TLB model.
//
// Table pages live inside the simulated physical memory itself, exactly as
// on real hardware: walking a table costs physical memory reads, and a
// hostile guest cannot forge a translation it was never given because the
// only code that writes table frames is the hypervisor (package hv) and
// the ELISA manager runtime (package core) acting through it.
package ept

import (
	"fmt"
	"sync/atomic"

	"github.com/elisa-go/elisa/internal/mem"
)

// Perm is an EPT permission mask.
type Perm uint8

// Permission bits, matching the low bits of an Intel EPT entry.
const (
	PermRead  Perm = 1 << 0
	PermWrite Perm = 1 << 1
	PermExec  Perm = 1 << 2

	PermRW  = PermRead | PermWrite
	PermRX  = PermRead | PermExec
	PermRWX = PermRead | PermWrite | PermExec
)

// Can reports whether p grants every bit in access.
func (p Perm) Can(access Perm) bool { return p&access == access }

// String renders the permission bits ls-style ("rw-", "r-x", ...).
func (p Perm) String() string {
	b := [3]byte{'-', '-', '-'}
	if p&PermRead != 0 {
		b[0] = 'r'
	}
	if p&PermWrite != 0 {
		b[1] = 'w'
	}
	if p&PermExec != 0 {
		b[2] = 'x'
	}
	return string(b[:])
}

// Violation is an EPT violation: an access the current context's tables do
// not permit. On real hardware this is VM-exit reason 48; here it surfaces
// as an error that the vCPU turns into an exit.
type Violation struct {
	Addr    mem.GPA // faulting guest-physical address
	Access  Perm    // what the access needed
	Allowed Perm    // what the final-level entry allowed (0 if unmapped)
	Level   int     // table level at which the walk stopped (4..1, 0 = leaf)
}

// Error describes the violation: the address, what the access needed,
// and what the walk found.
func (v *Violation) Error() string {
	if v.Allowed == 0 {
		return fmt.Sprintf("ept violation: %v not mapped (needed %v, walk stopped at level %d)", v.Addr, v.Access, v.Level)
	}
	return fmt.Sprintf("ept violation: %v allows %v, access needed %v", v.Addr, v.Allowed, v.Access)
}

// IsViolation reports whether err is an EPT violation and returns it.
func IsViolation(err error) (*Violation, bool) {
	v, ok := err.(*Violation)
	return v, ok
}

const (
	entriesPerTable = 512
	entrySize       = 8
	levels          = 4

	permMask  = uint64(PermRWX)
	frameMask = ^uint64(mem.PageMask) & ((1 << 52) - 1)
)

// Pointer is an EPT pointer (EPTP): the host-physical address of a root
// table page. VMFUNC leaf 0 replaces the active Pointer with one from the
// EPTP list.
type Pointer mem.HPA

// NilPointer is the zero EPTP; no context ever has it.
const NilPointer Pointer = 0

// String renders the EPTP for traces and dumps.
func (p Pointer) String() string { return fmt.Sprintf("eptp:%#x", uint64(p)) }

// Table is one EPT: a 4-level translation from GPA to HPA. The zero value
// is not usable; create tables with New.
//
// Lookup memoizes the last 4 KiB page it resolved (a page inside a 2 MiB
// leaf included), so host code that walks one page again and again (a
// hypercall handler copying through its staging page) pays one walk.
// Only this package writes table frames, and every mutator — Map, Unmap,
// Protect, Map2M, Unmap2M, Destroy, and MapRange and MapRange2M through
// them — drops the memo by bumping gen after its last write. Lookup may
// run on several goroutines at once and beside a mutator: gen is atomic,
// and the memo is a seqlock over atomics.
type Table struct {
	pm    *mem.PhysMem
	root  mem.HFN
	owned []mem.HFN // table frames we allocated, for Destroy
	count int       // number of mapped leaf pages

	gen  atomic.Uint64 // mutations so far; the memo is valid only at its own gen
	memo leafMemo
}

// leafMemo is one resolved 4 KiB page: its frame and permission bits,
// packed like a leaf entry, as found for gfn at table generation gen.
// seq is odd while a Lookup fills it; a reader trusts the fields only
// when seq was even and unchanged across its reads. The zero memo says
// page 0 is unmapped at generation 0, which holds for a new table.
type leafMemo struct {
	seq, gen, gfn, entry atomic.Uint64
}

// get returns the memoized entry for gfn if it was resolved at
// generation gen.
func (m *leafMemo) get(gen, gfn uint64) (uint64, bool) {
	s := m.seq.Load()
	if s&1 != 0 {
		return 0, false
	}
	mgen, mgfn, e := m.gen.Load(), m.gfn.Load(), m.entry.Load()
	if m.seq.Load() != s || mgen != gen || mgfn != gfn {
		return 0, false
	}
	return e, true
}

// put memoizes an entry resolved at generation gen, unless another
// Lookup is filling the memo right now.
func (m *leafMemo) put(gen, gfn, e uint64) {
	s := m.seq.Load()
	if s&1 != 0 || !m.seq.CompareAndSwap(s, s+1) {
		return
	}
	m.gen.Store(gen)
	m.gfn.Store(gfn)
	m.entry.Store(e)
	m.seq.Store(s + 2)
}

// dropMemo invalidates Lookup's memo. Mutators defer it, so it runs
// after their last table write.
func (t *Table) dropMemo() { t.gen.Add(1) }

// New allocates an empty EPT whose table pages come from pm.
func New(pm *mem.PhysMem) (*Table, error) {
	root, err := pm.AllocFrame()
	if err != nil {
		return nil, fmt.Errorf("ept: allocating root: %w", err)
	}
	return &Table{pm: pm, root: root, owned: []mem.HFN{root}}, nil
}

// Pointer returns the EPTP designating this table.
func (t *Table) Pointer() Pointer { return Pointer(t.root.Page()) }

// MappedPages returns the number of leaf pages currently mapped.
func (t *Table) MappedPages() int { return t.count }

// indices decomposes a GPA into the four 9-bit table indices.
func indices(gpa mem.GPA) [levels]int {
	g := uint64(gpa) >> mem.PageShift
	var ix [levels]int
	for l := levels - 1; l >= 0; l-- {
		ix[l] = int(g & (entriesPerTable - 1))
		g >>= 9
	}
	return ix
}

func entryAddr(table mem.HFN, index int) mem.HPA {
	return table.Page() + mem.HPA(index*entrySize)
}

// Map installs a translation from the page containing gpa to the page
// containing hpa with the given permissions. Both addresses must be
// page-aligned. Remapping an existing page replaces it.
func (t *Table) Map(gpa mem.GPA, hpa mem.HPA, perm Perm) error {
	if !gpa.PageAligned() || !hpa.PageAligned() {
		return fmt.Errorf("ept: Map(%v -> %v): addresses must be page-aligned", gpa, hpa)
	}
	if perm == 0 || perm&^PermRWX != 0 {
		return fmt.Errorf("ept: Map(%v): invalid permissions %#x", gpa, uint8(perm))
	}
	defer t.dropMemo()
	ix := indices(gpa)
	table := t.root
	for l := 0; l < levels-1; l++ {
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
	ea := entryAddr(table, ix[levels-1])
	old, err := t.pm.ReadU64(ea)
	if err != nil {
		return err
	}
	if old&permMask == 0 {
		t.count++
	}
	return t.pm.WriteU64(ea, uint64(hpa)&frameMask|uint64(perm))
}

// MapRange maps n consecutive guest pages starting at gpa to the given host
// frames with one permission. len(frames) must be n.
func (t *Table) MapRange(gpa mem.GPA, frames []mem.HFN, perm Perm) error {
	if !gpa.PageAligned() {
		return fmt.Errorf("ept: MapRange(%v): base must be page-aligned", gpa)
	}
	for i, f := range frames {
		g := gpa + mem.GPA(i*mem.PageSize)
		if err := t.Map(g, f.Page(), perm); err != nil {
			return fmt.Errorf("ept: MapRange page %d: %w", i, err)
		}
	}
	return nil
}

// Unmap removes the translation for the page containing gpa. Unmapping an
// unmapped page is an error (it indicates confused bookkeeping in a caller).
func (t *Table) Unmap(gpa mem.GPA) error {
	defer t.dropMemo()
	ea, e, lvl, err := t.walkEntry(gpa)
	if err != nil {
		return err
	}
	if lvl == -1 {
		return fmt.Errorf("ept: Unmap(%v): 2MiB mapping; use Unmap2M", gpa)
	}
	if lvl != 0 || e&permMask == 0 {
		return fmt.Errorf("ept: Unmap(%v): not mapped", gpa)
	}
	t.count--
	return t.pm.WriteU64(ea, 0)
}

// Protect changes the permissions of an existing mapping.
func (t *Table) Protect(gpa mem.GPA, perm Perm) error {
	if perm == 0 || perm&^PermRWX != 0 {
		return fmt.Errorf("ept: Protect(%v): invalid permissions %#x", gpa, uint8(perm))
	}
	defer t.dropMemo()
	ea, e, lvl, err := t.walkEntry(gpa)
	if err != nil {
		return err
	}
	if lvl != 0 && lvl != -1 || e&permMask == 0 {
		return fmt.Errorf("ept: Protect(%v): not mapped", gpa)
	}
	keep := e &^ uint64(PermRWX)
	return t.pm.WriteU64(ea, keep|uint64(perm))
}

// walkEntry walks to the leaf entry for gpa. It returns the entry's
// physical address, its value, and the level at which the walk stopped
// (0 means it reached the 4KiB leaf level; -1 means a 2MiB leaf; >0 means
// a missing intermediate).
func (t *Table) walkEntry(gpa mem.GPA) (mem.HPA, uint64, int, error) {
	ix := indices(gpa)
	table := t.root
	for l := 0; l < levels-1; l++ {
		ea := entryAddr(table, ix[l])
		e, err := t.pm.ReadU64(ea)
		if err != nil {
			return 0, 0, 0, err
		}
		if e&permMask == 0 {
			return ea, e, levels - l, nil
		}
		if l == pdLevel && e&largeBit != 0 {
			return ea, e, -1, nil
		}
		table = mem.HPA(e & frameMask).Frame()
	}
	ea := entryAddr(table, ix[levels-1])
	e, err := t.pm.ReadU64(ea)
	if err != nil {
		return 0, 0, 0, err
	}
	return ea, e, 0, nil
}

// Translate resolves gpa for the given access. On success it returns the
// host-physical address; on failure it returns a *Violation.
func (t *Table) Translate(gpa mem.GPA, access Perm) (mem.HPA, error) {
	hpa, perm, err := t.Lookup(gpa)
	if err != nil {
		return 0, err
	}
	if perm == 0 {
		return 0, &Violation{Addr: gpa, Access: access, Level: 1}
	}
	if !perm.Can(access) {
		return 0, &Violation{Addr: gpa, Access: access, Allowed: perm}
	}
	return hpa + mem.HPA(gpa.Offset()), nil
}

// Lookup returns the frame translation and permissions for the page
// containing gpa. perm 0 means unmapped. Errors are internal (physical
// memory corruption), never violations. A page looked up again with no
// mutation in between is answered from the memo (see Table).
func (t *Table) Lookup(gpa mem.GPA) (mem.HPA, Perm, error) {
	gen, gfn := t.gen.Load(), uint64(gpa.Frame())
	if e, ok := t.memo.get(gen, gfn); ok {
		return mem.HPA(e & frameMask), Perm(e & permMask), nil
	}
	_, e, lvl, err := t.walkEntry(gpa)
	if err != nil {
		return 0, 0, err
	}
	if e&permMask == 0 {
		return 0, 0, nil
	}
	var frame mem.HPA
	switch lvl {
	case 0:
		frame = mem.HPA(e & frameMask)
	case -1:
		// 2MiB leaf: return the 4KiB page's translation inside it.
		in := uint64(gpa) % HugePageSize &^ uint64(mem.PageMask)
		frame = mem.HPA(e&frameMask) + mem.HPA(in)
	default:
		return 0, 0, nil
	}
	perm := Perm(e & permMask)
	t.memo.put(gen, gfn, uint64(frame)|uint64(perm))
	return frame, perm, nil
}

// Destroy frees every table frame this EPT allocated. Mapped data frames
// are not freed; they belong to whoever mapped them.
func (t *Table) Destroy() error {
	defer t.dropMemo()
	for _, f := range t.owned {
		if err := t.pm.FreeFrame(f); err != nil {
			return err
		}
	}
	t.owned = nil
	t.count = 0
	return nil
}

// TableFrames reports how many physical frames the table structure itself
// occupies (root + intermediate levels).
func (t *Table) TableFrames() int { return len(t.owned) }
