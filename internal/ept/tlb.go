package ept

import (
	"github.com/elisa-go/elisa/internal/mem"
)

// TLB models a tagged translation cache. Entries are keyed by
// (EPTP, guest frame), so — like real hardware with VPID/EP4TA tagging —
// a VMFUNC EPTP switch does not flush the cache. This matters for the
// performance argument: if each ELISA call flushed the TLB, the exit-less
// advantage would shrink, and the paper's hardware keeps translations warm.
//
// Each array is a bounded open-addressed table (tlbTable) with FIFO
// eviction; the model only needs to distinguish "warm" from "cold"
// translations, not replacement subtleties.
type TLB struct {
	capacity int
	entries  tlbTable
	order    []tlbKey // FIFO ring of resident keys
	head     int

	// Large (2MiB) entries are a separate, smaller array on real parts;
	// one large entry covers 512 small ones, which is the hugepage TLB
	// -reach win the ablation measures.
	largeCap     int
	largeEntries tlbTable
	largeOrder   []tlbKey
	largeHead    int

	hits   uint64
	misses uint64
}

type tlbKey struct {
	eptp Pointer
	gfn  mem.GFN
}

// DefaultTLBCapacity is sized like a contemporary STLB (1536 4 KiB entries).
const DefaultTLBCapacity = 1536

// NewTLB creates a TLB with the given entry capacity (<=0 picks the default).
func NewTLB(capacity int) *TLB {
	if capacity <= 0 {
		capacity = DefaultTLBCapacity
	}
	largeCap := capacity / 16
	if largeCap < 4 {
		largeCap = 4
	}
	return &TLB{
		capacity:     capacity,
		entries:      newTLBTable(capacity),
		order:        make([]tlbKey, 0, capacity),
		largeCap:     largeCap,
		largeEntries: newTLBTable(largeCap),
	}
}

// Lookup returns the cached translation for gfn under eptp, consulting
// both the 4KiB and the 2MiB arrays.
func (t *TLB) Lookup(eptp Pointer, gfn mem.GFN) (mem.HPA, Perm, bool) {
	if e := t.entries.get(tlbKey{eptp, gfn}); e != nil {
		t.hits++
		return e.frame, e.perm, true
	}
	if e := t.largeEntries.get(tlbKey{eptp, gfn >> 9}); e != nil {
		t.hits++
		in := mem.HPA(gfn&0x1ff) << mem.PageShift
		return e.frame + in, e.perm, true
	}
	t.misses++
	return 0, 0, false
}

// Insert caches a translation, evicting the oldest entry if full.
func (t *TLB) Insert(eptp Pointer, gfn mem.GFN, frame mem.HPA, perm Perm) {
	k := tlbKey{eptp, gfn}
	if e := t.entries.get(k); e != nil {
		e.frame, e.perm = frame, perm
		return
	}
	if t.entries.n >= t.capacity {
		// Evict FIFO head; skip keys already invalidated.
		for len(t.order) > t.head {
			victim := t.order[t.head]
			t.head++
			if t.entries.del(victim) {
				break
			}
		}
		if t.head > t.capacity { // compact the ring lazily
			t.order = append(t.order[:0], t.order[t.head:]...)
			t.head = 0
		}
	}
	t.entries.add(k, frame, perm)
	t.order = append(t.order, k)
}

// InvalidatePage drops the translation for one page in one context
// (INVEPT single-context, page-granular).
func (t *TLB) InvalidatePage(eptp Pointer, gfn mem.GFN) {
	t.entries.del(tlbKey{eptp, gfn})
}

// InvalidateContext drops every translation tagged with eptp
// (INVEPT single-context).
func (t *TLB) InvalidateContext(eptp Pointer) {
	t.entries.delContext(eptp)
	t.largeEntries.delContext(eptp)
}

// Flush drops everything (INVEPT global).
func (t *TLB) Flush() {
	t.entries.clear()
	t.order = t.order[:0]
	t.head = 0
	t.largeEntries.clear()
	t.largeOrder = t.largeOrder[:0]
	t.largeHead = 0
}

// InsertLarge caches a 2MiB translation: gfn2m is the large-page frame
// number (GPA >> 21), frame the host base of the 2MiB region.
func (t *TLB) InsertLarge(eptp Pointer, gfn2m mem.GFN, frame mem.HPA, perm Perm) {
	k := tlbKey{eptp, gfn2m}
	if e := t.largeEntries.get(k); e != nil {
		e.frame, e.perm = frame, perm
		return
	}
	if t.largeEntries.n >= t.largeCap {
		for len(t.largeOrder) > t.largeHead {
			victim := t.largeOrder[t.largeHead]
			t.largeHead++
			if t.largeEntries.del(victim) {
				break
			}
		}
		if t.largeHead > t.largeCap {
			t.largeOrder = append(t.largeOrder[:0], t.largeOrder[t.largeHead:]...)
			t.largeHead = 0
		}
	}
	t.largeEntries.add(k, frame, perm)
	t.largeOrder = append(t.largeOrder, k)
}

// Stats reports hit/miss counts since creation.
func (t *TLB) Stats() (hits, misses uint64) { return t.hits, t.misses }

// Len reports the number of resident entries (both granularities).
func (t *TLB) Len() int { return t.entries.n + t.largeEntries.n }

// tlbTable is an open-addressed hash table of translations: linear
// probing from a fixed multiplicative hash, 32-byte slots, and a load of
// at most 0.75 (the TLB's eviction keeps n <= the capacity the table was
// sized for, so a probe always reaches an empty slot). Deletion shifts
// later members of a probe run back, so there are no tombstones.
type tlbTable struct {
	slots []tlbSlot // power-of-two length
	shift uint      // 64 - log2(len(slots)): hash bits kept
	n     int
}

// tlbSlot is one cached translation. It is 32 bytes: the key, the
// host frame, the permissions and an occupancy flag.
type tlbSlot struct {
	key   tlbKey
	frame mem.HPA
	perm  Perm
	used  bool
}

func newTLBTable(capacity int) tlbTable {
	size, bits := 8, uint(3)
	for size*3 < capacity*4 {
		size <<= 1
		bits++
	}
	return tlbTable{slots: make([]tlbSlot, size), shift: 64 - bits}
}

// home is k's preferred slot: Fibonacci hashing of the frame mixed with
// the context tag, keeping the product's top bits.
func (t *tlbTable) home(k tlbKey) int {
	h := (uint64(k.gfn)*0x9E3779B97F4A7C15 ^ uint64(k.eptp)) * 0xD6E8FEB86659FD93
	return int(h >> t.shift)
}

// get returns k's slot, or nil when k is not cached.
func (t *tlbTable) get(k tlbKey) *tlbSlot {
	mask := len(t.slots) - 1
	for i := t.home(k); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if !s.used {
			return nil
		}
		if s.key == k {
			return s
		}
	}
}

// add caches k, which must not be present.
func (t *tlbTable) add(k tlbKey, frame mem.HPA, perm Perm) {
	mask := len(t.slots) - 1
	i := t.home(k)
	for t.slots[i].used {
		i = (i + 1) & mask
	}
	t.slots[i] = tlbSlot{key: k, frame: frame, perm: perm, used: true}
	t.n++
}

// del drops k, reporting whether it was cached.
func (t *tlbTable) del(k tlbKey) bool {
	mask := len(t.slots) - 1
	for i := t.home(k); t.slots[i].used; i = (i + 1) & mask {
		if t.slots[i].key == k {
			t.removeAt(i)
			return true
		}
	}
	return false
}

// delContext drops every key tagged with eptp.
func (t *tlbTable) delContext(eptp Pointer) {
	for i := 0; i < len(t.slots); {
		if s := &t.slots[i]; s.used && s.key.eptp == eptp {
			t.removeAt(i) // a later key may shift into slot i: look again
			continue
		}
		i++
	}
}

// removeAt empties slot i, then walks the rest of its probe run and
// moves back every key whose home does not lie cyclically in (i, j], so
// each remaining key stays reachable from its home.
func (t *tlbTable) removeAt(i int) {
	mask := len(t.slots) - 1
	for j := (i + 1) & mask; t.slots[j].used; j = (j + 1) & mask {
		if (j-t.home(t.slots[j].key))&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = tlbSlot{}
	t.n--
}

func (t *tlbTable) clear() {
	if t.n > 0 {
		clear(t.slots)
		t.n = 0
	}
}
