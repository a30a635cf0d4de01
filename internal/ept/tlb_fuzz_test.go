package ept

import (
	"testing"
	"unsafe"

	"github.com/elisa-go/elisa/internal/mem"
)

// refTLB is the TLB as it was built on Go maps, kept as the reference
// model FuzzTLB checks the open-addressed tables against: the same FIFO
// rings and eviction code, so every hit, miss and eviction must match,
// including a key re-inserted after InvalidatePage, whose older ring copy
// evicts it early.
type refTLB struct {
	capacity int
	entries  map[tlbKey]refVal
	order    []tlbKey
	head     int

	largeCap     int
	largeEntries map[tlbKey]refVal
	largeOrder   []tlbKey
	largeHead    int

	hits   uint64
	misses uint64
}

type refVal struct {
	frame mem.HPA
	perm  Perm
}

func newRefTLB(capacity int) *refTLB {
	if capacity <= 0 {
		capacity = DefaultTLBCapacity
	}
	largeCap := capacity / 16
	if largeCap < 4 {
		largeCap = 4
	}
	return &refTLB{
		capacity:     capacity,
		entries:      make(map[tlbKey]refVal, capacity),
		order:        make([]tlbKey, 0, capacity),
		largeCap:     largeCap,
		largeEntries: make(map[tlbKey]refVal, largeCap),
	}
}

func (t *refTLB) Lookup(eptp Pointer, gfn mem.GFN) (mem.HPA, Perm, bool) {
	if v, ok := t.entries[tlbKey{eptp, gfn}]; ok {
		t.hits++
		return v.frame, v.perm, true
	}
	if v, ok := t.largeEntries[tlbKey{eptp, gfn >> 9}]; ok {
		t.hits++
		in := mem.HPA(gfn&0x1ff) << mem.PageShift
		return v.frame + in, v.perm, true
	}
	t.misses++
	return 0, 0, false
}

func (t *refTLB) Insert(eptp Pointer, gfn mem.GFN, frame mem.HPA, perm Perm) {
	k := tlbKey{eptp, gfn}
	if _, exists := t.entries[k]; exists {
		t.entries[k] = refVal{frame, perm}
		return
	}
	if len(t.entries) >= t.capacity {
		for len(t.order) > t.head {
			victim := t.order[t.head]
			t.head++
			if _, ok := t.entries[victim]; ok {
				delete(t.entries, victim)
				break
			}
		}
		if t.head > t.capacity {
			t.order = append(t.order[:0], t.order[t.head:]...)
			t.head = 0
		}
	}
	t.entries[k] = refVal{frame, perm}
	t.order = append(t.order, k)
}

func (t *refTLB) InvalidatePage(eptp Pointer, gfn mem.GFN) {
	delete(t.entries, tlbKey{eptp, gfn})
}

func (t *refTLB) InvalidateContext(eptp Pointer) {
	for k := range t.entries {
		if k.eptp == eptp {
			delete(t.entries, k)
		}
	}
	for k := range t.largeEntries {
		if k.eptp == eptp {
			delete(t.largeEntries, k)
		}
	}
}

func (t *refTLB) Flush() {
	clear(t.entries)
	t.order = t.order[:0]
	t.head = 0
	clear(t.largeEntries)
	t.largeOrder = t.largeOrder[:0]
	t.largeHead = 0
}

func (t *refTLB) InsertLarge(eptp Pointer, gfn2m mem.GFN, frame mem.HPA, perm Perm) {
	k := tlbKey{eptp, gfn2m}
	if _, exists := t.largeEntries[k]; exists {
		t.largeEntries[k] = refVal{frame, perm}
		return
	}
	if len(t.largeEntries) >= t.largeCap {
		for len(t.largeOrder) > t.largeHead {
			victim := t.largeOrder[t.largeHead]
			t.largeHead++
			if _, ok := t.largeEntries[victim]; ok {
				delete(t.largeEntries, victim)
				break
			}
		}
		if t.largeHead > t.largeCap {
			t.largeOrder = append(t.largeOrder[:0], t.largeOrder[t.largeHead:]...)
			t.largeHead = 0
		}
	}
	t.largeEntries[k] = refVal{frame, perm}
	t.largeOrder = append(t.largeOrder, k)
}

func (t *refTLB) Stats() (hits, misses uint64) { return t.hits, t.misses }

func (t *refTLB) Len() int { return len(t.entries) + len(t.largeEntries) }

// TLB ops in the fuzz encoding: each op is three bytes — kind and
// context, a frame selector, and a frame/permission byte.
const (
	fzInsert = iota
	fzInsertLarge
	fzLookup
	fzInvalidatePage
	fzInvalidateContext
	fzFlush
	fzKinds
)

// The fuzzed key space is small so keys collide, re-insert and evict:
// three contexts, and frames spread over four 2 MiB regions so lookups
// reach the large-page array too.
var fzContexts = [3]Pointer{0x1000 | 0x1e, 0x2000 | 0x1e, 0x7000 | 0x1e}

// fzMaxSteps bounds the ops one fuzz input runs.
const fzMaxSteps = 512

func fzGFN(b byte) mem.GFN { return mem.GFN(b>>3&3)<<9 | mem.GFN(b&7) }

func fzTLBOps(ops ...[3]byte) []byte {
	out := []byte{}
	for _, op := range ops {
		out = append(out, op[:]...)
	}
	return out
}

// FuzzTLB drives the TLB and the map-based reference through the same
// sequence of Insert, InsertLarge, Lookup, InvalidatePage,
// InvalidateContext and Flush at a small capacity, and after every step
// requires equal Stats, Len and Lookup results over the whole key space.
func FuzzTLB(f *testing.F) {
	// A capacity byte b runs at capacity 1 + b%24.
	//
	// Capacity 2, then: insert gfn 1 and 2, invalidate 1, re-insert 1,
	// insert 3. The eviction pops gfn 1's older ring copy, which evicts
	// the re-inserted gfn 1 early rather than gfn 2.
	f.Add(byte(1), fzTLBOps(
		[3]byte{fzInsert, 1, 0x10},
		[3]byte{fzInsert, 2, 0x20},
		[3]byte{fzInvalidatePage, 1, 0},
		[3]byte{fzInsert, 1, 0x11},
		[3]byte{fzInsert, 3, 0x30},
		[3]byte{fzLookup, 1, 0},
		[3]byte{fzLookup, 2, 0},
	))
	// Eviction from the large-page array (4 entries at capacity 9):
	// five regions, then lookups inside the evicted one and a resident one.
	f.Add(byte(8), fzTLBOps(
		[3]byte{fzInsertLarge, 0, 0x40},
		[3]byte{fzInsertLarge, 1, 0x41},
		[3]byte{fzInsertLarge, 2, 0x42},
		[3]byte{fzInsertLarge, 3, 0x43},
		[3]byte{fzInsertLarge, 4, 0x44},
		[3]byte{fzLookup, 0x05, 0},
		[3]byte{fzLookup, 0x1d, 0},
	))
	// A full table (6 entries in 8 slots) emptied one page at a time:
	// every removal from a shared probe run must keep the later members
	// of the run reachable.
	f.Add(byte(5), fzTLBOps(
		[3]byte{fzInsert, 0, 1},
		[3]byte{fzInsert, 1, 2},
		[3]byte{fzInsert, 8, 3},
		[3]byte{fzInsert | 1<<3, 0, 4},
		[3]byte{fzInsert | 1<<3, 9, 5},
		[3]byte{fzInsert | 2<<3, 16, 6},
		[3]byte{fzInvalidatePage, 0, 0},
		[3]byte{fzInvalidatePage, 8, 0},
		[3]byte{fzInvalidatePage | 1<<3, 0, 0},
		[3]byte{fzInvalidatePage, 1, 0},
		[3]byte{fzInvalidatePage | 2<<3, 16, 0},
	))
	// Every op kind across two contexts, with a context invalidation and
	// a flush in the middle of a run of evictions.
	f.Add(byte(3), fzTLBOps(
		[3]byte{fzInsert, 0, 1},
		[3]byte{fzInsert | 1<<3, 0, 2},
		[3]byte{fzInsert, 9, 3},
		[3]byte{fzInsertLarge | 1<<3, 2, 4},
		[3]byte{fzInsert, 17, 5},
		[3]byte{fzInvalidateContext, 0, 0},
		[3]byte{fzInsert | 1<<3, 4, 6},
		[3]byte{fzInsert, 4, 7},
		[3]byte{fzFlush, 0, 0},
		[3]byte{fzInsert, 4, 8},
	))
	f.Fuzz(func(t *testing.T, capacity byte, ops []byte) {
		// Longer inputs add no reach over this key space, only run time:
		// every step sweeps it twice.
		if len(ops) > 3*fzMaxSteps {
			ops = ops[:3*fzMaxSteps]
		}
		c := 1 + int(capacity)%24
		got, want := NewTLB(c), newRefTLB(c)
		check := func(step int) {
			t.Helper()
			if got.Len() != want.Len() {
				t.Fatalf("step %d: Len %d, reference %d", step, got.Len(), want.Len())
			}
			for _, p := range fzContexts {
				for b := 0; b < 32; b++ {
					gfn := fzGFN(byte(b))
					h, pm, ok := got.Lookup(p, gfn)
					wh, wpm, wok := want.Lookup(p, gfn)
					if h != wh || pm != wpm || ok != wok {
						t.Fatalf("step %d: Lookup(%v, %d) = %v %v %v, reference %v %v %v",
							step, p, gfn, h, pm, ok, wh, wpm, wok)
					}
				}
			}
			gh, gm := got.Stats()
			wh, wm := want.Stats()
			if gh != wh || gm != wm {
				t.Fatalf("step %d: Stats %d/%d, reference %d/%d", step, gh, gm, wh, wm)
			}
		}
		for i := 0; i+3 <= len(ops); i += 3 {
			kind, p := int(ops[i]&7)%fzKinds, fzContexts[int(ops[i]>>3)%len(fzContexts)]
			sel, arg := ops[i+1], ops[i+2]
			frame, perm := mem.HPA(arg)<<mem.PageShift, Perm(1+arg%7)
			switch kind {
			case fzInsert:
				got.Insert(p, fzGFN(sel), frame, perm)
				want.Insert(p, fzGFN(sel), frame, perm)
			case fzInsertLarge:
				gfn2m := mem.GFN(sel % 6)
				got.InsertLarge(p, gfn2m, frame<<9, perm)
				want.InsertLarge(p, gfn2m, frame<<9, perm)
			case fzLookup:
				h, pm, ok := got.Lookup(p, fzGFN(sel))
				wh, wpm, wok := want.Lookup(p, fzGFN(sel))
				if h != wh || pm != wpm || ok != wok {
					t.Fatalf("op %d: Lookup = %v %v %v, reference %v %v %v", i/3, h, pm, ok, wh, wpm, wok)
				}
			case fzInvalidatePage:
				got.InvalidatePage(p, fzGFN(sel))
				want.InvalidatePage(p, fzGFN(sel))
			case fzInvalidateContext:
				got.InvalidateContext(p)
				want.InvalidateContext(p)
			case fzFlush:
				got.Flush()
				want.Flush()
			}
			check(i / 3)
		}
	})
}

// TestTLBSlotIs32Bytes pins the table's slot layout: at the default
// 1536 entries and a load of at most 0.75, a vCPU's small-page table is
// 2048 slots, 64 KiB.
func TestTLBSlotIs32Bytes(t *testing.T) {
	if n := unsafe.Sizeof(tlbSlot{}); n != 32 {
		t.Fatalf("tlbSlot is %d bytes, want 32", n)
	}
	if n := len(NewTLB(0).entries.slots); n != 2048 {
		t.Fatalf("default table has %d slots, want 2048", n)
	}
}
