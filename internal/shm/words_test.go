package shm

import (
	"fmt"
	"testing"

	"github.com/elisa-go/elisa/internal/ept"
	"github.com/elisa-go/elisa/internal/hv"
	"github.com/elisa-go/elisa/internal/mem"
	"github.com/elisa-go/elisa/internal/simtime"
)

// wordCases are (offset, word count) pairs for the multi-word read: in
// one page, at a page's end, crossing a page, misaligned, out of range,
// negative and empty.
var wordCases = [][2]int{
	{0, 4}, {8, 1}, {64, 6}, {mem.PageSize - 32, 4}, {mem.PageSize - 16, 4},
	{mem.PageSize - 8, 2}, {mem.PageSize, 4}, {4, 2}, {2*mem.PageSize - 16, 4},
	{2 * mem.PageSize, 1}, {-8, 2}, {16, 0},
}

// wordResult is everything one read leaves behind.
type wordResult struct {
	vals  []uint64
	err   string
	clock simtime.Duration
	hits  uint64
	miss  uint64
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// fillWords writes a distinct word at every 8-byte offset of w.
func fillWords(t *testing.T, w Window) {
	t.Helper()
	for off := 0; off+8 <= w.Size(); off += 8 {
		if err := w.WriteU64(off, uint64(off)*0x9e3779b97f4a7c15+1); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReadU64sMatchesWordReads pins the multi-word read to len(dst)
// single-word reads on every window type: the same values, the same
// clock charge (n × MemAccess, not one), the same error and, through a
// guest's EPT, the same TLB hits and misses. A freed region and a block
// crossing a page take the word path, so partial charges on error match.
func TestReadU64sMatchesWordReads(t *testing.T) {
	host := func(t *testing.T) (*hv.HostRegion, *simtime.Clock, *simtime.Clock, *HostWindow, *HostWindow) {
		h, err := hv.New(hv.Config{PhysBytes: 8 * 1024 * 1024})
		if err != nil {
			t.Fatal(err)
		}
		// Free a frame below a live one first, so the region's two pages
		// are not adjacent host frames: a read running off its first
		// page into the next host frame would read the wrong bytes.
		x, err := h.AllocHostRegion(mem.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.AllocHostRegion(mem.PageSize); err != nil {
			t.Fatal(err)
		}
		if err := x.Free(); err != nil {
			t.Fatal(err)
		}
		r, err := h.AllocHostRegion(2 * mem.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		if f := r.Frames(); f[1] == f[0]+1 {
			t.Fatalf("region frames %v are adjacent", f)
		}
		ca, cb := simtime.NewClock(), simtime.NewClock()
		wa, _ := NewHostWindow(r, ca)
		wb, _ := NewHostWindow(r, cb)
		fillWords(t, wa)
		return r, ca, cb, wa, wb
	}
	compare := func(t *testing.T, what string, fused, words func(off int, dst []uint64) wordResult) {
		t.Helper()
		for _, c := range wordCases {
			got := fused(c[0], make([]uint64, c[1]))
			want := words(c[0], make([]uint64, c[1]))
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%s off %d n %d: multi-word %+v, word by word %+v", what, c[0], c[1], got, want)
			}
		}
	}
	hostRead := func(w Window, clk *simtime.Clock, fused bool) func(int, []uint64) wordResult {
		return func(off int, dst []uint64) wordResult {
			c0 := clk.Now()
			var err error
			if fused {
				err = w.ReadU64s(off, dst)
			} else {
				err = readWords(w, off, dst)
			}
			return wordResult{vals: dst, err: errString(err), clock: clk.Elapsed(c0)}
		}
	}

	t.Run("host", func(t *testing.T) {
		r, ca, cb, wa, wb := host(t)
		compare(t, "host", hostRead(wa, ca, true), hostRead(wb, cb, false))
		if ca.Now() == 0 {
			t.Fatal("no read charged the clock")
		}
		if err := r.Free(); err != nil {
			t.Fatal(err)
		}
		compare(t, "freed host", hostRead(wa, ca, true), hostRead(wb, cb, false))
	})

	t.Run("sub", func(t *testing.T) {
		_, ca, cb, wa, wb := host(t)
		sa, err := NewSubWindow(wa, 8, 2*mem.PageSize-8)
		if err != nil {
			t.Fatal(err)
		}
		sb, _ := NewSubWindow(wb, 8, 2*mem.PageSize-8)
		compare(t, "sub", hostRead(sa, ca, true), hostRead(sb, cb, false))
	})

	t.Run("gpa", func(t *testing.T) {
		h, err := hv.New(hv.Config{PhysBytes: 8 * 1024 * 1024})
		if err != nil {
			t.Fatal(err)
		}
		a, _ := h.CreateVM("a", 4*mem.PageSize)
		b, _ := h.CreateVM("b", 4*mem.PageSize)
		_, gpas, err := h.ShareDirect(2*mem.PageSize, ept.PermRW, a, b)
		if err != nil {
			t.Fatal(err)
		}
		wa, _ := NewGPAWindow(a.VCPU(), gpas[0], 2*mem.PageSize)
		wb, _ := NewGPAWindow(b.VCPU(), gpas[1], 2*mem.PageSize)
		fillWords(t, wa)
		read := func(w *GPAWindow, fused bool) func(int, []uint64) wordResult {
			return func(off int, dst []uint64) wordResult {
				v := w.v
				c0 := v.Clock().Now()
				h0, m0 := v.TLB().Stats()
				var err error
				if fused {
					err = w.ReadU64s(off, dst)
				} else {
					err = readWords(w, off, dst)
				}
				h1, m1 := v.TLB().Stats()
				return wordResult{vals: dst, err: errString(err), clock: v.Clock().Elapsed(c0), hits: h1 - h0, miss: m1 - m0}
			}
		}
		// b warms its TLB with the fill's twin so both start equal.
		fillWords(t, wb)
		compare(t, "gpa", read(wa, true), read(wb, false))
	})
}
