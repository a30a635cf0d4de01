package ept

import (
	"math/rand"
	"sync"
	"testing"

	"github.com/elisa-go/elisa/internal/mem"
)

// walkLookup is Lookup without the memo: the uncached walk every memo
// hit must agree with.
func walkLookup(t *Table, gpa mem.GPA) (mem.HPA, Perm, error) {
	_, e, lvl, err := t.walkEntry(gpa)
	if err != nil || e&permMask == 0 {
		return 0, 0, err
	}
	switch lvl {
	case 0:
		return mem.HPA(e & frameMask), Perm(e & permMask), nil
	case -1:
		in := uint64(gpa) % HugePageSize &^ uint64(mem.PageMask)
		return mem.HPA(e&frameMask) + mem.HPA(in), Perm(e & permMask), nil
	}
	return 0, 0, nil
}

func checkLookup(t *testing.T, step int, op string, tbl *Table, gpa mem.GPA) {
	t.Helper()
	gh, gp, gerr := tbl.Lookup(gpa)
	wh, wp, werr := walkLookup(tbl, gpa)
	if gh != wh || gp != wp || (gerr == nil) != (werr == nil) {
		t.Fatalf("step %d after %s: Lookup(%v) = %v %v %v, uncached walk %v %v %v", step, op, gpa, gh, gp, gerr, wh, wp, werr)
	}
}

// TestLookupMemoMatchesWalk runs random mutation sequences over two
// 2 MiB windows. Before each mutation it looks up the page the mutation
// targets, so the memo holds exactly the entry the mutation changes;
// after it, that page and a few others must read as the uncached walk
// reads them. A mutator that failed to drop the memo would return its
// stale entry here.
func TestLookupMemoMatchesWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pm := mem.MustNewPhysMem(4096 * mem.PageSize)
	tbl, err := New(pm)
	if err != nil {
		t.Fatal(err)
	}
	page := func() mem.GPA { return mem.GPA(rng.Intn(2*512) * mem.PageSize) }
	perms := []Perm{PermRead, PermRW, PermRX, PermRWX}
	seen := map[string]int{}
	for step := 0; step < 20_000; step++ {
		gpa := page()
		win := mem.GPA(uint64(gpa) &^ (HugePageSize - 1))
		// Point the memo at the target page (or, for 2 MiB operations,
		// at a page inside the window).
		tbl.Lookup(gpa)
		var op string
		switch rng.Intn(12) {
		case 0, 1, 2, 3:
			op = "Map"
			err = tbl.Map(gpa, mem.HPA(rng.Intn(4096)*mem.PageSize), perms[rng.Intn(len(perms))])
		case 4, 5:
			op = "Unmap"
			err = tbl.Unmap(gpa)
		case 6, 7:
			op = "Protect"
			err = tbl.Protect(gpa, perms[rng.Intn(len(perms))])
		case 8:
			op = "Map2M"
			err = tbl.Map2M(win, mem.HPA(rng.Intn(8)*HugePageSize), perms[rng.Intn(len(perms))])
		case 9:
			op = "Unmap2M"
			err = tbl.Unmap2M(win)
		case 10:
			// Clear a window of 4 KiB pages so Map2M can land there.
			op = "clear"
			for p := win; p < win+HugePageSize; p += mem.PageSize {
				if _, perm, _ := walkLookup(tbl, p); perm != 0 {
					if _, _, lvl, _ := tbl.walkEntry(p); lvl == 0 {
						_ = tbl.Unmap(p)
					}
				}
			}
			err = nil
		case 11:
			if rng.Intn(8) != 0 {
				continue
			}
			// Destroy frees the table frames; reclaiming them zeroes
			// them, so the uncached walk of the dead table finds
			// nothing where the memo would still find the old page.
			op = "Destroy"
			n := tbl.TableFrames()
			if err = tbl.Destroy(); err != nil {
				t.Fatal(err)
			}
			fill := make([]mem.HFN, n)
			for i := range fill {
				if fill[i], err = pm.AllocFrame(); err != nil {
					t.Fatal(err)
				}
			}
			checkLookup(t, step, op, tbl, gpa)
			for _, f := range fill {
				_ = pm.FreeFrame(f)
			}
			if tbl, err = New(pm); err != nil {
				t.Fatal(err)
			}
			seen[op]++
			continue
		}
		if err == nil {
			seen[op]++
		}
		checkLookup(t, step, op, tbl, gpa)
		checkLookup(t, step, op, tbl, gpa) // a memo hit now
		for i := 0; i < 3; i++ {
			checkLookup(t, step, op, tbl, page())
		}
	}
	for _, op := range []string{"Map", "Unmap", "Protect", "Map2M", "Unmap2M", "Destroy"} {
		if seen[op] < 20 {
			t.Errorf("only %d successful %s operations; the sequence does not exercise it", seen[op], op)
		}
	}
}

// TestLookupMemoConcurrent: Lookups on several goroutines share one
// table while another goroutine remaps and reprotects its pages. Every
// answer must be a state the table was in; run with -race, it also
// shows the memo is race-free.
func TestLookupMemoConcurrent(t *testing.T) {
	pm := mem.MustNewPhysMem(64 * mem.PageSize)
	tbl, err := New(pm)
	if err != nil {
		t.Fatal(err)
	}
	const pages = 4
	frameA, frameB := mem.HPA(32*mem.PageSize), mem.HPA(48*mem.PageSize)
	for p := 0; p < pages; p++ {
		if err := tbl.Map(mem.GPA(p*mem.PageSize), frameA, PermRead); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				hpa, perm, err := tbl.Lookup(mem.GPA((i + g) % pages * mem.PageSize))
				if err != nil || (hpa != frameA && hpa != frameB) || (perm != PermRead && perm != PermRW) {
					t.Errorf("Lookup returned %v %v %v, a state the table never held", hpa, perm, err)
					return
				}
			}
		}(g)
	}
	for i := 0; i < 5000; i++ {
		gpa := mem.GPA(i % pages * mem.PageSize)
		frame := frameA
		if i%3 == 0 {
			frame = frameB
		}
		if err := tbl.Map(gpa, frame, PermRead); err != nil {
			t.Fatal(err)
		}
		if err := tbl.Protect(gpa, PermRW); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}
