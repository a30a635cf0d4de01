package mem

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// TestNewPhysMemAllocsFlat pins what booting a physical memory costs the
// host: the chunk index and two bits per frame, nothing per frame beyond
// that. A 512 MiB memory has 131,072 frames, so two bitmaps of 16 KiB
// and a 2 KiB chunk index; a free list of one HFN per frame would be
// 1 MiB.
func TestNewPhysMemAllocsFlat(t *testing.T) {
	const size = 512 << 20
	frames := size / PageSize
	limit := uint64(2*frames/8 + size/ChunkSize*8 + 512) // + the struct and allocator rounding
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 8
	for i := 0; i < runs; i++ {
		if _, err := NewPhysMem(size); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / runs; got > limit {
		t.Fatalf("NewPhysMem(%d MiB) allocated %d bytes, want at most %d", size>>20, got, limit)
	}
	// Once a frame's chunk is backed and the freed stack has room,
	// reusing the frame allocates nothing.
	pm := MustNewPhysMem(size)
	fs, err := pm.AllocFrames(64)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fs {
		if err := pm.FreeFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(20, func() {
		f, err := pm.AllocFrame()
		if err != nil {
			t.Fatal(err)
		}
		if err := pm.FreeFrame(f); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("AllocFrame+FreeFrame made %v allocations, want 0", n)
	}
}

// TestAllocOrderMatchesDense drives single, batch and aligned
// contiguous claims and frees through PhysMem and the dense reference
// model, on a memory large enough that the bitmaps span many words.
// Every frame number handed out must match. A scripted start claims a
// run above the fresh cursor, frees one of its frames and then claims a
// run that starts on fresh frames and ends on that freed one; a long
// seeded mix follows.
func TestAllocOrderMatchesDense(t *testing.T) {
	const size = 4 * ChunkSize
	pm, ref := MustNewPhysMem(size), newDenseMem(size)
	var live []HFN
	check := func(what string, got []HFN, err error, want []HFN, werr error) {
		t.Helper()
		if (err == nil) != (werr == nil) {
			t.Fatalf("%s: err %v, reference err %v", what, err, werr)
		}
		if pm.FreeFrames() != len(ref.free) {
			t.Fatalf("%s: FreeFrames %d, reference %d", what, pm.FreeFrames(), len(ref.free))
		}
		if err != nil {
			return
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: frames %v, reference %v", what, got, want)
		}
		live = append(live, got...)
	}
	single := func(what string) {
		t.Helper()
		f, err := pm.AllocFrame()
		g, werr := ref.AllocFrame()
		check(what, []HFN{f}, err, []HFN{g}, werr)
	}
	contiguous := func(what string, n, align int) {
		t.Helper()
		got, err := pm.AllocFramesContiguous(n, align)
		want, werr := ref.AllocFramesContiguous(n, align)
		check(what, got, err, want, werr)
	}
	free := func(what string, j int) {
		t.Helper()
		if err, werr := pm.FreeFrame(live[j]), ref.FreeFrame(live[j]); err != nil || werr != nil {
			t.Fatalf("%s: FreeFrame(%d): %v, reference %v", what, live[j], err, werr)
		}
		live = slices.Delete(live, j, j+1)
	}

	contiguous("run above the cursor", 64, 64) // frames 64-127
	for i := 0; i < 59; i++ {
		single("fresh") // frames 1-59
	}
	free("free frame 64", 0)
	contiguous("fresh run ending on a freed frame", 5, 4) // frames 60-64
	single("after the run")                               // fresh 128, not 64 again

	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 4000; i++ {
		what := fmt.Sprintf("op %d", i)
		switch op := rng.Intn(10); {
		case op < 4:
			single(what)
		case op < 5:
			n := rng.Intn(40)
			got, err := pm.AllocFrames(n)
			want, werr := ref.AllocFrames(n)
			check(what, got, err, want, werr)
		case op < 7:
			contiguous(what, 1+rng.Intn(80), []int{1, 4, 16, 64, 512}[rng.Intn(5)])
		default:
			for k := rng.Intn(64); k > 0 && len(live) > 0; k-- {
				free(what, rng.Intn(len(live)))
			}
		}
	}
	checkAgainstDense(t, pm, ref)
}
