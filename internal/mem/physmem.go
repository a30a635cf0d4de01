package mem

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync/atomic"
	"unsafe"
)

// ChunkSize is the unit in which host memory backs the simulated
// physical memory: 2 MiB, i.e. 512 frames, the EPT huge-page size.
const ChunkSize = 1 << chunkShift

const (
	chunkShift = 21
	chunkMask  = ChunkSize - 1
)

// chunk is one unit of backing memory. Every chunk is full size, also
// the last one of a machine whose size is not a multiple of ChunkSize:
// a fixed-size array keeps the index at one pointer per chunk, so an
// access costs one index load before the data.
type chunk [ChunkSize]byte

// PhysMem is the host physical memory of the simulated machine: a fixed
// number of 4 KiB frames plus a free-list allocator. The hypervisor owns
// the only reference; everyone else sees slices of it through translations.
//
// The physical size is a model parameter, not a host cost: memory is
// backed in 2 MiB chunks the first time a frame in the chunk is
// allocated or written, and never-backed memory reads as zeros. Only
// touched memory costs the host anything (see ResidentBytes).
//
// Accesses are bounds-checked against the physical size; an out-of-range
// access is a bug in the caller (the hypervisor or a device model), not a
// guest-visible fault, so it returns an error rather than a simulated
// machine check.
type PhysMem struct {
	size   int
	frames int
	// chunks indexes the backing chunks by HPA >> chunkShift; a nil
	// entry has never been allocated or written.
	chunks []*chunk
	free   []HFN    // LIFO free list
	inUse  []uint64 // allocated-frame bitmap, frame f at bit f%64 of word f/64
}

// NewPhysMem creates a physical memory of the given size, which must be a
// positive multiple of PageSize.
func NewPhysMem(size int) (*PhysMem, error) {
	if size <= 0 || size%PageSize != 0 {
		return nil, fmt.Errorf("mem: physical size %d is not a positive multiple of %d", size, PageSize)
	}
	frames := size / PageSize
	if frames < 2 {
		return nil, fmt.Errorf("mem: physical size %d leaves no allocatable frames (frame 0 is reserved)", size)
	}
	pm := &PhysMem{
		size:   size,
		frames: frames,
		chunks: make([]*chunk, (size+ChunkSize-1)/ChunkSize),
		free:   make([]HFN, 0, frames-1),
		inUse:  make([]uint64, (frames+63)/64),
	}
	// Frame 0 is permanently reserved (like firmware-reserved low memory)
	// so that physical address 0 is never a valid EPT root or EPTP-list
	// page — 0 doubles as the nil/revoked sentinel throughout the model.
	// Push the rest so that allocation order is ascending (frame 1 first):
	// deterministic layouts make failures reproducible.
	pm.inUse[0] = 1
	for f := frames - 1; f >= 1; f-- {
		pm.free = append(pm.free, HFN(f))
	}
	return pm, nil
}

// MustNewPhysMem is NewPhysMem that panics on error; for tests and examples
// with constant sizes.
func MustNewPhysMem(size int) *PhysMem {
	pm, err := NewPhysMem(size)
	if err != nil {
		panic(err)
	}
	return pm
}

// Size returns the physical memory size in bytes.
func (pm *PhysMem) Size() int { return pm.size }

// Frames returns the total number of frames.
func (pm *PhysMem) Frames() int { return pm.frames }

// FreeFrames returns the number of currently unallocated frames.
func (pm *PhysMem) FreeFrames() int { return len(pm.free) }

// ResidentBytes returns the host memory backing the simulated memory:
// ChunkSize for every chunk allocated or written so far. Chunks stay
// backed for the life of the PhysMem.
func (pm *PhysMem) ResidentBytes() int {
	n := 0
	for _, c := range pm.chunks {
		if c != nil {
			n += ChunkSize
		}
	}
	return n
}

// AllocFrame allocates one zeroed frame.
func (pm *PhysMem) AllocFrame() (HFN, error) {
	if len(pm.free) == 0 {
		return 0, fmt.Errorf("mem: out of physical frames (%d total)", pm.frames)
	}
	f := pm.free[len(pm.free)-1]
	pm.free = pm.free[:len(pm.free)-1]
	pm.inUse[f/64] |= 1 << (f % 64)
	pm.claim(f, 1)
	return f, nil
}

// AllocFrames allocates n zeroed frames. On failure nothing is allocated.
func (pm *PhysMem) AllocFrames(n int) ([]HFN, error) {
	if n < 0 {
		return nil, fmt.Errorf("mem: AllocFrames(%d): negative count", n)
	}
	if len(pm.free) < n {
		return nil, fmt.Errorf("mem: out of physical frames: need %d, have %d", n, len(pm.free))
	}
	out := make([]HFN, n)
	for i := range out {
		f, err := pm.AllocFrame()
		if err != nil { // unreachable given the check above
			for _, g := range out[:i] {
				pm.FreeFrame(g)
			}
			return nil, err
		}
		out[i] = f
	}
	return out, nil
}

// FreeFrame returns a frame to the allocator. Freeing an unallocated frame
// is a double-free bug and returns an error.
func (pm *PhysMem) FreeFrame(f HFN) error {
	if f >= HFN(pm.frames) {
		return fmt.Errorf("mem: FreeFrame(%d): beyond physical memory", f)
	}
	if f == 0 {
		return fmt.Errorf("mem: FreeFrame(0): frame 0 is permanently reserved")
	}
	if !pm.InUse(f) {
		return fmt.Errorf("mem: FreeFrame(%d): frame is not allocated", f)
	}
	pm.inUse[f/64] &^= 1 << (f % 64)
	pm.free = append(pm.free, f)
	return nil
}

// InUse reports whether frame f is currently allocated.
func (pm *PhysMem) InUse(f HFN) bool {
	return f < HFN(pm.frames) && pm.inUse[f/64]&(1<<(f%64)) != 0
}

// claim hands out frames [f, f+n) zeroed, like a real host's page
// allocator must for isolation. A chunk backed here is zero already;
// frames in an older chunk are cleared.
func (pm *PhysMem) claim(f HFN, n int) {
	start, end := int(f)*PageSize, (int(f)+n)*PageSize
	for start < end {
		i := start >> chunkShift
		stop := min(end, (i+1)<<chunkShift)
		if c := pm.chunks[i]; c == nil {
			pm.chunks[i] = new(chunk)
		} else {
			clear(c[start&chunkMask : stop-i<<chunkShift])
		}
		start = stop
	}
}

func (pm *PhysMem) check(addr HPA, n int) error {
	if n < 0 {
		return fmt.Errorf("mem: negative length %d at %v", n, addr)
	}
	end := uint64(addr) + uint64(n)
	if end > uint64(pm.size) || end < uint64(addr) {
		return fmt.Errorf("mem: access [%v, +%d) beyond physical memory size %d", addr, n, pm.size)
	}
	return nil
}

// span returns the backing bytes of [addr, addr+n) when they are in
// bounds and lie in one backed chunk, else nil: the accessors' fast
// path. Everything else (never-backed memory, a chunk boundary, a bad
// address) takes the checked slow path. n must be non-negative.
func (pm *PhysMem) span(addr HPA, n int) []byte {
	i, off := int(addr>>chunkShift), int(addr&chunkMask)
	if i >= len(pm.chunks) || off > ChunkSize-n || uint64(addr)+uint64(n) > uint64(pm.size) {
		return nil
	}
	c := pm.chunks[i]
	if c == nil {
		return nil
	}
	return c[off : off+n]
}

// Read copies len(p) bytes starting at addr into p.
func (pm *PhysMem) Read(addr HPA, p []byte) error {
	if b := pm.span(addr, len(p)); b != nil {
		copy(p, b)
		return nil
	}
	if err := pm.check(addr, len(p)); err != nil {
		return err
	}
	for len(p) > 0 {
		off := int(addr & chunkMask)
		n := min(len(p), ChunkSize-off)
		if c := pm.chunks[addr>>chunkShift]; c != nil {
			copy(p[:n], c[off:])
		} else {
			clear(p[:n])
		}
		p, addr = p[n:], addr+HPA(n)
	}
	return nil
}

// Write copies p into physical memory starting at addr.
func (pm *PhysMem) Write(addr HPA, p []byte) error {
	if b := pm.span(addr, len(p)); b != nil {
		copy(b, p)
		return nil
	}
	if err := pm.check(addr, len(p)); err != nil {
		return err
	}
	for len(p) > 0 {
		i := int(addr >> chunkShift)
		c := pm.chunks[i]
		if c == nil {
			c = new(chunk)
			pm.chunks[i] = c
		}
		n := copy(c[addr&chunkMask:], p)
		p, addr = p[n:], addr+HPA(n)
	}
	return nil
}

// ReadU64 reads a little-endian 64-bit word. Naturally aligned accesses
// are atomic, as on real hardware: an EPTP-list entry read by VMFUNC
// microcode on one CPU while the hypervisor rewrites it on another sees
// either the old or the new pointer, never a torn mix. (The simulation
// assumes a little-endian host, which every supported platform is.)
func (pm *PhysMem) ReadU64(addr HPA) (uint64, error) {
	if b := pm.span(addr, 8); b != nil {
		if addr%8 == 0 {
			return atomic.LoadUint64((*uint64)(unsafe.Pointer(&b[0]))), nil
		}
		return binary.LittleEndian.Uint64(b), nil
	}
	var b [8]byte
	err := pm.Read(addr, b[:])
	return binary.LittleEndian.Uint64(b[:]), err
}

// WriteU64 writes a little-endian 64-bit word; naturally aligned writes
// are atomic (see ReadU64). Allocated frames are always backed, so the
// atomic path covers every aligned write to them.
func (pm *PhysMem) WriteU64(addr HPA, v uint64) error {
	if b := pm.span(addr, 8); b != nil {
		if addr%8 == 0 {
			atomic.StoreUint64((*uint64)(unsafe.Pointer(&b[0])), v)
			return nil
		}
		binary.LittleEndian.PutUint64(b, v)
		return nil
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return pm.Write(addr, b[:])
}

// ReadU32 reads a little-endian 32-bit word.
func (pm *PhysMem) ReadU32(addr HPA) (uint32, error) {
	if b := pm.span(addr, 4); b != nil {
		return binary.LittleEndian.Uint32(b), nil
	}
	var b [4]byte
	err := pm.Read(addr, b[:])
	return binary.LittleEndian.Uint32(b[:]), err
}

// WriteU32 writes a little-endian 32-bit word.
func (pm *PhysMem) WriteU32(addr HPA, v uint32) error {
	if b := pm.span(addr, 4); b != nil {
		binary.LittleEndian.PutUint32(b, v)
		return nil
	}
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	return pm.Write(addr, b[:])
}

// Zero clears n bytes starting at addr. Never-backed chunks already read
// as zeros and stay unbacked.
func (pm *PhysMem) Zero(addr HPA, n int) error {
	if err := pm.check(addr, n); err != nil {
		return err
	}
	for n > 0 {
		off := int(addr & chunkMask)
		k := min(n, ChunkSize-off)
		if c := pm.chunks[addr>>chunkShift]; c != nil {
			clear(c[off : off+k])
		}
		n, addr = n-k, addr+HPA(k)
	}
	return nil
}

// AllocFramesContiguous allocates n physically contiguous frames whose
// first frame number is a multiple of align (in frames). Huge-page
// mappings need this: a 2 MiB EPT entry covers 512 consecutive, aligned
// host frames. Returns the frames in ascending order, zeroed.
func (pm *PhysMem) AllocFramesContiguous(n, align int) ([]HFN, error) {
	if n <= 0 {
		return nil, fmt.Errorf("mem: AllocFramesContiguous(%d): count must be positive", n)
	}
	if align <= 0 {
		align = 1
	}
	for base := align; base+n <= pm.frames; {
		if used := pm.lastInUse(base, base+n); used >= 0 {
			// Every aligned base up to used overlaps it.
			base = (used/align + 1) * align
			continue
		}
		// Claim the run: mark in use, drop it from the free list (keeping
		// the order of the rest), zero.
		out := make([]HFN, n)
		for i := range out {
			f := HFN(base + i)
			out[i] = f
			pm.inUse[f/64] |= 1 << (f % 64)
		}
		kept := pm.free[:0]
		for _, f := range pm.free {
			if f < HFN(base) || f >= HFN(base+n) {
				kept = append(kept, f)
			}
		}
		pm.free = kept
		pm.claim(HFN(base), n)
		return out, nil
	}
	return nil, fmt.Errorf("mem: no contiguous run of %d frames aligned to %d", n, align)
}

// lastInUse returns the highest allocated frame in [lo, hi), or -1.
func (pm *PhysMem) lastInUse(lo, hi int) int {
	for w := (hi - 1) / 64; w >= lo/64; w-- {
		word := pm.inUse[w]
		if w == (hi-1)/64 {
			word &= ^uint64(0) >> (63 - (hi-1)%64)
		}
		if w == lo/64 {
			word &^= 1<<(lo%64) - 1
		}
		if word != 0 {
			return w*64 + 63 - bits.LeadingZeros64(word)
		}
	}
	return -1
}
