package mem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"testing"
)

// denseMem is the reference model for FuzzPhysMem: the dense PhysMem
// that backed every byte with one slice and tracked allocations in a map.
// Its behaviour is the contract the chunked PhysMem must keep.
type denseMem struct {
	data   []byte
	frames int
	free   []HFN
	inUse  map[HFN]bool
}

func newDenseMem(size int) *denseMem {
	frames := size / PageSize
	d := &denseMem{data: make([]byte, size), frames: frames, inUse: map[HFN]bool{0: true}}
	for f := frames - 1; f >= 1; f-- {
		d.free = append(d.free, HFN(f))
	}
	return d
}

func (d *denseMem) AllocFrame() (HFN, error) {
	if len(d.free) == 0 {
		return 0, fmt.Errorf("out of frames")
	}
	f := d.free[len(d.free)-1]
	d.free = d.free[:len(d.free)-1]
	d.inUse[f] = true
	clear(d.data[int(f)*PageSize : int(f+1)*PageSize])
	return f, nil
}

func (d *denseMem) AllocFrames(n int) ([]HFN, error) {
	if n < 0 || len(d.free) < n {
		return nil, fmt.Errorf("bad count")
	}
	out := make([]HFN, n)
	for i := range out {
		out[i], _ = d.AllocFrame()
	}
	return out, nil
}

func (d *denseMem) AllocFramesContiguous(n, align int) ([]HFN, error) {
	if n <= 0 {
		return nil, fmt.Errorf("bad count")
	}
	if align <= 0 {
		align = 1
	}
	inFree := map[HFN]bool{}
	for _, f := range d.free {
		inFree[f] = true
	}
	for base := align; base+n <= d.frames; base += align {
		run := true
		for i := 0; i < n && run; i++ {
			run = inFree[HFN(base+i)]
		}
		if !run {
			continue
		}
		out := make([]HFN, n)
		for i := range out {
			out[i] = HFN(base + i)
			d.inUse[out[i]] = true
		}
		kept := d.free[:0]
		for _, f := range d.free {
			if !d.inUse[f] {
				kept = append(kept, f)
			}
		}
		d.free = kept
		clear(d.data[base*PageSize : (base+n)*PageSize])
		return out, nil
	}
	return nil, fmt.Errorf("no run")
}

func (d *denseMem) FreeFrame(f HFN) error {
	if int(f) >= d.frames || f == 0 || !d.inUse[f] {
		return fmt.Errorf("bad free")
	}
	delete(d.inUse, f)
	d.free = append(d.free, f)
	return nil
}

func (d *denseMem) span(addr HPA, n int) ([]byte, error) {
	end := uint64(addr) + uint64(n)
	if n < 0 || end > uint64(len(d.data)) || end < uint64(addr) {
		return nil, fmt.Errorf("out of bounds")
	}
	return d.data[addr:end], nil
}

// fuzzOp is one decoded operation: an opcode and five argument bytes.
type fuzzOp [6]byte

// addr decodes an address near an interesting anchor: a chunk boundary,
// a page boundary, the end of memory, or anywhere, moved by -32..31
// bytes. An anchor below 32 can wrap to a huge address.
func (op fuzzOp) addr(size int) HPA {
	idx := int(op[2])<<8 | int(op[3])
	var anchor int
	switch op[1] & 3 {
	case 0:
		anchor = idx % (size/ChunkSize + 2) * ChunkSize
	case 1:
		anchor = idx % (size / PageSize) * PageSize
	case 2:
		anchor = size
	case 3:
		anchor = idx * 64
	}
	return HPA(uint64(anchor) + uint64(int64(int8(op[1]))>>2))
}

// length decodes a byte count up to two pages; 0xff.. is negative.
func (op fuzzOp) length() int {
	if op[4] == 0xff {
		return -1
	}
	return (int(op[4])<<8 | int(op[5])) % (2*PageSize + 64)
}

func (op fuzzOp) pattern(n int) []byte {
	p := make([]byte, max(n, 0))
	for i := range p {
		p[i] = byte(i*31) ^ op[5] | 1
	}
	return p
}

func (op fuzzOp) value() uint64 {
	return 0x0123456789abcdef*uint64(op[4]|1) ^ uint64(op[5])
}

// FuzzPhysMem runs a decoded operation sequence against PhysMem and the
// dense reference model and requires identical outcomes: frame numbers,
// error vs success, bytes read, FreeFrames and InUse. Memory is one or
// two chunks plus 0–3 pages, so accesses and contiguous runs cross both
// page and chunk boundaries and reach past the end of a partly used
// last chunk.
func FuzzPhysMem(f *testing.F) {
	f.Add([]byte{1, 2, 0, 0, 0, 0, 0, 0, 2, 0, 2, 0, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		size := (1+int(data[0])%2)*ChunkSize + int(data[1])%4*PageSize
		pm, ref := MustNewPhysMem(size), newDenseMem(size)
		var live []HFN
		drop := func(fr HFN) {
			if i := slices.Index(live, fr); i >= 0 {
				live = slices.Delete(live, i, i+1)
			}
		}
		sameErr := func(what string, got, want error) {
			t.Helper()
			if (got == nil) != (want == nil) {
				t.Fatalf("%s: err %v, reference err %v", what, got, want)
			}
		}
		for rest := data[2:]; len(rest) >= len(fuzzOp{}); rest = rest[len(fuzzOp{}):] {
			op := fuzzOp(rest)
			addr, n := op.addr(size), op.length()
			what := fmt.Sprintf("op %d at %v len %d", op[0]%11, addr, n)
			switch op[0] % 11 {
			case 0:
				got, err := pm.AllocFrame()
				want, werr := ref.AllocFrame()
				sameErr(what, err, werr)
				if got != want {
					t.Fatalf("%s: AllocFrame %d, reference %d", what, got, want)
				}
				if err == nil {
					live = append(live, got)
				}
			case 1, 2:
				k := int(int8(op[2])) * (1 + int(op[3])%16)
				var got, want []HFN
				var err, werr error
				if op[0]%11 == 1 {
					got, err = pm.AllocFrames(k)
					want, werr = ref.AllocFrames(k)
				} else {
					k = (int(op[2])<<8 | int(op[3])) % 1100
					align := []int{-1, 0, 1, 2, 8, 64, 512}[int(op[4])%7]
					got, err = pm.AllocFramesContiguous(k, align)
					want, werr = ref.AllocFramesContiguous(k, align)
				}
				sameErr(what, err, werr)
				if !slices.Equal(got, want) {
					t.Fatalf("%s: frames %v, reference %v", what, got, want)
				}
				live = append(live, got...)
			case 3:
				fr := HFN(int(op[2])<<8 | int(op[3]))
				if op[1]&1 == 0 && len(live) > 0 {
					fr = live[int(fr)%len(live)]
				}
				err, werr := pm.FreeFrame(fr), ref.FreeFrame(fr)
				sameErr(what, err, werr)
				if err == nil {
					drop(fr)
				}
			case 4:
				got := make([]byte, max(n, 0))
				err := pm.Read(addr, got)
				want, werr := ref.span(addr, len(got))
				sameErr(what, err, werr)
				if err == nil && !bytes.Equal(got, want) {
					t.Fatalf("%s: Read differs from reference", what)
				}
			case 5:
				p := op.pattern(n)
				err := pm.Write(addr, p)
				want, werr := ref.span(addr, len(p))
				sameErr(what, err, werr)
				copy(want, p)
			case 6:
				got, err := pm.ReadU32(addr)
				want, werr := ref.span(addr, 4)
				sameErr(what, err, werr)
				if err == nil && got != binary.LittleEndian.Uint32(want) {
					t.Fatalf("%s: ReadU32 %#x, reference %#x", what, got, binary.LittleEndian.Uint32(want))
				}
			case 7:
				err := pm.WriteU32(addr, uint32(op.value()))
				want, werr := ref.span(addr, 4)
				sameErr(what, err, werr)
				if werr == nil {
					binary.LittleEndian.PutUint32(want, uint32(op.value()))
				}
			case 8:
				got, err := pm.ReadU64(addr)
				want, werr := ref.span(addr, 8)
				sameErr(what, err, werr)
				if err == nil && got != binary.LittleEndian.Uint64(want) {
					t.Fatalf("%s: ReadU64 %#x, reference %#x", what, got, binary.LittleEndian.Uint64(want))
				}
			case 9:
				err := pm.WriteU64(addr, op.value())
				want, werr := ref.span(addr, 8)
				sameErr(what, err, werr)
				if werr == nil {
					binary.LittleEndian.PutUint64(want, op.value())
				}
			case 10:
				err := pm.Zero(addr, n)
				want, werr := ref.span(addr, n)
				sameErr(what, err, werr)
				clear(want)
			}
			if pm.FreeFrames() != len(ref.free) {
				t.Fatalf("%s: FreeFrames %d, reference %d", what, pm.FreeFrames(), len(ref.free))
			}
			if fr := addr.Frame(); pm.InUse(fr) != ref.inUse[fr] {
				t.Fatalf("%s: InUse(%d) = %v, reference %v", what, fr, pm.InUse(fr), ref.inUse[fr])
			}
		}
		checkAgainstDense(t, pm, ref)
	})
}

// checkAgainstDense compares the whole memory and allocation state, and
// checks the chunk invariant the atomic accessors rely on: every
// allocated frame is backed.
func checkAgainstDense(t *testing.T, pm *PhysMem, ref *denseMem) {
	t.Helper()
	got := make([]byte, pm.Size())
	if err := pm.Read(0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ref.data) {
		t.Fatal("memory contents differ from reference")
	}
	for f := HFN(0); f < HFN(pm.Frames()); f++ {
		if pm.InUse(f) != ref.inUse[f] {
			t.Fatalf("InUse(%d) = %v, reference %v", f, pm.InUse(f), ref.inUse[f])
		}
		if f != 0 && pm.InUse(f) && pm.chunks[f.Page()>>chunkShift] == nil {
			t.Fatalf("allocated frame %d has no backing chunk", f)
		}
	}
}
