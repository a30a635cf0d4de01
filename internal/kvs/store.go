// Package kvs implements the paper's second use case: an in-memory
// key-value store shared by multiple guest VMs (§7.2). The hash table
// lives byte-for-byte in a shared object; clients reach it through one of
// the three sharing schemes the paper compares — ivshmem direct mapping,
// VMCALL host-interposition, or ELISA — and the multi-VM scaling
// experiments reproduce the paper's GET/PUT throughput figures.
package kvs

import (
	"bytes"
	"fmt"

	"github.com/elisa-go/elisa/internal/shm"
	"github.com/elisa-go/elisa/internal/simtime"
)

// Store header layout (all u64):
//
//	0:  magic
//	8:  bucket count
//	16: key size
//	24: value size
//	32: live entry count
//	40: seqlock (readers vs writers)
//	48: reserved, zero (writers serialise on Cluster's lock timeline)
//	56: reserved
//	64: buckets...
const (
	offMagic   = 0
	offBuckets = 8
	offKeySize = 16
	offValSize = 24
	offCount   = 32
	offSeq     = 40
	hdrBytes   = 64

	storeMagic = 0xE115A0_4B560001 // "ELISA KVS v1"
)

// Bucket states (first u64 of each bucket).
const (
	bEmpty     = 0
	bOccupied  = 1
	bTombstone = 2
)

// Layout describes a table's geometry.
type Layout struct {
	Buckets int // power of two
	KeySize int // fixed key footprint in bytes
	ValSize int // fixed value footprint in bytes
}

// Bytes returns the shared-memory footprint of a table with this layout.
func (l Layout) Bytes() int { return hdrBytes + l.Buckets*l.stride() }

func (l Layout) stride() int { return 8 + align8(l.KeySize) + align8(l.ValSize) }

func align8(n int) int { return (n + 7) &^ 7 }

func (l Layout) validate() error {
	if l.Buckets <= 0 || l.Buckets&(l.Buckets-1) != 0 {
		return fmt.Errorf("kvs: buckets %d must be a positive power of two", l.Buckets)
	}
	if l.KeySize <= 0 || l.KeySize > 256 {
		return fmt.Errorf("kvs: key size %d outside (0,256]", l.KeySize)
	}
	if l.ValSize <= 0 || l.ValSize > 1<<20 {
		return fmt.Errorf("kvs: value size %d outside (0,1MiB]", l.ValSize)
	}
	return nil
}

// Store is one attachment's view of the shared hash table. Multiple Store
// instances (in different VMs, through different schemes) operate on the
// same underlying bytes.
//
// A view has a single accessor — one vCPU issuing one operation at a
// time — so it owns the scratch buffers every operation needs and the
// datapath makes no heap allocation per op.
type Store struct {
	w       shm.Window
	charger shm.Charger // w's clock for non-copy work, resolved once; nil: w keeps none
	l       Layout
	cost    simtime.CostModel
	seq     *shm.Seqlock

	probeKey []byte // probe: the inspected bucket's key (KeySize)
	keyPad   []byte // the operation's key, zero-padded to KeySize
	valPad   []byte // Put: the value, zero-padded to ValSize

	// reqKey and reqVal hold a service request's key and value: serve
	// copies them in from where the guest staged them and a found GET
	// value back out of reqVal.
	reqKey []byte // KeySize
	reqVal []byte // ValSize
}

// Format initialises a table in w and returns a Store over it.
func Format(w shm.Window, l Layout, cost simtime.CostModel) (*Store, error) {
	if err := l.validate(); err != nil {
		return nil, err
	}
	if w.Size() < l.Bytes() {
		return nil, fmt.Errorf("kvs: layout needs %d bytes, window has %d", l.Bytes(), w.Size())
	}
	// The header words from offMagic through the reserved word at 48.
	for i, v := range [...]uint64{storeMagic, uint64(l.Buckets), uint64(l.KeySize), uint64(l.ValSize), 0, 0, 0} {
		if err := w.WriteU64(8*i, v); err != nil {
			return nil, err
		}
	}
	// Bucket states must start empty; fresh host regions are zeroed, but
	// re-formatting must also work.
	for i := 0; i < l.Buckets; i++ {
		if err := w.WriteU64(hdrBytes+i*l.stride(), bEmpty); err != nil {
			return nil, err
		}
	}
	return newStore(w, l, cost)
}

// Open attaches to a table previously created with Format.
func Open(w shm.Window, cost simtime.CostModel) (*Store, error) {
	magic, err := w.ReadU64(offMagic)
	if err != nil {
		return nil, err
	}
	if magic != storeMagic {
		return nil, fmt.Errorf("kvs: window does not contain a store (magic %#x)", magic)
	}
	var l Layout
	b, err := w.ReadU64(offBuckets)
	if err != nil {
		return nil, err
	}
	k, err := w.ReadU64(offKeySize)
	if err != nil {
		return nil, err
	}
	v, err := w.ReadU64(offValSize)
	if err != nil {
		return nil, err
	}
	l = Layout{Buckets: int(b), KeySize: int(k), ValSize: int(v)}
	if err := l.validate(); err != nil {
		return nil, fmt.Errorf("kvs: corrupt header: %w", err)
	}
	return newStore(w, l, cost)
}

func newStore(w shm.Window, l Layout, cost simtime.CostModel) (*Store, error) {
	seq, err := shm.NewSeqlock(w, offSeq)
	if err != nil {
		return nil, err
	}
	charger, _ := w.(shm.Charger)
	return &Store{
		w: w, charger: charger, l: l, cost: cost, seq: seq,
		probeKey: make([]byte, l.KeySize),
		keyPad:   make([]byte, l.KeySize),
		valPad:   make([]byte, l.ValSize),
		reqKey:   make([]byte, l.KeySize),
		reqVal:   make([]byte, l.ValSize),
	}, nil
}

// Layout returns the table geometry.
func (s *Store) Layout() Layout { return s.l }

// Count returns the number of live entries.
func (s *Store) Count() (int, error) {
	v, err := s.w.ReadU64(offCount)
	return int(v), err
}

// charge bills d to the window's clock, when it keeps one.
func (s *Store) charge(d simtime.Duration) {
	if s.charger != nil {
		s.charger.Charge(d)
	}
}

// hash is FNV-1a 64; its compute cost is charged to the accessor.
func (s *Store) hash(key []byte) uint64 {
	s.charge(simtime.Duration(4+len(key)/8) * s.cost.Instruction)
	h := uint64(14695981039346656037)
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

func (s *Store) checkKey(key []byte) error {
	if len(key) == 0 || len(key) > s.l.KeySize {
		return fmt.Errorf("kvs: key length %d outside (0,%d]", len(key), s.l.KeySize)
	}
	return nil
}

func (s *Store) bucketOff(i uint64) int {
	return hdrBytes + int(i&uint64(s.l.Buckets-1))*s.l.stride()
}

// probe finds the bucket holding key (found=true) or the first insertable
// slot (found=false, insertOff >= 0; -1 when the table is full). Each
// inspected bucket costs one DRAM random access. It leaves key, padded
// to KeySize, in s.keyPad.
func (s *Store) probe(key []byte) (off int, found bool, insertOff int, err error) {
	h := s.hash(key)
	insertOff = -1
	kbuf, padded := s.probeKey, s.keyPad
	clear(padded[copy(padded, key):])
	for i := 0; i < s.l.Buckets; i++ {
		bOff := s.bucketOff(h + uint64(i))
		s.charge(s.cost.DRAMAccess)
		state, err := s.w.ReadU64(bOff)
		if err != nil {
			return 0, false, -1, err
		}
		switch state {
		case bEmpty:
			if insertOff < 0 {
				insertOff = bOff
			}
			return 0, false, insertOff, nil
		case bTombstone:
			if insertOff < 0 {
				insertOff = bOff
			}
		case bOccupied:
			if err := s.w.Read(bOff+8, kbuf); err != nil {
				return 0, false, -1, err
			}
			if bytes.Equal(kbuf, padded) {
				return bOff, true, insertOff, nil
			}
		default:
			return 0, false, -1, fmt.Errorf("kvs: corrupt bucket state %d", state)
		}
	}
	return 0, false, insertOff, nil
}

// Get copies the value for key into val (which must be ValSize long) and
// reports whether the key exists. Reads are seqlock-consistent and never
// block writers.
func (s *Store) Get(key, val []byte) (bool, error) {
	if err := s.checkKey(key); err != nil {
		return false, err
	}
	if len(val) < s.l.ValSize {
		return false, fmt.Errorf("kvs: value buffer %d smaller than value size %d", len(val), s.l.ValSize)
	}
	var found bool
	err := s.seq.ReadConsistent(func() error {
		off, ok, _, err := s.probe(key)
		if err != nil {
			return err
		}
		found = ok
		if !ok {
			return nil
		}
		s.charge(s.cost.DRAMAccess)
		return s.w.Read(off+8+align8(s.l.KeySize), val[:s.l.ValSize])
	})
	return found, err
}

// Put inserts or updates key. Put itself only manipulates the seqlock;
// Cluster models the serialisation of writers on different VMs.
func (s *Store) Put(key, val []byte) error {
	if err := s.checkKey(key); err != nil {
		return err
	}
	if len(val) > s.l.ValSize {
		return fmt.Errorf("kvs: value length %d exceeds value size %d", len(val), s.l.ValSize)
	}
	return s.seq.WriteLocked(func() error {
		off, found, insertOff, err := s.probe(key)
		if err != nil {
			return err
		}
		vpadded := s.valPad
		clear(vpadded[copy(vpadded, val):])
		if found {
			s.charge(s.cost.DRAMAccess)
			return s.w.Write(off+8+align8(s.l.KeySize), vpadded)
		}
		if insertOff < 0 {
			return fmt.Errorf("kvs: table full (%d buckets)", s.l.Buckets)
		}
		s.charge(s.cost.DRAMAccess)
		if err := s.w.Write(insertOff+8, s.keyPad); err != nil {
			return err
		}
		if err := s.w.Write(insertOff+8+align8(s.l.KeySize), vpadded); err != nil {
			return err
		}
		if err := s.w.WriteU64(insertOff, bOccupied); err != nil {
			return err
		}
		n, err := s.w.ReadU64(offCount)
		if err != nil {
			return err
		}
		return s.w.WriteU64(offCount, n+1)
	})
}

// Delete removes key, reporting whether it existed.
func (s *Store) Delete(key []byte) (bool, error) {
	if err := s.checkKey(key); err != nil {
		return false, err
	}
	var existed bool
	err := s.seq.WriteLocked(func() error {
		off, found, _, err := s.probe(key)
		if err != nil {
			return err
		}
		existed = found
		if !found {
			return nil
		}
		if err := s.w.WriteU64(off, bTombstone); err != nil {
			return err
		}
		n, err := s.w.ReadU64(offCount)
		if err != nil {
			return err
		}
		return s.w.WriteU64(offCount, n-1)
	})
	return existed, err
}
