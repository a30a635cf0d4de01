package shm

import "fmt"

// Seqlock is a sequence lock: writers make the counter odd while mutating;
// readers retry if they observe an odd or changed counter. GET-heavy
// workloads (the paper's KV store) use it so reads scale without
// serialising.
type Seqlock struct {
	w   Window
	off int
}

// NewSeqlock places a seqlock at an 8-byte-aligned offset in w.
func NewSeqlock(w Window, off int) (*Seqlock, error) {
	if w == nil || off < 0 || off%8 != 0 || off+8 > w.Size() {
		return nil, fmt.Errorf("shm: invalid seqlock placement %d", off)
	}
	return &Seqlock{w: w, off: off}, nil
}

// WriteLocked runs fn with the sequence held odd.
func (s *Seqlock) WriteLocked(fn func() error) error {
	seq, err := s.w.ReadU64(s.off)
	if err != nil {
		return err
	}
	if seq%2 == 1 {
		return fmt.Errorf("shm: nested seqlock write (seq %d)", seq)
	}
	if err := s.w.WriteU64(s.off, seq+1); err != nil {
		return err
	}
	fnErr := fn()
	if err := s.w.WriteU64(s.off, seq+2); err != nil {
		return err
	}
	return fnErr
}

// ReadConsistent runs fn, retrying until it observes a stable even
// sequence. The retry bound exists only to convert a stuck writer into a
// diagnosable error.
func (s *Seqlock) ReadConsistent(fn func() error) error {
	for attempt := 0; attempt < 64; attempt++ {
		before, err := s.w.ReadU64(s.off)
		if err != nil {
			return err
		}
		if before%2 == 1 {
			continue
		}
		if err := fn(); err != nil {
			return err
		}
		after, err := s.w.ReadU64(s.off)
		if err != nil {
			return err
		}
		if after == before {
			return nil
		}
	}
	return fmt.Errorf("shm: seqlock read starved")
}
