// Package shm provides data structures laid out in shared simulated
// memory: byte windows, spinlocks, seqlocks and single-producer/
// single-consumer rings. Everything operates through a Window, so the same
// structure can be driven by a guest vCPU (through the active EPT context,
// paying simulated costs and subject to isolation) or by host-side code
// (through a hv.HostRegion) — which is exactly the situation in the paper:
// the same ring is touched by a guest on one side and the host or manager
// code on the other.
package shm

import (
	"fmt"

	"github.com/elisa-go/elisa/internal/cpu"
	"github.com/elisa-go/elisa/internal/hv"
	"github.com/elisa-go/elisa/internal/mem"
	"github.com/elisa-go/elisa/internal/simtime"
)

// Window is a bounded view of shared memory.
type Window interface {
	// Size returns the window length in bytes.
	Size() int
	// Read copies len(p) bytes at off into p.
	Read(off int, p []byte) error
	// Write copies p into the window at off.
	Write(off int, p []byte) error
	// ReadU64 loads an 8-byte-aligned word.
	ReadU64(off int) (uint64, error)
	// WriteU64 stores an 8-byte-aligned word.
	WriteU64(off int, v uint64) error
}

// GPAWindow is a guest-side window: all accesses go through the vCPU's
// active EPT context.
type GPAWindow struct {
	v    *cpu.VCPU
	base mem.GPA
	size int
}

// NewGPAWindow wraps [base, base+size) as seen by v.
func NewGPAWindow(v *cpu.VCPU, base mem.GPA, size int) (*GPAWindow, error) {
	if v == nil || size <= 0 {
		return nil, fmt.Errorf("shm: invalid GPA window (size %d)", size)
	}
	return &GPAWindow{v: v, base: base, size: size}, nil
}

// Size implements Window.
func (w *GPAWindow) Size() int { return w.size }

func (w *GPAWindow) check(off, n int) error {
	if off < 0 || n < 0 || off+n > w.size {
		return fmt.Errorf("shm: access [%d,+%d) outside window size %d", off, n, w.size)
	}
	return nil
}

// Read implements Window.
func (w *GPAWindow) Read(off int, p []byte) error {
	if err := w.check(off, len(p)); err != nil {
		return err
	}
	return w.v.ReadGPA(w.base+mem.GPA(off), p)
}

// Write implements Window.
func (w *GPAWindow) Write(off int, p []byte) error {
	if err := w.check(off, len(p)); err != nil {
		return err
	}
	return w.v.WriteGPA(w.base+mem.GPA(off), p)
}

// ReadU64 implements Window.
func (w *GPAWindow) ReadU64(off int) (uint64, error) {
	if err := w.check(off, 8); err != nil {
		return 0, err
	}
	return w.v.ReadU64GPA(w.base + mem.GPA(off))
}

// WriteU64 implements Window.
func (w *GPAWindow) WriteU64(off int, v uint64) error {
	if err := w.check(off, 8); err != nil {
		return err
	}
	return w.v.WriteU64GPA(w.base+mem.GPA(off), v)
}

// HostWindow is a host-side window over a HostRegion; costs are charged to
// the supplied clock (the simulated core doing the host work).
type HostWindow struct {
	r   *hv.HostRegion
	clk *simtime.Clock
}

// NewHostWindow wraps a host region. clk may be nil for free inspection in
// tests.
func NewHostWindow(r *hv.HostRegion, clk *simtime.Clock) (*HostWindow, error) {
	if r == nil {
		return nil, fmt.Errorf("shm: nil host region")
	}
	return &HostWindow{r: r, clk: clk}, nil
}

// Size implements Window.
func (w *HostWindow) Size() int { return w.r.Size() }

// Read implements Window.
func (w *HostWindow) Read(off int, p []byte) error { return w.r.Read(w.clk, off, p) }

// Write implements Window.
func (w *HostWindow) Write(off int, p []byte) error { return w.r.Write(w.clk, off, p) }

// ReadU64 implements Window.
func (w *HostWindow) ReadU64(off int) (uint64, error) { return w.r.ReadU64(w.clk, off) }

// WriteU64 implements Window.
func (w *HostWindow) WriteU64(off int, v uint64) error { return w.r.WriteU64(w.clk, off, v) }

// SubWindow restricts a window to [off, off+size).
type SubWindow struct {
	w    Window
	off  int
	size int
}

// NewSubWindow carves [off, off+size) out of w.
func NewSubWindow(w Window, off, size int) (*SubWindow, error) {
	if w == nil || off < 0 || size <= 0 || off+size > w.Size() {
		return nil, fmt.Errorf("shm: sub-window [%d,+%d) outside parent", off, size)
	}
	return &SubWindow{w: w, off: off, size: size}, nil
}

// Size implements Window.
func (s *SubWindow) Size() int { return s.size }

func (s *SubWindow) check(off, n int) error {
	if off < 0 || n < 0 || off+n > s.size {
		return fmt.Errorf("shm: access [%d,+%d) outside sub-window size %d", off, n, s.size)
	}
	return nil
}

// Read implements Window.
func (s *SubWindow) Read(off int, p []byte) error {
	if err := s.check(off, len(p)); err != nil {
		return err
	}
	return s.w.Read(s.off+off, p)
}

// Write implements Window.
func (s *SubWindow) Write(off int, p []byte) error {
	if err := s.check(off, len(p)); err != nil {
		return err
	}
	return s.w.Write(s.off+off, p)
}

// ReadU64 implements Window.
func (s *SubWindow) ReadU64(off int) (uint64, error) {
	if err := s.check(off, 8); err != nil {
		return 0, err
	}
	return s.w.ReadU64(s.off + off)
}

// WriteU64 implements Window.
func (s *SubWindow) WriteU64(off int, v uint64) error {
	if err := s.check(off, 8); err != nil {
		return err
	}
	return s.w.WriteU64(s.off+off, v)
}

// Charger is implemented by windows that can account simulated time for
// work that is not a raw byte move (hash computation, cache-missing
// probes). Each Window implementation charges the clock of whoever is
// doing the access.
type Charger interface {
	Charge(d simtime.Duration)
}

// Charge implements Charger: guest-side work lands on the vCPU's clock.
func (w *GPAWindow) Charge(d simtime.Duration) { w.v.Charge(d) }

// Charge implements Charger: host-side work lands on the servicing clock
// (nil clock = free, test-only inspection).
func (w *HostWindow) Charge(d simtime.Duration) {
	if w.clk != nil {
		w.clk.Advance(d)
	}
}

// Charge implements Charger by delegating to the parent window.
func (s *SubWindow) Charge(d simtime.Duration) {
	if c, ok := s.w.(Charger); ok {
		c.Charge(d)
	}
}
