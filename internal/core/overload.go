package core

import (
	"fmt"

	"github.com/elisa-go/elisa/internal/hv"
	"github.com/elisa-go/elisa/internal/simtime"
)

// This file is the manager's overload-control surface: the drain-side
// busy bounce-back policy (OverloadConfig), the weighted-fair poll-budget
// shares guests get from DrainRings (SetPollWeight), and the guest-side
// retry policy RingCaller applies to CompBusy completions (RetryPolicy).
// The primitives themselves — token buckets and shedders — live in
// internal/overload; the fleet scheduler wires them to arrivals.

// OverloadConfig arms drain-side overload control (see
// Manager.SetOverload). The zero value leaves every overload behaviour
// off: DrainRings services rings greedily in (VM id, vslot) order and
// never bounces a descriptor, exactly the pre-overload datapath.
type OverloadConfig struct {
	// Enabled turns on busy bounce-backs and weighted-fair budget splits.
	Enabled bool
	// BusyFrac is the submission-queue occupancy fraction, of ring depth,
	// a budget-exhausted drain pass trims the queue down to by bouncing
	// the excess back as CompBusy, in [0, 1); 0 picks 0.5. Bouncing costs
	// the manager clock only the completion writes; the refused work
	// never runs.
	BusyFrac float64
}

// SetOverload arms (or, with the zero value, disarms) drain-side overload
// control. It refuses a BusyFrac below 0, or at or above 1, and leaves
// the armed configuration unchanged. Like SetRecorder and SetInjector it
// must be called before traffic starts; with the zero value armed, the
// drain path costs exactly one boolean check and the single-op Call path
// is untouched.
func (m *Manager) SetOverload(cfg OverloadConfig) error {
	if cfg.BusyFrac < 0 || cfg.BusyFrac >= 1 {
		return fmt.Errorf("core: overload BusyFrac %g outside [0, 1) (0 picks 0.5)", cfg.BusyFrac)
	}
	if cfg.BusyFrac == 0 {
		cfg.BusyFrac = 0.5
	}
	m.ov = cfg
	return nil
}

// Overload returns the armed overload configuration.
func (m *Manager) Overload() OverloadConfig { return m.ov }

// SetPollWeight sets a guest's weighted-fair share of the DrainRings
// budget. Weights are relative: a guest with weight 2 is offered twice
// the drain budget of a guest with weight 1 before leftover budget is
// redistributed. Weights below 1 are treated as 1.
func (m *Manager) SetPollWeight(vm *hv.VM, weight int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	gs, ok := m.guests[vm.ID()]
	if !ok {
		return fmt.Errorf("core: guest %q has no ELISA state", vm.Name())
	}
	gs.pollWeight = weight
	m.gen++
	return nil
}

// RetryPolicy is the guest-side answer to CompBusy: retry the bounced
// descriptor after a bounded exponential backoff charged to the guest's
// own clock. The zero value disables retries — Poll delivers CompBusy to
// the caller untouched.
type RetryPolicy struct {
	// MaxAttempts bounds how many times one descriptor is re-submitted
	// after busy bounce-backs; 0 disables retrying. A descriptor still
	// busy after the last attempt is delivered to the caller as CompBusy.
	MaxAttempts int
	// BaseBackoff is the first retry's backoff, doubling per attempt up
	// to MaxBackoff, plus up to 25% deterministic jitter (defaults 2µs
	// and 32×base — see overload.Backoff).
	BaseBackoff simtime.Duration
	MaxBackoff  simtime.Duration
	// Seed seeds the jitter RNG (0 picks 1), so same-seed runs back off
	// identically.
	Seed int64
}

// enabled reports whether the policy retries at all.
func (p RetryPolicy) enabled() bool { return p.MaxAttempts > 0 }
