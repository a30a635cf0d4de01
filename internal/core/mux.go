package core

import (
	"fmt"

	"github.com/elisa-go/elisa/internal/cpu"
	"github.com/elisa-go/elisa/internal/obs"
	"github.com/elisa-go/elisa/internal/shm"
)

// DefaultMuxTraceBase is the trace-ID namespace RingMux descriptors mint
// from when RingMuxConfig.TraceBase is zero. Bit 62 keeps mux traces
// disjoint from per-caller traces, whose base is (vmID+1)<<48 |
// (vslot+1)<<32 — far below it for any realistic VM count.
const DefaultMuxTraceBase uint64 = 1 << 62

// maxReroutes caps how many times one descriptor may be re-routed after
// its ring died under it.
const maxReroutes = 2

// RerouteFunc resolves a replacement ring for a lane whose ring died
// mid-flight (revocation, detach, MoveObject). Returning a nil caller or
// an error declines the re-route: the lane's failed completions are
// delivered to the caller as CompErr instead — failed, never stranded.
type RerouteFunc func(lane int) (*RingCaller, error)

// RingMuxConfig configures a RingMux.
type RingMuxConfig struct {
	// TraceBase brands every descriptor the mux submits: trace =
	// TraceBase | seq (low 32 bits). It must be non-zero in its upper 32
	// bits and unique per mux on a machine so causal chains never
	// collide; zero selects DefaultMuxTraceBase. The mux minting its own
	// traces — rather than borrowing each lane's — is what lets a
	// descriptor keep one causal identity when it is re-routed to a ring
	// with a different (vm, vslot) trace base.
	TraceBase uint64
	// Reroute, when non-nil, is consulted when a lane's ring dies with
	// descriptors in flight. See RerouteFunc.
	Reroute RerouteFunc
}

// muxEntry tracks one in-flight mux descriptor by its trace ID. Trace
// lookup — not per-lane FIFO order — is the matching rule, because a
// lane's retry policy can swallow and re-submit CompBusy descriptors,
// reordering completions relative to submissions.
type muxEntry struct {
	lane     int
	d        shm.Desc
	reroutes int
}

// RingMux fans descriptors out to several call rings under one
// Submit/Poll surface. Each lane is an independent RingCaller — in the
// cluster, one per (object, owning shard), each bound to its own shard
// replica's vCPU — and the mux:
//
//   - preserves causal trace IDs across the fan-out (descriptors carry
//     mux-minted traces, see RingMuxConfig.TraceBase);
//   - inherits each lane's CompBusy retry semantics unchanged (retries
//     happen inside the lane's RingCaller, below the mux);
//   - survives a mid-batch MoveObject: when a lane's ring dies, its
//     administratively-failed completions are intercepted and the
//     descriptors re-submitted — same trace — on the replacement ring
//     Reroute resolves; descriptors that cannot be re-routed are
//     delivered as CompErr. Either way nothing is ever stranded.
//
// Like RingCaller, a RingMux models a single producer and is not safe
// for concurrent use. Lanes must not be driven directly while the mux
// owns them, or trace bookkeeping desynchronises.
type RingMux struct {
	cfg   RingMuxConfig
	lanes []*RingCaller

	seq      uint64
	inflight map[uint64]*muxEntry
	// spill holds completions surfaced while draining a dead lane that
	// did not fit the caller's Poll buffer; they are delivered first on
	// the next Poll, preserving order.
	spill []shm.Comp

	cursor   int // rotating lane fairness cursor for Poll
	rerouted uint64
}

// NewRingMux builds a mux over the given lanes (at least one, all
// non-nil).
func NewRingMux(cfg RingMuxConfig, lanes ...*RingCaller) (*RingMux, error) {
	if len(lanes) == 0 {
		return nil, fmt.Errorf("core: RingMux needs at least one lane")
	}
	for i, rc := range lanes {
		if rc == nil {
			return nil, fmt.Errorf("core: RingMux lane %d is nil", i)
		}
	}
	if cfg.TraceBase == 0 {
		cfg.TraceBase = DefaultMuxTraceBase
	}
	if cfg.TraceBase&0xffffffff != 0 {
		return nil, fmt.Errorf("core: RingMux trace base %#x has non-zero sequence bits", cfg.TraceBase)
	}
	return &RingMux{
		cfg:      cfg,
		lanes:    append([]*RingCaller(nil), lanes...),
		inflight: make(map[uint64]*muxEntry),
	}, nil
}

// vcpu is the vCPU a lane's operations must issue from — the owning
// guest replica's vCPU (lanes of one mux can live on different VMs).
func (rc *RingCaller) vcpu() *cpu.VCPU { return rc.h.g.vm.VCPU() }

// Lane returns one lane's current ring caller (it changes after a
// re-route).
func (mx *RingMux) Lane(i int) *RingCaller { return mx.lanes[i] }

// Rerouted counts descriptors re-submitted on a replacement ring after
// their lane died.
func (mx *RingMux) Rerouted() uint64 { return mx.rerouted }

// Pending returns how many mux submissions have not been delivered to
// the caller yet (in flight on a lane, or spilled awaiting the next
// Poll).
func (mx *RingMux) Pending() int { return len(mx.inflight) + len(mx.spill) }

// Submit enqueues one operation on the given lane, stamped with a
// mux-minted causal trace. Flush policy, gate crossings, and retry
// behaviour are the lane's own — Submit costs exactly what the lane's
// RingCaller.Submit costs.
func (mx *RingMux) Submit(lane int, fnID uint64, args ...uint64) error {
	if lane < 0 || lane >= len(mx.lanes) {
		return fmt.Errorf("core: RingMux submit on lane %d of %d", lane, len(mx.lanes))
	}
	if len(args) > 4 {
		return fmt.Errorf("core: Submit takes at most 4 args, got %d", len(args))
	}
	var d shm.Desc
	d.Fn = fnID
	copy(d.Args[:], args)
	mx.seq++
	d.Trace = mx.cfg.TraceBase | mx.seq&0xffffffff
	rc := mx.lanes[lane]
	if err := rc.submit(rc.vcpu(), d, obs.EvSubmit, obs.NoteNone); err != nil {
		return err
	}
	mx.inflight[d.Trace] = &muxEntry{lane: lane, d: d}
	return nil
}

// Flush takes each lane's gate crossing for whatever it has queued (a
// lane with nothing queued takes no crossing).
func (mx *RingMux) Flush() error {
	for _, rc := range mx.lanes {
		if err := rc.Flush(rc.vcpu()); err != nil {
			return err
		}
	}
	return nil
}

// Poll delivers up to len(out) completions, visiting lanes round-robin
// from a cursor that rotates across calls so no lane is structurally
// favoured. A CompErr for an in-flight descriptor whose ring has died is
// not delivered: the whole dead lane is drained, each failed descriptor
// re-submitted — original trace — on the replacement ring Reroute
// resolves, and the lane swapped to it. Re-routes are capped per
// descriptor by maxReroutes; past the cap (or with no Reroute) the
// CompErr is delivered, so every submission always surfaces exactly
// once.
func (mx *RingMux) Poll(out []shm.Comp) (int, error) {
	n := copy(out, mx.spill)
	mx.spill = mx.spill[n:]
	if len(mx.spill) == 0 {
		mx.spill = nil
	}
	L := len(mx.lanes)
	var one [1]shm.Comp
	for li := 0; li < L && n < len(out); li++ {
		lane := (mx.cursor + li) % L
		for n < len(out) {
			rc := mx.lanes[lane]
			k, err := rc.poll(rc.vcpu(), one[:], false)
			if err != nil {
				return n, err
			}
			if k == 0 {
				break
			}
			c := one[0]
			ent := mx.inflight[c.Trace]
			if ent != nil && c.Status == shm.CompErr && rc.rs.dead.Load() {
				// The ring died under this descriptor. Take over the whole
				// lane: drain it dry, re-route what can be re-routed, and
				// swap in the replacement.
				delivered, err := mx.failover(lane, rc, c)
				if err != nil {
					return n, err
				}
				for _, dc := range delivered {
					if n < len(out) {
						out[n] = dc
						n++
					} else {
						mx.spill = append(mx.spill, dc)
					}
				}
				break // old lane is drained; move on
			}
			delete(mx.inflight, c.Trace)
			rc.emitDeliver(rc.vcpu(), c)
			out[n] = c
			n++
		}
	}
	mx.cursor = (mx.cursor + 1) % L
	return n, nil
}

// failover drains a dead lane to exhaustion, starting from the first
// failed completion already popped. Failed in-flight descriptors under
// their re-route budget are re-submitted on the replacement ring with
// their original traces; everything else (successes drained before the
// ring died, descriptors past the cap, foreign completions) is returned
// for delivery. The dead ring's Poll path administratively sweeps its
// own submission queue (see sweepDeadRing), so draining to empty is
// guaranteed to surface every descriptor — none are stranded.
//
// A swallowed completion emits no causal deliver. On the same manager
// the re-submission continues the descriptor's chain as a retry, so its
// total runs from first submit to final deliver; on another manager it
// opens a chain in that manager's log.
func (mx *RingMux) failover(lane int, dead *RingCaller, first shm.Comp) ([]shm.Comp, error) {
	var repl *RingCaller
	if mx.cfg.Reroute != nil {
		r, err := mx.cfg.Reroute(lane)
		if err == nil {
			repl = r
		}
	}
	kind, note := obs.EvSubmit, obs.NoteNone
	if repl != nil && repl.h.g.mgr == dead.h.g.mgr {
		kind, note = obs.EvRetry, obs.NoteReroute
	}
	var deliver []shm.Comp
	handle := func(c shm.Comp) error {
		ent := mx.inflight[c.Trace]
		if ent != nil && c.Status == shm.CompErr && repl != nil && ent.reroutes < maxReroutes {
			if err := repl.submit(repl.vcpu(), ent.d, kind, note); err != nil {
				return err
			}
			ent.reroutes++
			mx.rerouted++
			return nil // swallowed: its completion arrives on the new ring
		}
		delete(mx.inflight, c.Trace)
		dead.emitDeliver(dead.vcpu(), c)
		deliver = append(deliver, c)
		return nil
	}
	if err := handle(first); err != nil {
		return deliver, err
	}
	var one [1]shm.Comp
	for {
		k, err := dead.poll(dead.vcpu(), one[:], false)
		if err != nil {
			return deliver, err
		}
		if k == 0 {
			break
		}
		if err := handle(one[0]); err != nil {
			return deliver, err
		}
	}
	if repl != nil {
		mx.lanes[lane] = repl
	}
	return deliver, nil
}
