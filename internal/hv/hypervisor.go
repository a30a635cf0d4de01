// Package hv implements the host of the simulated machine: a KVM-like
// hypervisor that owns physical memory, creates guest VMs with default EPT
// contexts, dispatches hypercalls, adjudicates EPT violations and VMFUNC
// faults, and implements the sharing schemes the paper compares:
//
//   - direct-mapping (ivshmem-like): the same frames mapped into several
//     guests' default contexts — fast, no isolation;
//   - host-interposition: shared objects live in host-private memory and
//     guests reach them only via VMCALL hypercalls — isolated, one VM exit
//     round trip (699 ns) per access;
//   - ELISA enablement: VMFUNC controls and EPTP lists that package core
//     builds gate/sub contexts on — isolated and exit-less.
package hv

import (
	"fmt"
	"sync"

	"github.com/elisa-go/elisa/internal/cpu"
	"github.com/elisa-go/elisa/internal/mem"
	"github.com/elisa-go/elisa/internal/simtime"
	"github.com/elisa-go/elisa/internal/trace"
)

// HypercallHandler services one hypercall number. It runs in host context
// on the calling VM's (simulated) core: charge host-side work to
// vm.VCPU().Charge. A returned error is delivered to the guest as a failed
// hypercall; it does not kill the VM.
type HypercallHandler func(vm *VM, args [4]uint64) (uint64, error)

// Hypervisor is the host. All methods are for host-side code (experiment
// harnesses, device models, the ELISA manager runtime); guest programs only
// ever see a *cpu.VCPU.
type Hypervisor struct {
	pm   *mem.PhysMem
	cost simtime.CostModel

	vms    map[int]*VM
	byVCPU map[int]*VM
	nextID int

	hypercalls map[uint64]HypercallHandler

	flushOnSwitch bool
	trace         *trace.Buffer // nil = tracing off

	// stats. deathMu serialises the death counters: guests running on
	// separate goroutines can be killed concurrently (each by its own
	// exit), and the counters are the only host state those paths share.
	deathMu sync.Mutex
	killed  int
	crashed int
}

// Config configures a Hypervisor.
type Config struct {
	// PhysBytes is the size of simulated host physical memory.
	PhysBytes int
	// Cost overrides the calibrated cost model (nil = simtime.Default).
	Cost *simtime.CostModel
	// FlushTLBOnSwitch models untagged-TLB hardware (see cpu.Config).
	FlushTLBOnSwitch bool
	// TraceEvents, when positive, retains the last N machine events
	// (exits, kills, lifecycle) in a ring readable via Trace().
	TraceEvents int
}

// New boots a hypervisor with the given physical memory size.
func New(cfg Config) (*Hypervisor, error) {
	pm, err := mem.NewPhysMem(cfg.PhysBytes)
	if err != nil {
		return nil, err
	}
	h := &Hypervisor{
		pm:            pm,
		vms:           make(map[int]*VM),
		byVCPU:        make(map[int]*VM),
		hypercalls:    make(map[uint64]HypercallHandler),
		flushOnSwitch: cfg.FlushTLBOnSwitch,
	}
	if cfg.Cost != nil {
		h.cost = *cfg.Cost
	} else {
		h.cost = simtime.Default()
	}
	if cfg.TraceEvents > 0 {
		h.trace = trace.NewBuffer(cfg.TraceEvents)
	}
	return h, nil
}

// Trace returns the machine's event buffer (nil when tracing is off; a
// nil buffer accepts and discards emissions).
func (h *Hypervisor) Trace() *trace.Buffer { return h.trace }

// Phys exposes host physical memory (host-side code only).
func (h *Hypervisor) Phys() *mem.PhysMem { return h.pm }

// Cost returns the machine's cost model.
func (h *Hypervisor) Cost() simtime.CostModel { return h.cost }

// RegisterHypercall installs a handler for hypercall number nr,
// returning an error if the number is taken.
func (h *Hypervisor) RegisterHypercall(nr uint64, fn HypercallHandler) error {
	if fn == nil {
		return fmt.Errorf("hv: nil handler for hypercall %d", nr)
	}
	if _, dup := h.hypercalls[nr]; dup {
		return fmt.Errorf("hv: hypercall %d already registered", nr)
	}
	h.hypercalls[nr] = fn
	return nil
}

// VMs returns the live VMs in creation order.
func (h *Hypervisor) VMs() []*VM {
	out := make([]*VM, 0, len(h.vms))
	for id := 0; id < h.nextID; id++ {
		if vm, ok := h.vms[id]; ok {
			out = append(out, vm)
		}
	}
	return out
}

// KilledVMs reports how many VMs the hypervisor has terminated for
// protocol violations.
func (h *Hypervisor) KilledVMs() int {
	h.deathMu.Lock()
	defer h.deathMu.Unlock()
	return h.killed
}

// CrashedVMs reports how many VMs died by crash (CrashVM) rather than by
// a protocol kill. Fault injection uses crashes; the chaos invariant
// "no kill" is about KilledVMs staying zero while CrashedVMs grows.
func (h *Hypervisor) CrashedVMs() int {
	h.deathMu.Lock()
	defer h.deathMu.Unlock()
	return h.crashed
}

// CrashVM models a guest dying of its own accord — kernel panic, triple
// fault, or an injected fault — wherever it happens to be executing,
// including inside a gate or sub EPT context. The VM and its vCPU are
// marked dead (every later guest operation fails cleanly); nothing is
// reclaimed here. The ELISA manager notices the death via its gate-path
// epochs and quarantines the guest's attachments (core.RecoverGuest).
func (h *Hypervisor) CrashVM(vm *VM, why string) {
	if vm == nil || vm.dead {
		return
	}
	vm.dead = true
	vm.vcpu.Kill()
	h.deathMu.Lock()
	h.crashed++
	h.deathMu.Unlock()
	h.trace.Emit(vm.vcpu.Clock().Now(), vm.name, trace.KindCrash, "%s", why)
}

// MachineStats is an aggregate host snapshot for the metrics layer.
type MachineStats struct {
	// VMs is the number of live VMs (manager included).
	VMs int
	// Killed counts VMs terminated for protocol violations.
	Killed int
	// Crashed counts VMs that died by crash (organic or injected), as
	// opposed to protocol kills.
	Crashed int
	// TraceEmitted is the total number of slow-path events ever emitted
	// (0 when tracing is off).
	TraceEmitted uint64
	// ResidentBytes is the host memory backing simulated physical memory
	// (mem.PhysMem.ResidentBytes): the simulator's own spend, not a
	// simulated figure.
	ResidentBytes int
}

// MachineStats returns the aggregate host snapshot.
func (h *Hypervisor) MachineStats() MachineStats {
	h.deathMu.Lock()
	killed, crashed := h.killed, h.crashed
	h.deathMu.Unlock()
	return MachineStats{
		VMs:           len(h.vms),
		Killed:        killed,
		Crashed:       crashed,
		TraceEmitted:  h.trace.Emitted(),
		ResidentBytes: h.pm.ResidentBytes(),
	}
}

// HandleExit implements cpu.ExitHandler: the single funnel every VM exit
// goes through.
func (h *Hypervisor) HandleExit(v *cpu.VCPU, e *cpu.Exit) (cpu.Action, uint64, error) {
	vm := h.byVCPU[v.ID()]
	if vm == nil {
		return cpu.ActionKill, 0, fmt.Errorf("hv: exit from unknown vcpu %d", v.ID())
	}
	now := v.Clock().Now()
	switch e.Reason {
	case cpu.ExitHypercall:
		fn, ok := h.hypercalls[e.Hypercall]
		if !ok {
			// An undefined hypercall is a guest bug/attack; kill.
			h.trace.Emit(now, vm.name, trace.KindKill, "unknown hypercall %#x", e.Hypercall)
			h.kill(vm)
			return cpu.ActionKill, 0, fmt.Errorf("hv: vm %q: unknown hypercall %d", vm.name, e.Hypercall)
		}
		// The per-op path: box no Emit arguments when tracing is off.
		if h.trace != nil {
			h.trace.Emit(now, vm.name, trace.KindHypercall, "nr=%#x args=%x", e.Hypercall, e.Args)
		}
		v.Charge(h.cost.HypercallDispatch)
		ret, err := fn(vm, e.Args)
		return cpu.ActionResume, ret, err

	case cpu.ExitEPTViolation:
		// The isolation backstop: an access the active context does not
		// permit terminates the guest. This is the fate of every attack
		// in the examples/isolation demos.
		h.trace.Emit(now, vm.name, trace.KindViolation, "%v", e.Violation)
		h.trace.Emit(now, vm.name, trace.KindKill, "ept violation at %v", e.Violation.Addr)
		h.kill(vm)
		return cpu.ActionKill, 0, fmt.Errorf("hv: vm %q: %w", vm.name, e.Violation)

	case cpu.ExitVMFuncFault:
		h.trace.Emit(now, vm.name, trace.KindVMFault, "EPTP index %d", e.FuncIndex)
		h.trace.Emit(now, vm.name, trace.KindKill, "invalid VMFUNC to slot %d", e.FuncIndex)
		h.kill(vm)
		return cpu.ActionKill, 0, fmt.Errorf("hv: vm %q: invalid VMFUNC (EPTP index %d)", vm.name, e.FuncIndex)

	default:
		h.kill(vm)
		return cpu.ActionKill, 0, fmt.Errorf("hv: vm %q: unhandled exit %v", vm.name, e.Reason)
	}
}

func (h *Hypervisor) kill(vm *VM) {
	if !vm.dead {
		vm.dead = true
		h.deathMu.Lock()
		h.killed++
		h.deathMu.Unlock()
	}
}
