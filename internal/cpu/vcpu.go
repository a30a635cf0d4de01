// Package cpu models the virtual CPU of the simulated machine: a register
// file, the virtualization-relevant slice of a VMCS, EPT-translated memory
// accessors with a tagged TLB, and the two instructions the whole paper
// revolves around — VMCALL (a full VM exit into the hypervisor) and VMFUNC
// leaf 0 (an exit-less EPTP switch).
//
// Guest "programs" are Go closures that act on a *VCPU. Every memory access
// they make goes through the active EPT context and charges simulated time,
// so both the isolation property (a missing mapping faults) and the
// performance property (exits cost 3.5x an EPTP switch round trip) are
// enforced by construction rather than asserted.
package cpu

import (
	"fmt"

	"github.com/elisa-go/elisa/internal/ept"
	"github.com/elisa-go/elisa/internal/gpt"
	"github.com/elisa-go/elisa/internal/mem"
	"github.com/elisa-go/elisa/internal/simtime"
)

// Register names for the small architectural file the simulation carries.
// Hypercall and ELISA-call arguments travel in RDI..R9, results in RAX,
// mirroring the SysV convention the real ELISA library uses.
const (
	RAX = iota
	RBX
	RCX
	RDX
	RSI
	RDI
	RBP
	RSP
	R8
	R9
	R10
	R11
	R12
	R13
	R14
	R15
	NumRegs
)

// ExitReason says why a vCPU left guest mode.
type ExitReason int

// Exit reasons (a subset of the architectural set, enough for ELISA).
const (
	ExitHypercall    ExitReason = iota // VMCALL
	ExitEPTViolation                   // access not permitted by active EPT
	ExitVMFuncFault                    // VMFUNC with invalid leaf/index/entry
	ExitShutdown                       // triple-fault equivalent; guest is dead
)

// String names the exit reason for traces and error messages.
func (r ExitReason) String() string {
	switch r {
	case ExitHypercall:
		return "hypercall"
	case ExitEPTViolation:
		return "ept-violation"
	case ExitVMFuncFault:
		return "vmfunc-fault"
	case ExitShutdown:
		return "shutdown"
	default:
		return fmt.Sprintf("exit(%d)", int(r))
	}
}

// Exit describes one VM exit for the hypervisor's handler.
type Exit struct {
	Reason    ExitReason
	Hypercall uint64         // hypercall number (ExitHypercall)
	Args      [4]uint64      // hypercall arguments
	Violation *ept.Violation // faulting access (ExitEPTViolation)
	FuncIndex int            // requested EPTP index (ExitVMFuncFault)
}

// Action is the hypervisor's verdict on an exit.
type Action int

// Exit dispositions.
const (
	// ActionResume re-enters the guest; for hypercalls the handler's
	// value is placed in RAX.
	ActionResume Action = iota
	// ActionKill terminates the guest; the faulting operation returns
	// a *Killed error.
	ActionKill
)

// ExitHandler is implemented by the hypervisor (package hv).
type ExitHandler interface {
	HandleExit(v *VCPU, e *Exit) (Action, uint64, error)
}

// Killed is returned from a guest operation when the hypervisor decided to
// terminate the VM in response to an exit.
type Killed struct {
	VCPU   int
	Reason ExitReason
	Cause  error
}

// Error describes which vCPU died and why.
func (k *Killed) Error() string {
	return fmt.Sprintf("vcpu %d killed on %v: %v", k.VCPU, k.Reason, k.Cause)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (k *Killed) Unwrap() error { return k.Cause }

// VMCS is the slice of the virtual-machine control structure the model
// needs: the active EPTP, the VMFUNC controls, and the EPTP list address.
type VMCS struct {
	EPTP          ept.Pointer
	VMFuncEnabled bool    // "enable VM functions" + EPTP-switching controls
	EPTPListAddr  mem.HPA // physical address of the EPTP list page (0 = none)
}

// Stats counts the events experiments care about.
type Stats struct {
	Exits      uint64
	Hypercalls uint64
	VMFuncs    uint64
	TLBHits    uint64
	TLBMisses  uint64
}

// VCPU is one virtual CPU. It is single-threaded by construction: a guest
// program runs on it to completion or until killed.
type VCPU struct {
	id    int
	pm    *mem.PhysMem
	clock *simtime.Clock
	cost  simtime.CostModel

	vmcs VMCS
	gpt  *gpt.Table
	tlb  *ept.TLB

	// Regs is the architectural register file; guest code and the gate
	// trampoline use it for argument passing.
	Regs [NumRegs]uint64

	handler       ExitHandler
	dead          bool
	flushOnSwitch bool
	stats         Stats

	// exit is the reusable record of this vCPU's VMCALL exits. The vCPU
	// is single-threaded, so steady state never allocates one; exitBusy
	// guards the rare reentrant case (a hypercall handler issuing a
	// VMCALL on the same vCPU), which falls back to a heap record.
	exit     Exit
	exitBusy bool
}

// Config assembles a vCPU.
type Config struct {
	ID      int
	Phys    *mem.PhysMem
	Cost    *simtime.CostModel // nil uses simtime.Default
	Handler ExitHandler        // required

	// FlushTLBOnSwitch models hardware without tagged (EP4TA) TLBs: every
	// EPTP switch flushes cached translations. Used by the TLB ablation;
	// real ELISA-capable CPUs tag entries and keep them.
	FlushTLBOnSwitch bool
}

// New creates a vCPU with its own fresh clock, empty guest page table and
// default TLB. The initial VMCS has no EPTP; the hypervisor must call
// SetVMCS before the guest touches memory.
func New(cfg Config) (*VCPU, error) {
	if cfg.Phys == nil {
		return nil, fmt.Errorf("cpu: Config.Phys is required")
	}
	if cfg.Handler == nil {
		return nil, fmt.Errorf("cpu: Config.Handler is required")
	}
	v := &VCPU{
		id:            cfg.ID,
		pm:            cfg.Phys,
		clock:         simtime.NewClock(),
		gpt:           gpt.New(),
		tlb:           ept.NewTLB(0),
		handler:       cfg.Handler,
		flushOnSwitch: cfg.FlushTLBOnSwitch,
	}
	if cfg.Cost != nil {
		v.cost = *cfg.Cost
	} else {
		v.cost = simtime.Default()
	}
	return v, nil
}

// ID returns the vCPU id.
func (v *VCPU) ID() int { return v.id }

// Clock returns the vCPU's simulated clock.
func (v *VCPU) Clock() *simtime.Clock { return v.clock }

// Cost returns the cost model the vCPU charges against. It is the
// vCPU's own model, returned in place so a hot path reads one field
// without copying the whole struct; callers must not modify it.
func (v *VCPU) Cost() *simtime.CostModel { return &v.cost }

// GPT returns the guest page table (guest-managed state).
func (v *VCPU) GPT() *gpt.Table { return v.gpt }

// TLB exposes the translation cache (for invalidation by the hypervisor).
func (v *VCPU) TLB() *ept.TLB { return v.tlb }

// Phys returns the physical memory (for the hypervisor/host side only;
// guest code must use the translated accessors).
func (v *VCPU) Phys() *mem.PhysMem { return v.pm }

// VMCS returns a copy of the current control structure.
func (v *VCPU) VMCS() VMCS { return v.vmcs }

// SetVMCS installs control state; hypervisor-only.
func (v *VCPU) SetVMCS(s VMCS) { v.vmcs = s }

// SetEPTP switches the active EPT context; hypervisor-only (guests switch
// via VMFunc).
func (v *VCPU) SetEPTP(p ept.Pointer) { v.vmcs.EPTP = p }

// EPTP returns the active EPT pointer.
func (v *VCPU) EPTP() ept.Pointer { return v.vmcs.EPTP }

// Dead reports whether the hypervisor has killed this vCPU.
func (v *VCPU) Dead() bool { return v.dead }

// Kill marks the vCPU dead without raising an exit: the hypervisor uses
// it to model a guest crash (panic, triple fault, fault injection) as
// opposed to a protocol kill adjudicated through HandleExit. Every
// subsequent guest operation fails with a "vcpu is dead" error.
func (v *VCPU) Kill() { v.dead = true }

// Stats returns event counts; TLB numbers are refreshed from the cache.
func (v *VCPU) Stats() Stats {
	s := v.stats
	s.TLBHits, s.TLBMisses = v.tlb.Stats()
	return s
}

// Charge advances the clock by d; guest helpers use it for compute costs.
func (v *VCPU) Charge(d simtime.Duration) { v.clock.Advance(d) }

// ChargeInstr charges n generic instructions.
func (v *VCPU) ChargeInstr(n int) {
	v.clock.Advance(simtime.Duration(n) * v.cost.Instruction)
}
