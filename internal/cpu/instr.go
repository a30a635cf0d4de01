package cpu

import (
	"fmt"

	"github.com/elisa-go/elisa/internal/ept"
	"github.com/elisa-go/elisa/internal/mem"
)

// VMFuncLeafEPTPSwitch is the only VM function leaf defined by the
// architecture today: EPTP switching.
const VMFuncLeafEPTPSwitch = 0

// VMCall executes the VMCALL instruction: an unconditional VM exit into
// the hypervisor carrying a hypercall number and up to four arguments.
// The handler's return value lands in RAX and is returned.
//
// This is the host-interposition primitive the paper measures at 699 ns
// per round trip.
func (v *VCPU) VMCall(nr uint64, args ...uint64) (uint64, error) {
	if v.dead {
		return 0, fmt.Errorf("cpu: vcpu %d is dead", v.id)
	}
	if len(args) > 4 {
		return 0, fmt.Errorf("cpu: VMCall takes at most 4 args, got %d", len(args))
	}
	e := &v.exit
	if v.exitBusy {
		e = new(Exit)
	}
	*e = Exit{Reason: ExitHypercall, Hypercall: nr}
	copy(e.Args[:], args)
	v.stats.Hypercalls++
	scratch := e == &v.exit
	if scratch {
		v.exitBusy = true
	}
	ret, err := v.raiseExit(e)
	if scratch {
		v.exitBusy = false
	}
	if err != nil {
		return 0, err
	}
	v.Regs[RAX] = ret
	return ret, nil
}

// VMFunc executes the VMFUNC instruction. For leaf 0 with a valid index
// into the VM's EPTP list, the active EPTP is replaced *without leaving
// guest mode* — the primitive ELISA's exit-less data path is built on.
//
// Faulting conditions (disabled controls, bad leaf, out-of-range index,
// empty/revoked list entry) cause a VM exit instead, which the hypervisor
// will normally treat as a protocol violation and kill the guest.
func (v *VCPU) VMFunc(leaf, index int) error {
	if v.dead {
		return fmt.Errorf("cpu: vcpu %d is dead", v.id)
	}
	v.stats.VMFuncs++
	v.clock.Advance(v.cost.VMFunc)

	fault := func() error {
		_, err := v.raiseExit(&Exit{Reason: ExitVMFuncFault, FuncIndex: index})
		if err != nil {
			return err
		}
		return fmt.Errorf("cpu: vmfunc(%d, %d) faulted and was resumed", leaf, index)
	}

	if !v.vmcs.VMFuncEnabled || v.vmcs.EPTPListAddr == 0 {
		return fault()
	}
	if leaf != VMFuncLeafEPTPSwitch {
		return fault()
	}
	if index < 0 || index >= ept.ListEntries {
		return fault()
	}
	// The hardware reads the EPTP list entry from physical memory; the
	// microcode access is part of the VMFunc cost charged above.
	raw, err := v.pm.ReadU64(v.vmcs.EPTPListAddr + mem.HPA(index*8))
	if err != nil {
		return fmt.Errorf("cpu: corrupt EPTP list: %w", err)
	}
	p := ept.Pointer(raw)
	if p == ept.NilPointer {
		return fault()
	}
	if v.flushOnSwitch {
		// Untagged-TLB hardware model: the switch invalidates every
		// cached translation (see Config.FlushTLBOnSwitch).
		v.tlb.Flush()
	}
	v.vmcs.EPTP = p
	return nil
}

// InGuestContext runs a guest program fragment located at the given
// guest-virtual address: the fetch is permission-checked in the *current*
// EPT context, then the fragment body runs. The gate and sub contexts use
// this to prove that only their designated code pages are reachable.
func (v *VCPU) InGuestContext(entry mem.GVA, body func(*VCPU) error) error {
	if err := v.FetchExec(entry); err != nil {
		return err
	}
	return body(v)
}
