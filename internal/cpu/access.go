package cpu

import (
	"encoding/binary"
	"fmt"

	"github.com/elisa-go/elisa/internal/ept"
	"github.com/elisa-go/elisa/internal/gpt"
	"github.com/elisa-go/elisa/internal/mem"
)

// maxFaultRetries bounds how often one access may fault-and-resume before
// we declare the exit handler broken. Real hardware loops forever; a test
// bench prefers a diagnosable error.
const maxFaultRetries = 8

// raiseExit performs a VM exit: charges the transition costs, consults the
// hypervisor, and either re-enters or marks the vCPU dead.
func (v *VCPU) raiseExit(e *Exit) (uint64, error) {
	v.clock.Advance(v.cost.VMExit)
	v.stats.Exits++
	action, ret, err := v.handler.HandleExit(v, e)
	if action == ActionKill {
		v.dead = true
		return 0, &Killed{VCPU: v.id, Reason: e.Reason, Cause: firstErr(err, e.Violation)}
	}
	v.clock.Advance(v.cost.VMEntry)
	return ret, err
}

func firstErr(errs ...error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// translate resolves gpa in the active EPT context for the given access,
// consulting the tagged TLB first. EPT violations are raised to the
// hypervisor; if it resumes (e.g. after installing a mapping), the walk is
// retried.
func (v *VCPU) translate(gpa mem.GPA, access ept.Perm) (mem.HPA, error) {
	if v.dead {
		return 0, fmt.Errorf("cpu: vcpu %d is dead", v.id)
	}
	if v.vmcs.EPTP == ept.NilPointer {
		return 0, fmt.Errorf("cpu: vcpu %d has no EPT context", v.id)
	}
	for attempt := 0; attempt <= maxFaultRetries; attempt++ {
		eptp := v.vmcs.EPTP
		if hpa, perm, ok := v.tlb.Lookup(eptp, gpa.Frame()); ok && perm.Can(access) {
			return hpa + mem.HPA(gpa.Offset()), nil
		}
		v.clock.Advance(v.cost.TLBMiss)
		base, perm, pageBytes, err := ept.ResolvePage(v.pm, eptp, gpa)
		if err != nil {
			return 0, fmt.Errorf("cpu: corrupt EPT at %v: %w", eptp, err)
		}
		if perm != 0 && perm.Can(access) {
			if pageBytes == ept.HugePageSize {
				v.tlb.InsertLarge(eptp, gpa.Frame()>>9, base, perm)
			} else {
				v.tlb.Insert(eptp, gpa.Frame(), base, perm)
			}
			return base + mem.HPA(uint64(gpa)%uint64(pageBytes)), nil
		}
		viol := &ept.Violation{Addr: gpa, Access: access, Allowed: perm}
		if _, err := v.raiseExit(&Exit{Reason: ExitEPTViolation, Violation: viol}); err != nil {
			return 0, err
		}
		// Handler resumed: drop any stale entry and retry the walk.
		v.tlb.InvalidatePage(eptp, gpa.Frame())
	}
	return 0, fmt.Errorf("cpu: vcpu %d: access %v loops in EPT violations", v.id, gpa)
}

// forEachPage splits [gpa, gpa+n) into per-page chunks and invokes fn with
// the translated host address of each.
func (v *VCPU) forEachPage(gpa mem.GPA, n int, access ept.Perm, fn func(hpa mem.HPA, off, chunk int) error) error {
	if n < 0 {
		return fmt.Errorf("cpu: negative access length %d", n)
	}
	done := 0
	for done < n {
		g := gpa + mem.GPA(done)
		chunk := mem.PageSize - int(g.Offset())
		if chunk > n-done {
			chunk = n - done
		}
		hpa, err := v.translate(g, access)
		if err != nil {
			return err
		}
		if err := fn(hpa, done, chunk); err != nil {
			return err
		}
		done += chunk
	}
	return nil
}

// ReadGPA copies len(p) bytes from guest-physical memory through the
// active EPT context, charging copy cost.
func (v *VCPU) ReadGPA(gpa mem.GPA, p []byte) error {
	v.clock.Advance(v.cost.CopyCost(len(p)))
	return v.forEachPage(gpa, len(p), ept.PermRead, func(hpa mem.HPA, off, chunk int) error {
		return v.pm.Read(hpa, p[off:off+chunk])
	})
}

// WriteGPA copies p into guest-physical memory through the active EPT
// context, charging copy cost.
func (v *VCPU) WriteGPA(gpa mem.GPA, p []byte) error {
	v.clock.Advance(v.cost.CopyCost(len(p)))
	return v.forEachPage(gpa, len(p), ept.PermWrite, func(hpa mem.HPA, off, chunk int) error {
		return v.pm.Write(hpa, p[off:off+chunk])
	})
}

// ReadU64GPA loads one 64-bit word (descriptor/pointer access cost). A
// word in the last 7 bytes of a page crosses into the next guest page,
// which need not be the next host frame, so both pages are translated
// (see splitWord).
func (v *VCPU) ReadU64GPA(gpa mem.GPA) (uint64, error) {
	v.clock.Advance(v.cost.MemAccess)
	if gpa.Offset() > mem.PageSize-8 {
		lo, hi, n, err := v.splitWord(gpa, ept.PermRead)
		if err != nil {
			return 0, err
		}
		var b [8]byte
		if err := v.pm.Read(lo, b[:n]); err != nil {
			return 0, err
		}
		if err := v.pm.Read(hi, b[n:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(b[:]), nil
	}
	hpa, err := v.translate(gpa, ept.PermRead)
	if err != nil {
		return 0, err
	}
	return v.pm.ReadU64(hpa)
}

// WriteU64GPA stores one 64-bit word; a page-crossing word translates
// both pages before it writes either (see ReadU64GPA).
func (v *VCPU) WriteU64GPA(gpa mem.GPA, val uint64) error {
	v.clock.Advance(v.cost.MemAccess)
	if gpa.Offset() > mem.PageSize-8 {
		lo, hi, n, err := v.splitWord(gpa, ept.PermWrite)
		if err != nil {
			return err
		}
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], val)
		if err := v.pm.Write(lo, b[:n]); err != nil {
			return err
		}
		return v.pm.Write(hi, b[n:])
	}
	hpa, err := v.translate(gpa, ept.PermWrite)
	if err != nil {
		return err
	}
	return v.pm.WriteU64(hpa, val)
}

// splitWord translates both pages of a word at gpa that crosses a page
// boundary, each for access like any other access (an EPT violation on
// either exits). The word's first n bytes are at lo, the rest at hi.
func (v *VCPU) splitWord(gpa mem.GPA, access ept.Perm) (lo, hi mem.HPA, n int, err error) {
	n = mem.PageSize - int(gpa.Offset())
	if lo, err = v.translate(gpa, access); err != nil {
		return 0, 0, 0, err
	}
	if hi, err = v.translate(gpa+mem.GPA(n), access); err != nil {
		return 0, 0, 0, err
	}
	return lo, hi, n, nil
}

// gvaToGPA performs the guest stage of the walk. Guest faults go back to
// the guest (they never exit).
func (v *VCPU) gvaToGPA(gva mem.GVA, access gpt.Perm) (mem.GPA, error) {
	return v.gpt.Translate(gva, access)
}

// ReadGVA reads through both translation stages.
func (v *VCPU) ReadGVA(gva mem.GVA, p []byte) error {
	gpa, err := v.gvaToGPA(gva, gpt.PermRead)
	if err != nil {
		return err
	}
	return v.ReadGPA(gpa, p)
}

// WriteGVA writes through both translation stages.
func (v *VCPU) WriteGVA(gva mem.GVA, p []byte) error {
	gpa, err := v.gvaToGPA(gva, gpt.PermWrite)
	if err != nil {
		return err
	}
	return v.WriteGPA(gpa, p)
}

// FetchExec models an instruction fetch at gva: both the guest page table
// and the active EPT context must grant execute. This is the check that
// makes the gate context a real control-flow boundary — in the gate
// context only the gate page is executable, so a guest that lands anywhere
// else takes an EPT violation.
func (v *VCPU) FetchExec(gva mem.GVA) error {
	gpa, err := v.gvaToGPA(gva, gpt.PermExec)
	if err != nil {
		return err
	}
	v.clock.Advance(v.cost.Instruction)
	_, err = v.translate(gpa, ept.PermExec)
	return err
}

// CopyGPAtoGPA moves n bytes between two guest-physical ranges in the
// active context (a single charged copy, two translations per page).
func (v *VCPU) CopyGPAtoGPA(dst, src mem.GPA, n int) error {
	buf := make([]byte, n)
	if err := v.forEachPage(src, n, ept.PermRead, func(hpa mem.HPA, off, chunk int) error {
		return v.pm.Read(hpa, buf[off:off+chunk])
	}); err != nil {
		return err
	}
	v.clock.Advance(v.cost.CopyCost(n))
	return v.forEachPage(dst, n, ept.PermWrite, func(hpa mem.HPA, off, chunk int) error {
		return v.pm.Write(hpa, buf[off:off+chunk])
	})
}
