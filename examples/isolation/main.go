// Isolation demo: the attacks of Table 1, executed. Direct mapping lets a
// compromised guest scribble over shared state; under ELISA every one of
// the same moves is an EPT violation and the hypervisor kills the guest.
package main

import (
	"fmt"
	"log"

	elisa "github.com/elisa-go/elisa"
)

func main() {
	sys, err := elisa.NewSystem(elisa.Config{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("== scheme 1: direct mapping (ivshmem-like) ==")
	directMappingAttack(sys)

	fmt.Println()
	fmt.Println("== scheme 2: ELISA ==")
	elisaAttacks(sys)
}

// directMappingAttack shows why Table 1 says "no isolation": once a
// region is direct-mapped, a compromised guest can deface it at will.
func directMappingAttack(sys *elisa.System) {
	h := sys.Hypervisor()
	victim, err := h.CreateVM("victim", 16*elisa.PageSize)
	if err != nil {
		log.Fatal(err)
	}
	attacker, err := h.CreateVM("attacker", 16*elisa.PageSize)
	if err != nil {
		log.Fatal(err)
	}
	region, gpas, err := h.ShareDirect(elisa.PageSize, elisa.PermRW, victim, attacker)
	if err != nil {
		log.Fatal(err)
	}
	must(victim.Run(func(v *elisa.VCPU) error {
		return v.WriteGPA(gpas[0], []byte("victim's critical data"))
	}))
	// The attacker needs no permission from anyone: the mapping IS the
	// permission, forever.
	must(attacker.Run(func(v *elisa.VCPU) error {
		return v.WriteGPA(gpas[1], []byte("DEFACED BY ATTACKER!!!"))
	}))
	buf := make([]byte, 22)
	must(victim.Run(func(v *elisa.VCPU) error { return v.ReadGPA(gpas[0], buf) }))
	fmt.Printf("victim now reads: %q (attacker alive: %v)\n", buf, !attacker.Dead())
	_ = region
}

// elisaAttacks runs the same hostile moves against ELISA: every one dies
// on an EPT violation or VMFUNC fault.
func elisaAttacks(sys *elisa.System) {
	mgr := sys.Manager()
	obj, err := mgr.CreateObject("protected", elisa.PageSize)
	if err != nil {
		log.Fatal(err)
	}
	must(mgr.RegisterFunc(1, func(c *elisa.CallContext) (uint64, error) {
		return 0, c.CopyExchangeToObject(0, 0, int(c.Args[0]))
	}))

	// Attack 1: read the object from the default context.
	a1, _ := sys.NewGuestVM("attacker-1", 16*elisa.PageSize)
	if _, err := a1.Attach("protected"); err != nil {
		log.Fatal(err)
	}
	err = a1.VCPU(0).ReadGPA(obj.GPA(), make([]byte, 8))
	fmt.Printf("attack 1 (read object from default context): %v\n  -> guest killed: %v\n", err, a1.Dead())

	// Attack 2: VMFUNC to a slot the manager never granted.
	a2, _ := sys.NewGuestVM("attacker-2", 16*elisa.PageSize)
	if _, err := a2.Attach("protected"); err != nil {
		log.Fatal(err)
	}
	err = a2.VCPU(0).VMFunc(0, 200)
	fmt.Printf("attack 2 (VMFUNC to ungranted slot): %v\n  -> guest killed: %v\n", err, a2.Dead())

	// Attack 3: a read-only tenant tries to write through the published
	// function — the sub context's EPT, not software, says no.
	a3, _ := sys.NewGuestVM("attacker-3", 16*elisa.PageSize)
	vm3, _ := a3.VM(0)
	must(mgr.Grant("protected", vm3, elisa.PermRead))
	h3, err := a3.Attach("protected")
	if err != nil {
		log.Fatal(err)
	}
	must(h3.Core().ExchangeWrite(a3.VCPU(0), 0, []byte("overwrite attempt")))
	_, err = h3.Call(1, 17)
	fmt.Printf("attack 3 (write through a read-only grant): %v\n  -> guest killed: %v\n", err, a3.Dead())

	// Attack 4: revoked tenant forces the switch anyway.
	a4, _ := sys.NewGuestVM("attacker-4", 16*elisa.PageSize)
	h4, err := a4.Attach("protected")
	if err != nil {
		log.Fatal(err)
	}
	vm4, _ := a4.VM(0)
	must(mgr.Revoke(vm4, "protected"))
	err = a4.VCPU(0).VMFunc(0, h4.Core().SubIndex())
	fmt.Printf("attack 4 (VMFUNC to revoked slot): %v\n  -> guest killed: %v\n", err, a4.Dead())

	// Meanwhile a well-behaved tenant is unaffected.
	good, _ := sys.NewGuestVM("good-tenant", 16*elisa.PageSize)
	hg, err := good.Attach("protected")
	if err != nil {
		log.Fatal(err)
	}
	must(hg.Core().ExchangeWrite(good.VCPU(0), 0, []byte("legitimate update")))
	if _, err := hg.Call(1, 17); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("good tenant still works: alive=%v, exits on data path=0, VMFUNCs=%d\n",
		!good.Dead(), good.VCPU(0).Stats().VMFuncs)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
