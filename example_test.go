package elisa_test

import (
	"fmt"
	"log"

	elisa "github.com/elisa-go/elisa"
)

// Example shows the core loop: create a system, publish an object and a
// function, attach a guest, and call exit-lessly.
func Example() {
	sys, err := elisa.NewSystem(elisa.Config{})
	if err != nil {
		log.Fatal(err)
	}
	mgr := sys.Manager()
	if _, err := mgr.CreateObject("counter", elisa.PageSize); err != nil {
		log.Fatal(err)
	}
	if err := mgr.RegisterFunc(1, func(c *elisa.CallContext) (uint64, error) {
		v, err := c.ObjectU64(0)
		if err != nil {
			return 0, err
		}
		return v + 1, c.SetObjectU64(0, v+1)
	}); err != nil {
		log.Fatal(err)
	}

	vm, err := sys.NewGuestVM("tenant", 16*elisa.PageSize)
	if err != nil {
		log.Fatal(err)
	}
	h, err := vm.Attach("counter")
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := h.Call(1); err != nil {
			log.Fatal(err)
		}
	}
	final, _ := h.Call(1)
	fmt.Printf("counter = %d, exits on data path = %d\n", final, vm.VCPU(0).Stats().Exits-1)
	// Output: counter = 4, exits on data path = 0
}

// ExampleHandle_CallMulti batches operations under one gate crossing.
func ExampleHandle_CallMulti() {
	sys, _ := elisa.NewSystem(elisa.Config{})
	mgr := sys.Manager()
	_, _ = mgr.CreateObject("acc", elisa.PageSize)
	_ = mgr.RegisterFunc(7, func(c *elisa.CallContext) (uint64, error) {
		v, _ := c.ObjectU64(0)
		v += c.Args[0]
		return v, c.SetObjectU64(0, v)
	})
	vm, _ := sys.NewGuestVM("t", 16*elisa.PageSize)
	h, _ := vm.Attach("acc")

	reqs := make([]elisa.Req, 5)
	for i := range reqs {
		reqs[i] = elisa.Req{Fn: 7, Args: [4]uint64{uint64(i + 1)}}
	}
	if err := h.Core().CallMulti(vm.VCPU(0), reqs); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sum = %d, VMFUNCs = %d (one crossing)\n", reqs[4].Ret, vm.VCPU(0).Stats().VMFuncs)
	// Output: sum = 15, VMFUNCs = 4 (one crossing)
}

// ExampleSystem_Validate checks the paper's Table 2 calibration.
func ExampleSystem_Validate() {
	sys, _ := elisa.NewSystem(elisa.Config{})
	e, v, err := sys.Validate()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ELISA %v vs VMCALL %v\n", e, v)
	// Output: ELISA 196ns vs VMCALL 699ns
}
