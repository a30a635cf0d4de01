// Quickstart: two tenant VMs share one in-memory object through ELISA —
// isolated (neither can touch it from its default context) and exit-less
// (the data path never leaves guest mode).
package main

import (
	"fmt"
	"log"

	elisa "github.com/elisa-go/elisa"
)

const (
	fnPut uint64 = 1 // exchange[0:n] -> object[arg0:arg0+n]
	fnGet uint64 = 2 // object[arg0:arg0+n] -> exchange[0:n]
)

func main() {
	// One simulated machine: hypervisor + ELISA manager VM.
	sys, err := elisa.NewSystem(elisa.Config{})
	if err != nil {
		log.Fatal(err)
	}
	mgr := sys.Manager()

	// The manager owns a shared object and publishes two functions that
	// operate on it (this code runs in sub EPT contexts, reached only
	// through the gate).
	if _, err := mgr.CreateObject("bulletin", 2*elisa.PageSize); err != nil {
		log.Fatal(err)
	}
	must(mgr.RegisterFunc(fnPut, func(c *elisa.CallContext) (uint64, error) {
		return 0, c.CopyExchangeToObject(int(c.Args[0]), 0, int(c.Args[1]))
	}))
	must(mgr.RegisterFunc(fnGet, func(c *elisa.CallContext) (uint64, error) {
		return 0, c.CopyObjectToExchange(0, int(c.Args[0]), int(c.Args[1]))
	}))

	// Two guests attach (the negotiation is the only part that exits).
	alice, err := sys.NewGuestVM("alice", 16*elisa.PageSize)
	if err != nil {
		log.Fatal(err)
	}
	bob, err := sys.NewGuestVM("bob", 16*elisa.PageSize)
	if err != nil {
		log.Fatal(err)
	}
	ha, err := alice.Attach("bulletin")
	if err != nil {
		log.Fatal(err)
	}
	hb, err := bob.Attach("bulletin")
	if err != nil {
		log.Fatal(err)
	}

	// Alice publishes through her exchange buffer + an exit-less call.
	msg := []byte("ELISA: isolated AND exit-less")
	must(ha.Core().ExchangeWrite(alice.VCPU(0), 0, msg))
	exitsBefore := alice.VCPU(0).Stats().Exits
	if _, err := ha.Call(fnPut, 64, uint64(len(msg))); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("alice published %d bytes with %d VM exits (VMFUNCs so far: %d)\n",
		len(msg), alice.VCPU(0).Stats().Exits-exitsBefore, alice.VCPU(0).Stats().VMFuncs)

	// Bob reads them back through his own sub context.
	if _, err := hb.Call(fnGet, 64, uint64(len(msg))); err != nil {
		log.Fatal(err)
	}
	got := make([]byte, len(msg))
	must(hb.Core().ExchangeRead(bob.VCPU(0), 0, got))
	fmt.Printf("bob read: %q\n", got)

	// The calibrated costs (paper Table 2).
	e, v, err := sys.Validate()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("round trips: ELISA %v vs VMCALL %v (%.1fx)\n", e, v, float64(v)/float64(e))
	fmt.Printf("simulated time consumed: alice %v, bob %v\n", alice.Elapsed(), bob.Elapsed())
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
