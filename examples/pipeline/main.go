// Pipeline: a producer VM streams records to a consumer VM through a
// ring buffer that lives *inside* a shared object — neither tenant can
// touch the ring except through the manager's push/pop functions, and the
// whole stream flows without a single VM exit. Batched calls (CallMulti)
// amortise the gate crossing across records.
package main

import (
	"fmt"
	"log"

	elisa "github.com/elisa-go/elisa"
	"github.com/elisa-go/elisa/internal/shm"
)

const (
	fnPush uint64 = 1 // exchange[i*stride : +reclen] -> ring, args: count, reclen
	fnPop  uint64 = 2 // ring -> exchange, args: max, reclen; returns count
)

const (
	recLen   = 120
	records  = 4096
	batch    = 16
	ringSize = 64
)

func main() {
	sys, err := elisa.NewSystem(elisa.Config{TraceEvents: 256})
	if err != nil {
		log.Fatal(err)
	}
	mgr := sys.Manager()

	// The shared object holds the ring; format it host-side once.
	obj, err := mgr.CreateObject("stream", shm.RingBytes(ringSize, recLen))
	if err != nil {
		log.Fatal(err)
	}
	hostWin, err := shm.NewHostWindow(obj.Region(), nil)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := shm.InitRing(hostWin, ringSize, recLen); err != nil {
		log.Fatal(err)
	}

	// Manager functions: the only code that touches the ring. Each call
	// opens the ring through the *caller's* sub context, so costs land on
	// the caller and permissions are the caller's grant.
	rings := map[int]*shm.Ring{}
	ringFor := func(c *elisa.CallContext) (*shm.Ring, error) {
		if r, ok := rings[c.GuestID]; ok {
			return r, nil
		}
		w, err := shm.NewGPAWindow(c.VCPU, c.Object, c.ObjectSize)
		if err != nil {
			return nil, err
		}
		r, err := shm.OpenRing(w)
		if err == nil {
			rings[c.GuestID] = r
		}
		return r, err
	}
	must(mgr.RegisterFunc(fnPush, func(c *elisa.CallContext) (uint64, error) {
		ring, err := ringFor(c)
		if err != nil {
			return 0, err
		}
		count, n := int(c.Args[0]), int(c.Args[1])
		buf := make([]byte, n)
		pushed := 0
		for pushed < count {
			if err := c.ReadExchange(pushed*n, buf); err != nil {
				return 0, err
			}
			ok, err := ring.Push(buf)
			if err != nil || !ok {
				return uint64(pushed), err
			}
			pushed++
		}
		return uint64(pushed), nil
	}))
	must(mgr.RegisterFunc(fnPop, func(c *elisa.CallContext) (uint64, error) {
		ring, err := ringFor(c)
		if err != nil {
			return 0, err
		}
		max, n := int(c.Args[0]), int(c.Args[1])
		buf := make([]byte, n)
		popped := 0
		for popped < max {
			ln, ok, err := ring.Pop(buf)
			if err != nil {
				return uint64(popped), err
			}
			if !ok {
				break
			}
			if err := c.WriteExchange(popped*n, buf[:ln]); err != nil {
				return 0, err
			}
			popped++
		}
		return uint64(popped), nil
	}))

	producer, err := sys.NewGuestVM("producer", 16*elisa.PageSize)
	if err != nil {
		log.Fatal(err)
	}
	consumer, err := sys.NewGuestVM("consumer", 16*elisa.PageSize)
	if err != nil {
		log.Fatal(err)
	}
	hp, err := producer.Attach("stream")
	if err != nil {
		log.Fatal(err)
	}
	hc, err := consumer.Attach("stream")
	if err != nil {
		log.Fatal(err)
	}

	// Stream: the producer fills batches and pushes; the consumer pops
	// and verifies. Alternating keeps the ring from overflowing.
	rec := make([]byte, recLen)
	sent, got := 0, 0
	for got < records {
		// Produce a batch.
		n := min(batch, records-sent)
		for i := 0; i < n; i++ {
			fill(rec, sent+i)
			must(hp.Core().ExchangeWrite(producer.VCPU(0), i*recLen, rec))
		}
		if n > 0 {
			pushed, err := hp.Call(fnPush, uint64(n), recLen)
			must(err)
			sent += int(pushed)
		}
		// Consume (not before the producer's simulated time: the ring
		// contents only exist once produced).
		consumer.VCPU(0).Clock().AdvanceTo(producer.VCPU(0).Clock().Now())
		popped, err := hc.Call(fnPop, batch, recLen)
		must(err)
		for i := 0; i < int(popped); i++ {
			must(hc.Core().ExchangeRead(consumer.VCPU(0), i*recLen, rec))
			if !check(rec, got+i) {
				log.Fatalf("record %d corrupted in transit", got+i)
			}
		}
		got += int(popped)
	}

	rate := float64(records) / consumer.Elapsed().Seconds() / 1e6
	fmt.Printf("streamed %d records of %dB producer->consumer: %.2f Mrec/s (simulated)\n", records, recLen, rate)
	fmt.Printf("producer exits: %d (attach only), VMFUNCs: %d\n",
		producer.VCPU(0).Stats().Exits, producer.VCPU(0).Stats().VMFuncs)
	fmt.Printf("consumer exits: %d (attach only), VMFUNCs: %d\n",
		consumer.VCPU(0).Stats().Exits, consumer.VCPU(0).Stats().VMFuncs)
	fmt.Printf("\nlast machine events:\n")
	evs := sys.Trace().Events()
	for _, e := range evs[max(0, len(evs)-6):] {
		fmt.Println(" ", e)
	}
}

func fill(p []byte, k int) {
	for i := range p {
		p[i] = byte(k*37 + i)
	}
}

func check(p []byte, k int) bool {
	for i := range p {
		if p[i] != byte(k*37+i) {
			return false
		}
	}
	return true
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
