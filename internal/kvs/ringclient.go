package kvs

import (
	"fmt"

	"github.com/elisa-go/elisa/internal/core"
	"github.com/elisa-go/elisa/internal/shm"
)

// fnGetAt is the ring-datapath GET: args = (key length, exchange slot
// offset). The key is staged at the offset, the value lands at
// offset+256 (the same key/value split as the per-call layout, just
// relocatable so several lookups can be in flight at once).
func (s *ELISAService) fnGetAt(ctx *core.CallContext) (uint64, error) {
	keyLen, off := int(ctx.Args[0]), int(ctx.Args[1])
	if keyLen <= 0 || keyLen > s.layout.KeySize {
		return 0, fmt.Errorf("kvs: elisa key length %d invalid", keyLen)
	}
	if off < 0 || off+stagingKeyCap+s.layout.ValSize > ctx.ExchangeSize {
		return 0, fmt.Errorf("kvs: elisa staging offset %d out of range", off)
	}
	st, err := s.storeFor(ctx)
	if err != nil {
		return 0, err
	}
	key, val := st.reqKey[:keyLen], st.reqVal
	if err := ctx.ReadExchange(off, key); err != nil {
		return 0, err
	}
	found, err := st.Get(key, val)
	if err != nil {
		return 0, err
	}
	if !found {
		return 0, nil
	}
	if err := ctx.WriteExchange(off+stagingKeyCap, val); err != nil {
		return 0, err
	}
	return 1, nil
}

// ELISARingClient issues GETs through the attachment's call ring instead
// of one gate crossing per operation: lookups are enqueued as descriptors
// from the guest's default context and serviced in batches, either by the
// guest's own adaptive flush or by a manager-side poller. Mutations keep
// the per-call path (Put/Delete on an ELISAClient) — the ring carries the
// read-mostly fast path, as a memcached-style workload wants.
type ELISARingClient struct {
	g      *core.Guest
	handle *core.Handle
	rc     *core.RingCaller
	svc    *ELISAService
	stride int // exchange bytes per in-flight lookup (key cap + value)
	window int // max concurrent in-flight lookups
	comps  []shm.Comp
}

// NewRingClient attaches the guest to the service's object and negotiates
// a call ring on the attachment.
func (s *ELISAService) NewRingClient(g *core.Guest, cfg core.RingConfig) (*ELISARingClient, error) {
	h, err := g.Attach(s.obj.Name())
	if err != nil {
		return nil, err
	}
	stride := stagingKeyCap + s.layout.ValSize
	if h.ExchangeSize() < stride {
		return nil, fmt.Errorf("kvs: exchange buffer %d too small for value size %d", h.ExchangeSize(), s.layout.ValSize)
	}
	rc, err := h.Ring(g.VM().VCPU(), cfg)
	if err != nil {
		return nil, err
	}
	window := h.ExchangeSize() / stride
	if window > rc.Depth() {
		window = rc.Depth()
	}
	c := &ELISARingClient{g: g, handle: h, rc: rc, svc: s, stride: stride, window: window}
	c.comps = make([]shm.Comp, window)
	return c, nil
}

// Ring exposes the underlying ring caller (for harnesses that flush or
// inspect it directly).
func (c *ELISARingClient) Ring() *core.RingCaller { return c.rc }

// Scheme names the sharing scheme.
func (c *ELISARingClient) Scheme() string { return "elisa-ring" }

// harvest polls until n completions have arrived, flushing through the
// gate whenever nothing has been drained yet.
func (c *ELISARingClient) harvest(out []shm.Comp) error {
	v := c.g.VM().VCPU()
	got := 0
	for got < len(out) {
		n, err := c.rc.Poll(v, out[got:])
		if err != nil {
			return err
		}
		if n == 0 {
			if err := c.rc.Flush(v); err != nil {
				return err
			}
			continue
		}
		got += n
	}
	return nil
}

// Get looks up one key through the ring. With a zero batching deadline
// this costs the same as ELISAClient.Get (one crossing per op); its point
// is GetMulti.
func (c *ELISARingClient) Get(key, val []byte) (bool, error) {
	found, err := c.GetMulti([][]byte{key}, [][]byte{val})
	if err != nil {
		return false, err
	}
	return found[0], nil
}

// GetMulti looks up a batch of keys, filling vals[i] for each found
// key and reporting found[i]. Lookups are pipelined through the ring in
// windows bounded by the exchange staging capacity and ring depth, so at
// depth N the gate crossing is amortised over up to N lookups.
func (c *ELISARingClient) GetMulti(keys, vals [][]byte) ([]bool, error) {
	if len(keys) != len(vals) {
		return nil, fmt.Errorf("kvs: GetMulti needs one value buffer per key, got %d/%d", len(keys), len(vals))
	}
	v := c.g.VM().VCPU()
	found := make([]bool, len(keys))
	for base := 0; base < len(keys); base += c.window {
		batch := len(keys) - base
		if batch > c.window {
			batch = c.window
		}
		for i := 0; i < batch; i++ {
			key := keys[base+i]
			if len(key) == 0 || len(key) > c.svc.layout.KeySize {
				return found, fmt.Errorf("kvs: key length %d invalid", len(key))
			}
			off := i * c.stride
			v.ChargeInstr(clientOverheadInstr)
			if err := c.handle.ExchangeWrite(v, off, key); err != nil {
				return found, err
			}
			if err := c.rc.Submit(v, FnKVGetAt, uint64(len(key)), uint64(off)); err != nil {
				return found, err
			}
		}
		if err := c.harvest(c.comps[:batch]); err != nil {
			return found, err
		}
		for i := 0; i < batch; i++ {
			comp := c.comps[i]
			if comp.Status != shm.CompOK {
				return found, fmt.Errorf("kvs: ring lookup %d failed", base+i)
			}
			if comp.Ret == 0 {
				continue
			}
			off := i * c.stride
			val := vals[base+i]
			n := c.svc.layout.ValSize
			if len(val) < n {
				n = len(val)
			}
			if err := c.handle.ExchangeRead(v, off+stagingKeyCap, val[:n]); err != nil {
				return found, err
			}
			found[base+i] = true
		}
	}
	return found, nil
}
