package cluster

import (
	"fmt"
	"sort"

	"github.com/elisa-go/elisa/internal/core"
	"github.com/elisa-go/elisa/internal/cpu"
	"github.com/elisa-go/elisa/internal/hv"
	"github.com/elisa-go/elisa/internal/simtime"
)

// Guest is a cluster tenant: one logical guest with a lazily-created
// replica VM on every shard it touches. The router resolves an object's
// owning shard once, at attach (negotiation) time; after that every
// Handle.Call and Handle.Ring runs entirely on the owning shard's
// machine — the exit-less hot path is untouched and a routed call costs
// exactly what an unsharded call costs.
type Guest struct {
	c    *Cluster
	name string
	ram  int

	replicas []*replica         // indexed by shard; nil until first touched
	handles  map[string]*Handle // object name -> cached routed handle
}

// replica is the guest's footprint on one shard: a VM plus the in-guest
// ELISA library state.
type replica struct {
	vm *hv.VM
	g  *core.Guest
}

// NewGuest creates a cluster tenant. No shard resources exist until an
// Attach or VM touches a shard; ramBytes sizes each per-shard replica VM.
func (c *Cluster) NewGuest(name string, ramBytes int) (*Guest, error) {
	if name == "" {
		return nil, fmt.Errorf("cluster: guest needs a name")
	}
	return &Guest{
		c:        c,
		name:     name,
		ram:      ramBytes,
		replicas: make([]*replica, len(c.shards)),
		handles:  make(map[string]*Handle),
	}, nil
}

// Name returns the guest's name (shared by all its shard replicas).
func (g *Guest) Name() string { return g.name }

// VM returns the guest's VM on one shard, booting it there (with its
// ELISA library) on first use.
func (g *Guest) VM(shard int) (*hv.VM, error) {
	if r := g.replicas[shard]; r != nil {
		return r.vm, nil
	}
	sh := g.c.shards[shard]
	vm, err := sh.hv.CreateVM(g.name, g.ram)
	if err != nil {
		return nil, fmt.Errorf("cluster: guest %q shard %d: %w", g.name, shard, err)
	}
	cg, err := core.NewGuest(vm, sh.mgr)
	if err != nil {
		return nil, fmt.Errorf("cluster: guest %q shard %d: %w", g.name, shard, err)
	}
	g.replicas[shard] = &replica{vm: vm, g: cg}
	return vm, nil
}

// VCPU returns the guest's vCPU on one shard, or nil if the guest has
// never touched it.
func (g *Guest) VCPU(shard int) *cpu.VCPU {
	if r := g.replicas[shard]; r != nil {
		return r.vm.VCPU()
	}
	return nil
}

// Dead reports whether the hypervisor killed any of the guest's
// replicas (the outcome of every isolation violation or injected crash).
func (g *Guest) Dead() bool {
	for _, r := range g.replicas {
		if r != nil && r.vm.Dead() {
			return true
		}
	}
	return false
}

// Elapsed sums the guest's simulated time across all shard replicas.
// Replica clocks advance independently (each shard is its own machine),
// so the sum is the guest's total simulated CPU time, which is what
// throughput math wants.
func (g *Guest) Elapsed() simtime.Duration {
	var d simtime.Duration
	for _, r := range g.replicas {
		if r != nil {
			d += r.vm.VCPU().Clock().Elapsed(0)
		}
	}
	return d
}

// Handle is a routed attachment: the owning shard was resolved at attach
// time and is baked in, so Call and Ring go straight to that shard's
// exit-less path with zero per-call routing work.
type Handle struct {
	g      *Guest
	object string
	shard  int
	core   *core.Handle
}

// Shard returns the shard the handle is bound to.
func (h *Handle) Shard() int { return h.shard }

// Core returns the underlying single-shard handle, for the calls that
// take the vCPU explicitly (exchange-buffer helpers, CallMulti).
func (h *Handle) Core() *core.Handle { return h.core }

// VCPU returns the vCPU the handle's calls must issue from — the guest's
// replica on the owning shard.
func (h *Handle) VCPU() *cpu.VCPU { return h.g.replicas[h.shard].vm.VCPU() }

// Attach resolves the shard holding the object and negotiates an
// attachment there. This is the routing slow path: it costs a
// negotiation (VMCALLs) and returns a handle whose hot path never routes
// again. While that attachment is live, Attach returns the same handle;
// once it is revoked — by the manager, or because the object moved —
// Attach re-resolves and negotiates afresh on the current owner.
func (g *Guest) Attach(object string) (*Handle, error) {
	owner, ok := g.c.resolve(object)
	if !ok {
		return nil, fmt.Errorf("cluster: attach %q: object not created", object)
	}
	if _, err := g.VM(owner); err != nil {
		return nil, err
	}
	ch, err := g.replicas[owner].g.Attach(object)
	if err != nil {
		return nil, fmt.Errorf("cluster: guest %q attach %q on shard %d: %w", g.name, object, owner, err)
	}
	if h, ok := g.handles[object]; ok && h.core == ch {
		return h, nil
	}
	h := &Handle{g: g, object: object, shard: owner, core: ch}
	g.handles[object] = h
	return h, nil
}

// Detach releases the routed attachment (and the cached route).
func (g *Guest) Detach(object string) error {
	h, ok := g.handles[object]
	if !ok {
		return fmt.Errorf("cluster: detach %q: not attached", object)
	}
	delete(g.handles, object)
	return h.g.replicas[h.shard].g.Detach(object)
}

// Call invokes a manager function on the owning shard through the
// exit-less gate. The shard was resolved at attach time; this is a plain
// single-machine ELISA call and costs exactly the calibrated round trip.
func (h *Handle) Call(fnID uint64, args ...uint64) (uint64, error) {
	return h.core.Call(h.VCPU(), fnID, args...)
}

// Ring negotiates the exit-less descriptor-ring datapath on the owning
// shard. Ring traffic stays shard-local: descriptors drain either from
// the guest's gate crossings or the shard's own DrainRings poller.
func (h *Handle) Ring(cfg core.RingConfig) (*core.RingCaller, error) {
	return h.core.Ring(h.VCPU(), cfg)
}

// MultiReq is one operation of a cross-shard CallMulti: a manager
// function invocation on one object, wherever that object lives.
type MultiReq struct {
	// Object names the target; its owning shard is resolved per batch.
	Object string
	// Fn is the manager function ID; Args are the register arguments.
	Fn   uint64
	Args [4]uint64
	// Ret and Err receive the per-op results, in submission order.
	Ret uint64
	Err error
}

// CallMulti fans a batch out to every owning shard and merges
// completions deterministically. Requests are grouped by (shard, object)
// — groups issue in ascending shard then object order, and each group is
// one core.CallMulti batch (one gate crossing amortised over the group).
// Within a group, submission order is preserved; results land back at
// each request's original index, so the merge is independent of shard
// count and timing. A group whose batch fails at the protocol level gets
// that error on each of its requests; other groups still run.
func (g *Guest) CallMulti(reqs []MultiReq) error {
	if len(reqs) == 0 {
		return fmt.Errorf("cluster: CallMulti with no requests")
	}
	type groupKey struct {
		shard  int
		object string
	}
	groups := make(map[groupKey][]int)
	for i := range reqs {
		owner, ok := g.c.resolve(reqs[i].Object)
		if !ok {
			return fmt.Errorf("cluster: CallMulti: object %q not created", reqs[i].Object)
		}
		k := groupKey{shard: owner, object: reqs[i].Object}
		groups[k] = append(groups[k], i)
	}
	keys := make([]groupKey, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].shard != keys[j].shard {
			return keys[i].shard < keys[j].shard
		}
		return keys[i].object < keys[j].object
	})
	for _, k := range keys {
		idx := groups[k]
		// A group runs on the cached handle bound to the owner, so a revoked
		// one fails the group at the gate; it attaches only without one.
		h, ok := g.handles[k.object]
		if !ok || h.shard != k.shard {
			var err error
			if h, err = g.Attach(k.object); err != nil {
				return err
			}
		}
		batch := make([]core.Req, len(idx))
		for bi, ri := range idx {
			batch[bi] = core.Req{Fn: reqs[ri].Fn, Args: reqs[ri].Args}
		}
		if err := h.core.CallMulti(h.VCPU(), batch); err != nil {
			// Protocol-level failure (revocation mid-fan-out lands here):
			// mark this group's requests and keep going — other shards'
			// groups are independent failure domains.
			for _, ri := range idx {
				reqs[ri].Err = fmt.Errorf("cluster: shard %d: %w", k.shard, err)
			}
			continue
		}
		for bi, ri := range idx {
			reqs[ri].Ret = batch[bi].Ret
			reqs[ri].Err = batch[bi].Err
		}
	}
	return nil
}
