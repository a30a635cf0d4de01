package cluster

import (
	"fmt"
	"sort"

	"github.com/elisa-go/elisa/internal/core"
	"github.com/elisa-go/elisa/internal/hv"
	"github.com/elisa-go/elisa/internal/obs"
	"github.com/elisa-go/elisa/internal/simtime"
)

// DefaultShardPhysBytes is the per-shard simulated physical memory a
// Config zero value picks. It is a model parameter, not a host
// allocation: a shard's memory is backed in 2 MiB chunks on first touch,
// so an idle shard costs the host only what its boot touched.
const DefaultShardPhysBytes = 64 * 1024 * 1024

// Config configures a Cluster.
type Config struct {
	// Shards is the manager-shard count (required, >= 1). Each shard is a
	// fully independent simulated machine: its own hypervisor, manager
	// VM, EPTP lists, slot LRU, ring poller, and overload gates.
	Shards int
	// Seed feeds the placement ring (and nothing else); the same
	// (Seed, Shards) pair places every object identically.
	Seed int64
	// PhysBytes is each shard machine's physical memory
	// (<= 0 picks DefaultShardPhysBytes).
	PhysBytes int
	// Cost overrides the calibrated cost model on every shard.
	Cost *simtime.CostModel
	// SlotBudget caps the physical EPTP-list slots each guest may occupy
	// per shard, in [0, core.MaxSlotBudget] (0 = the whole list; see
	// core.ManagerConfig.SlotBudget). New refuses a value outside it.
	SlotBudget int
	// TraceEvents, when positive, retains the last N machine events per
	// shard.
	TraceEvents int
	// Observe, when non-nil, attaches a flight recorder to every shard's
	// fast path. Each shard gets its own recorder whose causal log is
	// stamped with the shard ID, so merged timelines stay attributable.
	// A negative setting in it is an error.
	Observe *obs.Config
}

// Shard is one manager machine of a cluster.
type Shard struct {
	// ID is the shard's index in [0, Config.Shards).
	ID  int
	hv  *hv.Hypervisor
	mgr *core.Manager
	rec *obs.Recorder
}

// Hypervisor returns the shard's simulated host.
func (s *Shard) Hypervisor() *hv.Hypervisor { return s.hv }

// Manager returns the shard's ELISA manager runtime.
func (s *Shard) Manager() *core.Manager { return s.mgr }

// Recorder returns the shard's flight recorder (nil unless
// Config.Observe was set).
func (s *Shard) Recorder() *obs.Recorder { return s.rec }

// Cluster is a sharded ELISA control plane: N independent manager
// machines behind one placement ring. Object-management calls route to
// the owning shard; guests route per attachment (see Guest).
type Cluster struct {
	cfg    Config
	ring   *PlacementRing
	shards []*Shard

	objects    map[string]int // object name -> owning shard
	moves      uint64         // MoveObject rebalances performed
	rebalances uint64         // tenant migrations the auto-rebalancer executed
	muxSeq     uint64         // RingMux instances created (trace-base branding)
	fleets     []*Fleet       // for per-shard goodput in Stats
}

// New boots a cluster: Config.Shards independent machines plus the
// placement ring. A single host is a 1-shard cluster.
func New(cfg Config) (*Cluster, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("cluster: need at least 1 shard, got %d", cfg.Shards)
	}
	if cfg.PhysBytes <= 0 {
		cfg.PhysBytes = DefaultShardPhysBytes
	}
	if o := cfg.Observe; o != nil && (o.SpanRing < 0 || o.SampleEvery < 0 || o.CausalEvents < 0) {
		return nil, fmt.Errorf("cluster: negative Observe setting %+v (0 picks the default)", *o)
	}
	ring, err := NewPlacementRing(PlacementConfig{Shards: cfg.Shards, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	c := &Cluster{cfg: cfg, ring: ring, objects: make(map[string]int)}
	for i := 0; i < cfg.Shards; i++ {
		h, err := hv.New(hv.Config{PhysBytes: cfg.PhysBytes, Cost: cfg.Cost, TraceEvents: cfg.TraceEvents})
		if err != nil {
			return nil, fmt.Errorf("cluster: shard %d: %w", i, err)
		}
		mgr, err := core.NewManager(h, core.ManagerConfig{SlotBudget: cfg.SlotBudget})
		if err != nil {
			return nil, fmt.Errorf("cluster: shard %d: %w", i, err)
		}
		sh := &Shard{ID: i, hv: h, mgr: mgr}
		if cfg.Observe != nil {
			sh.rec = obs.NewRecorder(*cfg.Observe)
			sh.rec.Causal().SetShard(i)
			mgr.SetRecorder(sh.rec)
		}
		c.shards = append(c.shards, sh)
	}
	return c, nil
}

// NumShards returns the shard count.
func (c *Cluster) NumShards() int { return len(c.shards) }

// Shard returns one shard by ID.
func (c *Cluster) Shard(id int) *Shard { return c.shards[id] }

// Shards returns every shard, by ID.
func (c *Cluster) Shards() []*Shard { return append([]*Shard(nil), c.shards...) }

// Ring returns the placement ring (pin objects before creating them).
func (c *Cluster) Ring() *PlacementRing { return c.ring }

// Owner returns the shard that owns (or would own) an object.
func (c *Cluster) Owner(object string) int {
	if s, ok := c.resolve(object); ok {
		return s
	}
	return c.ring.Owner(object)
}

// resolve is the cluster's one object lookup: the shard the cluster
// placed (or moved) the object on, else the lowest shard whose manager
// holds it — an object created directly on a shard's manager, as
// Shard.Manager().CreateObject does, is routable like a placed one.
func (c *Cluster) resolve(object string) (int, bool) {
	if s, ok := c.objects[object]; ok {
		return s, true
	}
	for _, sh := range c.shards {
		if _, ok := sh.mgr.Object(object); ok {
			return sh.ID, true
		}
	}
	return 0, false
}

// CreateObject creates a shared object on its placement-ring owner and
// returns the owning shard ID.
func (c *Cluster) CreateObject(name string, size int) (int, error) {
	if _, dup := c.resolve(name); dup {
		return 0, fmt.Errorf("cluster: object %q already exists", name)
	}
	s := c.ring.Owner(name)
	if _, err := c.shards[s].mgr.CreateObject(name, size); err != nil {
		return 0, fmt.Errorf("cluster: shard %d: %w", s, err)
	}
	c.objects[name] = s
	return s, nil
}

// RegisterFunc publishes a manager function on every shard, so routed
// calls behave identically wherever their object lives.
func (c *Cluster) RegisterFunc(id uint64, fn core.ObjectFunc) error {
	for _, sh := range c.shards {
		if err := sh.mgr.RegisterFunc(id, fn); err != nil {
			return fmt.Errorf("cluster: shard %d: %w", sh.ID, err)
		}
	}
	return nil
}

// DrainAll interleaves one budget-bounded DrainRings poller pass per
// shard, in shard order, and returns the total descriptors serviced.
// Each shard's pass is weighted-fair within the shard (see
// core.Manager.DrainRings); interleaving whole passes keeps one hot
// shard from starving the others' pollers.
func (c *Cluster) DrainAll(budget int) (int, error) {
	total := 0
	for _, sh := range c.shards {
		n, err := sh.mgr.DrainRings(budget)
		total += n
		if err != nil {
			return total, fmt.Errorf("cluster: shard %d: %w", sh.ID, err)
		}
	}
	return total, nil
}

// MoveObject rebalances one object to a destination shard: its bytes are
// copied, every attachment on the source shard is revoked (in-flight
// ring descriptors complete administratively as CompErr via the failRing
// path — never stranded), the object is pinned to the destination, and
// future negotiations route there. Guests re-attach lazily; their stale
// handles get the same clean gate refusal any revoked handle gets.
func (c *Cluster) MoveObject(name string, to int) error {
	if to < 0 || to >= len(c.shards) {
		return fmt.Errorf("cluster: move %q to shard %d outside [0,%d)", name, to, len(c.shards))
	}
	from, ok := c.resolve(name)
	if !ok {
		return fmt.Errorf("cluster: object %q not created", name)
	}
	if from == to {
		return nil
	}
	src := c.shards[from]
	dst := c.shards[to]
	obj, ok := src.mgr.Object(name)
	if !ok {
		return fmt.Errorf("cluster: shard %d lost object %q", from, name)
	}
	buf := make([]byte, obj.Size())
	if err := obj.Region().Read(nil, 0, buf); err != nil {
		return fmt.Errorf("cluster: move %q: read: %w", name, err)
	}
	// Revoke every live attachment on the source shard before the copy is
	// published: revocation completes queued ring descriptors as CompErr
	// and the gate refuses stale handles from here on.
	vms := make(map[string]*hv.VM, len(src.hv.VMs()))
	for _, vm := range src.hv.VMs() {
		vms[vm.Name()] = vm
	}
	for _, st := range src.mgr.Stats() {
		if st.Object != name || st.Revoked {
			continue
		}
		vm, ok := vms[st.Guest]
		if !ok {
			continue
		}
		if err := src.mgr.Revoke(vm, name); err != nil {
			return fmt.Errorf("cluster: move %q: revoke %q: %w", name, st.Guest, err)
		}
	}
	newObj, err := dst.mgr.CreateObject(name, obj.Size())
	if err != nil {
		return fmt.Errorf("cluster: move %q: shard %d: %w", name, to, err)
	}
	if err := newObj.Region().Write(nil, 0, buf); err != nil {
		return fmt.Errorf("cluster: move %q: write: %w", name, err)
	}
	if err := c.ring.Pin(name, to); err != nil {
		return err
	}
	c.objects[name] = to
	c.moves++
	return nil
}

// ShardStats is one shard's live accounting snapshot.
type ShardStats struct {
	// ID is the shard.
	ID int
	// Objects counts objects the cluster placed on this shard.
	Objects int
	// Guests counts guests holding ELISA state on the shard.
	Guests int
	// Calls and FnErrors aggregate the shard's attachment counters.
	Calls    uint64
	FnErrors uint64
	// SlotsBacked and SlotBudget sum the per-guest slot accounting;
	// Occupancy is their ratio (0 with no guests).
	SlotsBacked int
	SlotBudget  int
	Occupancy   float64
	// Remaps counts HCSlotFault re-binds (the slot-virtualisation slow
	// path) across the shard's guests.
	Remaps uint64
	// RingDrained counts ring descriptors serviced on the shard, both
	// drain sides.
	RingDrained uint64
	// GoodputOPS sums the shard's fleet tenants' goodput (0 without a
	// cluster fleet).
	GoodputOPS float64
	// ResidentBytes is the host memory backing the shard's simulated
	// physical memory (hv.MachineStats.ResidentBytes).
	ResidentBytes int
}

// Stats is a cluster-wide accounting snapshot.
type Stats struct {
	// Shards holds one entry per shard, by ID.
	Shards []ShardStats
	// Objects is the cluster-wide object count; Moves counts MoveObject
	// rebalances performed.
	Objects int
	Moves   uint64
	// Rebalances counts tenant migrations the auto-rebalancer executed
	// (each is one or more Moves plus a fleet Evict/Adopt; see
	// RebalanceConfig). 0 when no rebalancer is armed.
	Rebalances uint64
	// Imbalance is the max/mean ratio of per-shard load — calls when any
	// shard has calls, placed objects otherwise; 0 when the cluster is
	// empty, 1.0 when perfectly balanced.
	Imbalance float64
}

// Fleets returns the cluster fleets created on this cluster, in
// creation order (for lane-executor metrics).
func (c *Cluster) Fleets() []*Fleet { return c.fleets }

// Stats snapshots every shard's live accounting plus the cluster-wide
// imbalance ratio.
func (c *Cluster) Stats() Stats {
	st := Stats{Objects: len(c.objects), Moves: c.moves, Rebalances: c.rebalances}
	perShardObjects := make([]int, len(c.shards))
	for _, s := range c.objects {
		perShardObjects[s]++
	}
	goodput := make([]float64, len(c.shards))
	for _, f := range c.fleets {
		for s, sched := range f.scheds {
			if sched == nil {
				continue
			}
			for _, tr := range sched.Snapshot().Tenants {
				goodput[s] += tr.GoodputOPS
			}
		}
	}
	for _, sh := range c.shards {
		ss := ShardStats{ID: sh.ID, Objects: perShardObjects[sh.ID], GoodputOPS: goodput[sh.ID],
			ResidentBytes: sh.hv.Phys().ResidentBytes()}
		for _, a := range sh.mgr.Stats() {
			ss.Calls += a.Calls
			ss.FnErrors += a.FnErrors
		}
		for _, sl := range sh.mgr.SlotStats() {
			ss.Guests++
			ss.SlotsBacked += sl.Backed
			ss.SlotBudget += sl.Budget
			ss.Remaps += sl.Faults
		}
		if ss.SlotBudget > 0 {
			ss.Occupancy = float64(ss.SlotsBacked) / float64(ss.SlotBudget)
		}
		for _, rs := range sh.mgr.RingStats() {
			ss.RingDrained += rs.Flushed + rs.Drained
		}
		st.Shards = append(st.Shards, ss)
	}
	st.Imbalance = imbalance(st.Shards)
	return st
}

// imbalance computes max/mean per-shard load: calls when any shard has
// them, placed objects otherwise.
func imbalance(shards []ShardStats) float64 {
	load := make([]float64, len(shards))
	any := false
	for i, s := range shards {
		load[i] = float64(s.Calls)
		if s.Calls > 0 {
			any = true
		}
	}
	if !any {
		for i, s := range shards {
			load[i] = float64(s.Objects)
		}
	}
	var sum, max float64
	for _, l := range load {
		sum += l
		if l > max {
			max = l
		}
	}
	if sum == 0 {
		return 0
	}
	return max / (sum / float64(len(load)))
}

// Describe renders a deterministic one-line-per-shard summary (a debug
// and test aid; object sets render sorted).
func (c *Cluster) Describe() string {
	byShard := make([][]string, len(c.shards))
	for name, s := range c.objects {
		byShard[s] = append(byShard[s], name)
	}
	out := ""
	for i, objs := range byShard {
		sort.Strings(objs)
		out += fmt.Sprintf("shard %d: %d objects %v\n", i, len(objs), objs)
	}
	return out
}
