package kvs

import (
	"fmt"

	"github.com/elisa-go/elisa/internal/simtime"
	"github.com/elisa-go/elisa/internal/stats"
	"github.com/elisa-go/elisa/internal/workload"
)

// Cluster drives N client VMs against one shared store and aggregates
// throughput the way the paper's figures do (x axis: number of VMs,
// y axis: total Mops/s).
//
// GETs from different VMs proceed independently (seqlock readers do not
// serialise). PUT mutations serialise on the store's writer lock; the
// cluster models that with a global lock timeline: a VM whose mutation
// would overlap another's waits until the lock frees. This is what bends
// the paper's PUT curve flat while GET keeps scaling.
type Cluster struct {
	clients  []Client
	lockFree simtime.Time
}

// NewCluster wraps the clients (one per VM).
func NewCluster(clients ...Client) (*Cluster, error) {
	if len(clients) == 0 {
		return nil, fmt.Errorf("kvs: cluster needs at least one client")
	}
	return &Cluster{clients: clients}, nil
}

// Result summarises one run.
type Result struct {
	Scheme    string
	VMs       int
	Ops       int64
	AggMops   float64          // total throughput, millions of ops/sec
	PerVMMops []float64        // per-VM rates
	Latency   *stats.Histogram // per-op latency (ns)
}

// Preload inserts n keys through the first client so subsequent GETs hit.
func (c *Cluster) Preload(keys [][]byte, val []byte) error {
	for _, k := range keys {
		if _, err := c.clients[0].Put(k, val); err != nil {
			return fmt.Errorf("kvs: preload %q: %w", k, err)
		}
	}
	return nil
}

// RunGets issues opsPerVM GETs from every VM using per-VM key choosers.
func (c *Cluster) RunGets(opsPerVM int, keys [][]byte, choosers []workload.KeyChooser) (*Result, error) {
	if len(choosers) != len(c.clients) {
		return nil, fmt.Errorf("kvs: %d choosers for %d clients", len(choosers), len(c.clients))
	}
	res := &Result{Scheme: c.clients[0].Scheme(), VMs: len(c.clients), Latency: stats.NewHistogram()}
	val := make([]byte, 1<<20)
	starts := make([]simtime.Time, len(c.clients))
	for i, cl := range c.clients {
		starts[i] = cl.Clock().Now()
	}
	for i, cl := range c.clients {
		for k := 0; k < opsPerVM; k++ {
			key := keys[choosers[i].Next()]
			t0 := cl.Clock().Now()
			found, err := cl.Get(key, val)
			if err != nil {
				return nil, err
			}
			if !found {
				return nil, fmt.Errorf("kvs: GET missed preloaded key %q", key)
			}
			res.Latency.RecordDuration(cl.Clock().Elapsed(t0))
			res.Ops++
		}
	}
	c.finish(res, starts, opsPerVM)
	return res, nil
}

// RunPuts issues opsPerVM PUTs from every VM, serialising mutations on
// the shared writer lock. Clients are interleaved in clock order so lock
// waits accumulate realistically.
func (c *Cluster) RunPuts(opsPerVM int, keys [][]byte, choosers []workload.KeyChooser, val []byte) (*Result, error) {
	if len(choosers) != len(c.clients) {
		return nil, fmt.Errorf("kvs: %d choosers for %d clients", len(choosers), len(c.clients))
	}
	res := &Result{Scheme: c.clients[0].Scheme(), VMs: len(c.clients), Latency: stats.NewHistogram()}
	starts := make([]simtime.Time, len(c.clients))
	remaining := make([]int, len(c.clients))
	for i, cl := range c.clients {
		starts[i] = cl.Clock().Now()
		remaining[i] = opsPerVM
	}
	order := make([]int, len(c.clients))
	for i := range order {
		order[i] = i
	}
	for {
		// Pick pending clients in clock order (earliest first) — the VM
		// whose core is free soonest contends for the lock first.
		c.sortByClock(order)
		progressed := false
		for _, i := range order {
			if remaining[i] == 0 {
				continue
			}
			progressed = true
			cl := c.clients[i]
			key := keys[choosers[i].Next()]
			t0 := cl.Clock().Now()
			cs, err := cl.Put(key, val)
			if err != nil {
				return nil, err
			}
			// Serialise the mutation span [end-cs, end) on the global
			// lock timeline.
			end := cl.Clock().Now()
			mStart := end.Add(-cs)
			if mStart < c.lockFree {
				wait := c.lockFree.Sub(mStart)
				cl.Clock().Advance(wait)
				mStart = mStart.Add(wait)
			}
			c.lockFree = mStart.Add(cs)
			res.Latency.RecordDuration(cl.Clock().Elapsed(t0))
			res.Ops++
			remaining[i]--
		}
		if !progressed {
			break
		}
	}
	c.finish(res, starts, opsPerVM)
	return res, nil
}

// sortByClock orders client indices by clock, earliest first, keeping
// clients with equal clocks in their current order. It is a stable
// insertion sort: the order stays nearly sorted from one round to the
// next, and unlike sort.SliceStable it allocates nothing.
func (c *Cluster) sortByClock(order []int) {
	for i := 1; i < len(order); i++ {
		x := order[i]
		t := c.clients[x].Clock().Now()
		j := i
		for ; j > 0 && c.clients[order[j-1]].Clock().Now() > t; j-- {
			order[j] = order[j-1]
		}
		order[j] = x
	}
}

func (c *Cluster) finish(res *Result, starts []simtime.Time, opsPerVM int) {
	res.PerVMMops = make([]float64, len(c.clients))
	for i, cl := range c.clients {
		elapsed := cl.Clock().Elapsed(starts[i])
		rate := stats.Throughput(int64(opsPerVM), elapsed)
		res.PerVMMops[i] = rate / 1e6
		res.AggMops += rate / 1e6
	}
}

// RunMixed issues opsPerVM operations per VM with the given read ratio
// (YCSB-style mixed workload). Reads proceed independently; each write's
// mutation serialises on the global lock timeline exactly as in RunPuts.
func (c *Cluster) RunMixed(opsPerVM int, keys [][]byte, choosers []workload.KeyChooser, mixes []*workload.Mix, val []byte) (*Result, error) {
	if len(choosers) != len(c.clients) || len(mixes) != len(c.clients) {
		return nil, fmt.Errorf("kvs: %d choosers / %d mixes for %d clients", len(choosers), len(mixes), len(c.clients))
	}
	res := &Result{Scheme: c.clients[0].Scheme(), VMs: len(c.clients), Latency: stats.NewHistogram()}
	starts := make([]simtime.Time, len(c.clients))
	remaining := make([]int, len(c.clients))
	for i, cl := range c.clients {
		starts[i] = cl.Clock().Now()
		remaining[i] = opsPerVM
	}
	buf := make([]byte, 1<<20)
	order := make([]int, len(c.clients))
	for i := range order {
		order[i] = i
	}
	for {
		c.sortByClock(order)
		progressed := false
		for _, i := range order {
			if remaining[i] == 0 {
				continue
			}
			progressed = true
			cl := c.clients[i]
			key := keys[choosers[i].Next()]
			t0 := cl.Clock().Now()
			if mixes[i].Read() {
				if _, err := cl.Get(key, buf); err != nil {
					return nil, err
				}
			} else {
				cs, err := cl.Put(key, val)
				if err != nil {
					return nil, err
				}
				end := cl.Clock().Now()
				mStart := end.Add(-cs)
				if mStart < c.lockFree {
					wait := c.lockFree.Sub(mStart)
					cl.Clock().Advance(wait)
					mStart = mStart.Add(wait)
				}
				c.lockFree = mStart.Add(cs)
			}
			res.Latency.RecordDuration(cl.Clock().Elapsed(t0))
			res.Ops++
			remaining[i]--
		}
		if !progressed {
			break
		}
	}
	c.finish(res, starts, opsPerVM)
	return res, nil
}
