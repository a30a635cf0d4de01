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
// serialise). PUT mutations serialise across writers; the cluster
// models that with a global lock timeline: a VM whose mutation would
// overlap another's waits until the lock frees. This is what bends the
// paper's PUT curve flat while GET keeps scaling.
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

// drive names the operations one driver run issues.
type drive uint8

const (
	driveGets  drive = iota // every op a GET of a preloaded key
	drivePuts               // every op a PUT
	driveMixed              // each VM's Mix picks GET or PUT per op
)

// RunGets issues opsPerVM GETs from every VM using per-VM key choosers.
// A GET that misses fails the run.
func (c *Cluster) RunGets(opsPerVM int, keys [][]byte, choosers []workload.KeyChooser) (*Result, error) {
	return c.run(driveGets, opsPerVM, keys, choosers, nil, nil)
}

// RunPuts issues opsPerVM PUTs from every VM, serialising mutations on
// the shared lock timeline.
func (c *Cluster) RunPuts(opsPerVM int, keys [][]byte, choosers []workload.KeyChooser, val []byte) (*Result, error) {
	return c.run(drivePuts, opsPerVM, keys, choosers, nil, val)
}

// RunMixed issues opsPerVM operations per VM with the given read ratio
// (YCSB-style mixed workload). Reads proceed independently; each write's
// mutation serialises on the global lock timeline exactly as in RunPuts.
func (c *Cluster) RunMixed(opsPerVM int, keys [][]byte, choosers []workload.KeyChooser, mixes []*workload.Mix, val []byte) (*Result, error) {
	return c.run(driveMixed, opsPerVM, keys, choosers, mixes, val)
}

// run is the one driver loop. Each round lets every client with
// operations left issue one, in clock order (earliest first): the VM
// whose core is free soonest contends for the lock first, so lock waits
// accumulate realistically. GETs share no simulated state, so their
// order moves no figure. A client's clock is its VM's and never
// changes, so the loop reads each once.
func (c *Cluster) run(d drive, opsPerVM int, keys [][]byte, choosers []workload.KeyChooser, mixes []*workload.Mix, val []byte) (*Result, error) {
	n := len(c.clients)
	switch {
	case len(choosers) != n:
		return nil, fmt.Errorf("kvs: %d choosers for %d clients", len(choosers), n)
	case d == driveMixed && len(mixes) != n:
		return nil, fmt.Errorf("kvs: %d mixes for %d clients", len(mixes), n)
	case opsPerVM < 0:
		return nil, fmt.Errorf("kvs: %d ops per VM", opsPerVM)
	}
	res := &Result{Scheme: c.clients[0].Scheme(), VMs: n, Latency: stats.NewHistogram()}
	var buf []byte // GET value buffer, as large as any layout's value
	if d != drivePuts {
		buf = make([]byte, 1<<20)
	}
	clocks := make([]*simtime.Clock, n)
	starts := make([]simtime.Time, n)
	remaining := make([]int, n)
	order := make([]int, n)
	for i, cl := range c.clients {
		clocks[i] = cl.Clock()
		starts[i] = clocks[i].Now()
		remaining[i] = opsPerVM
		order[i] = i
	}
	for progressed := true; progressed; {
		sortByClock(order, clocks)
		progressed = false
		for _, i := range order {
			if remaining[i] == 0 {
				continue
			}
			progressed = true
			remaining[i]--
			cl, clk := c.clients[i], clocks[i]
			key := keys[choosers[i].Next()]
			t0 := clk.Now()
			if d == driveGets || d == driveMixed && mixes[i].Read() {
				found, err := cl.Get(key, buf)
				if err != nil {
					return nil, err
				}
				if !found && d == driveGets {
					return nil, fmt.Errorf("kvs: GET missed preloaded key %q", key)
				}
			} else {
				cs, err := cl.Put(key, val)
				if err != nil {
					return nil, err
				}
				// Serialise the mutation span [end-cs, end) on the
				// global lock timeline.
				mStart := clk.Now().Add(-cs)
				if mStart < c.lockFree {
					wait := c.lockFree.Sub(mStart)
					clk.Advance(wait)
					mStart = mStart.Add(wait)
				}
				c.lockFree = mStart.Add(cs)
			}
			res.Latency.RecordDuration(clk.Elapsed(t0))
			res.Ops++
		}
	}
	res.PerVMMops = make([]float64, n)
	for i, clk := range clocks {
		rate := stats.Throughput(int64(opsPerVM), clk.Elapsed(starts[i])) / 1e6
		res.PerVMMops[i] = rate
		res.AggMops += rate
	}
	return res, nil
}

// sortByClock orders client indices by clock, earliest first, keeping
// clients with equal clocks in their current order. It is a stable
// insertion sort: the order stays nearly sorted from one round to the
// next, and unlike sort.SliceStable it allocates nothing.
func sortByClock(order []int, clocks []*simtime.Clock) {
	for i := 1; i < len(order); i++ {
		x := order[i]
		t := clocks[x].Now()
		j := i
		for ; j > 0 && clocks[order[j-1]].Now() > t; j-- {
			order[j] = order[j-1]
		}
		order[j] = x
	}
}
