package mcd

import (
	"testing"

	"github.com/elisa-go/elisa/internal/des"
	"github.com/elisa-go/elisa/internal/simtime"
	"github.com/elisa-go/elisa/internal/vnet"
)

func TestCalibrateServiceOrdering(t *testing.T) {
	svc := map[string]simtime.Duration{}
	for _, scheme := range vnet.Schemes {
		s, err := CalibrateService(scheme)
		if err != nil {
			t.Fatal(err)
		}
		if s <= 0 {
			t.Fatalf("%s: service %v", scheme, s)
		}
		svc[scheme] = s
	}
	t.Logf("service times: %v", svc)
	// Isolation-free paths are fastest; ELISA beats VMCALL beats vhost.
	if !(svc["ivshmem"] < svc["elisa"] && svc["elisa"] < svc["vmcall"] && svc["vmcall"] < svc["vhost-net"]) {
		t.Fatalf("service ordering broken: %v", svc)
	}
	// The paper's +39% throughput claim: capacity ratio = inverse service
	// ratio.
	gain := float64(svc["vmcall"])/float64(svc["elisa"]) - 1
	if gain < 0.25 || gain > 0.6 {
		t.Errorf("ELISA capacity gain over VMCALL = %.0f%%, paper reports ~39%%", gain*100)
	}
}

func TestSweepCurveShape(t *testing.T) {
	c, err := Sweep("elisa", 20_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Points) != len(LoadFractions) {
		t.Fatalf("points = %d", len(c.Points))
	}
	// Latency floor: p99 at the lowest load is near service + NetRTT.
	floor := c.Points[0].P99
	if floor < NetRTT || floor > NetRTT+20*c.Service {
		t.Fatalf("low-load p99 = %v (service %v)", floor, c.Service)
	}
	// Hockey stick: p99 grows monotonically with load and explodes at the
	// knee.
	for i := 1; i < len(c.Points); i++ {
		if c.Points[i].P99 < c.Points[i-1].P99 {
			t.Fatalf("p99 fell between loads %d and %d: %v -> %v",
				i-1, i, c.Points[i-1].P99, c.Points[i].P99)
		}
	}
	last := c.Points[len(c.Points)-1]
	if last.P99 < 3*floor {
		t.Fatalf("no queueing explosion: floor %v, knee %v", floor, last.P99)
	}
	// Achieved throughput tracks offered load (open loop below capacity).
	for _, p := range c.Points {
		if p.AchievedKRPS < 0.85*p.OfferedKRPS {
			t.Fatalf("achieved %.1f << offered %.1f", p.AchievedKRPS, p.OfferedKRPS)
		}
	}
}

// The paper's headline: at VMCALL's knee load, ELISA's p99 is far lower
// (−44% in the paper), and ELISA's knee sits ~39% further right.
func TestELISAVsVMCallLatency(t *testing.T) {
	elisa, err := Sweep("elisa", 20_000)
	if err != nil {
		t.Fatal(err)
	}
	vmcall, err := Sweep("vmcall", 20_000)
	if err != nil {
		t.Fatal(err)
	}
	if elisa.Capacity <= vmcall.Capacity {
		t.Fatalf("capacities: elisa %.1f <= vmcall %.1f", elisa.Capacity, vmcall.Capacity)
	}
	// Compare p99 at the same absolute load: VMCALL's 0.9-capacity point
	// vs ELISA driven at that same rate.
	targetRate := 0.9 * vmcall.Capacity * 1e3
	ep, err := runPoint(99, targetRate, elisa.Service, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	vp := vmcall.Points[4] // the 0.9 fraction
	t.Logf("at %.0f Kreq/s: vmcall p99=%v elisa p99=%v", targetRate/1e3, vp.P99, ep.P99)
	reduction := 1 - float64(ep.P99)/float64(vp.P99)
	if reduction < 0.15 {
		t.Errorf("ELISA p99 reduction at VMCALL knee = %.0f%%, paper reports ~44%%", reduction*100)
	}
}

func TestSweepValidation(t *testing.T) {
	if _, err := Sweep("elisa", 0); err == nil {
		t.Error("zero requests accepted")
	}
	if _, err := Sweep("bogus", 10); err == nil {
		t.Error("bogus scheme accepted")
	}
}

// arrivalsAt is a source of requests arriving at the given times.
func arrivalsAt(times ...simtime.Time) des.Source[serverEvent] {
	i := 0
	return func() (simtime.Time, serverEvent, bool) {
		if i == len(times) {
			return 0, 0, false
		}
		i++
		return times[i-1], arrive, true
	}
}

// Requests that queue are served in arrival order, back to back.
func TestServerFIFO(t *testing.T) {
	srv := serve(100, arrivalsAt(0, 10, 20))
	if srv.lat.Count() != 3 || srv.lastDone != 300 {
		t.Fatalf("completions = %d, last at %d; want 3, last at 300", srv.lat.Count(), srv.lastDone)
	}
	// FIFO: the request enqueued at 20 leaves last, at 300. Serving the
	// waiting requests newest first would keep the one from 10 to the end.
	if lo, hi := srv.lat.Min(), srv.lat.Max(); lo != int64(100+NetRTT) || hi != int64(280+NetRTT) {
		t.Fatalf("latency range [%d, %d], want [%d, %d]", lo, hi, 100+NetRTT, 280+NetRTT)
	}
}

// A server that drained its queue restarts service on the next arrival.
func TestServerIdleRestart(t *testing.T) {
	srv := serve(10, arrivalsAt(0, 110))
	if srv.lastDone != 120 || srv.lat.Max() != int64(10+NetRTT) {
		t.Fatalf("last done %d, max latency %d", srv.lastDone, srv.lat.Max())
	}
}

// An M/D/1-style sanity check: with utilisation above 1 the queue
// builds; well below 1 it stays near-empty. This is the mechanism behind
// the paper's hockey-stick latency curves.
func TestServerQueueingBehaviour(t *testing.T) {
	run := func(gap simtime.Duration) simtime.Time {
		times := make([]simtime.Time, 100)
		for i := range times {
			times[i] = simtime.Time(int64(i) * int64(gap))
		}
		return serve(100, arrivalsAt(times...)).lastDone
	}
	// Overloaded (gap 50 < service 100): completion time dominated by
	// service serialisation: ~100*100.
	if end := run(50); end < 9_900 {
		t.Fatalf("overloaded queue finished too fast: %d", end)
	}
	// Underloaded (gap 200): finishes right after the last arrival.
	if end := run(200); end > 99*200+150 {
		t.Fatalf("underloaded queue lagged: %d", end)
	}
}

// TestRunPointAllocsFlat: one load point's heap allocations do not grow
// with its request count — ten times the requests make the same number
// of mallocs, so none is made per request. The latency histogram's
// bucket map and the wait FIFO grow with the spread of latencies and
// the longest queue, not with the count; at the sweep's lowest load
// both settle within the first 2,000 requests.
func TestRunPointAllocsFlat(t *testing.T) {
	const service = 2623 * simtime.Nanosecond // ELISA's calibrated service time
	rate := LoadFractions[0] * 1e9 / float64(service)
	mallocs := func(n int) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := runPoint(1, rate, service, n); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a, b := mallocs(2_000), mallocs(20_000); a != b {
		t.Fatalf("runPoint makes %v mallocs at 2,000 requests, %v at 20,000", a, b)
	}
}

// The wait FIFO keeps arrival order across wrap-around and growth.
func TestStampFIFOWrapsAndGrows(t *testing.T) {
	var q stampFIFO
	next, want := simtime.Time(0), simtime.Time(0)
	for _, step := range []struct{ push, pop int }{{50, 30}, {40, 10}, {100, 150}, {3, 3}} {
		for i := 0; i < step.push; i++ {
			q.push(next)
			next++
		}
		for i := 0; i < step.pop; i++ {
			if got := q.pop(); got != want {
				t.Fatalf("popped %d, want %d", got, want)
			}
			want++
		}
	}
	// At most 150 stamps waited at once: 64 doubled twice.
	if q.n != 0 || len(q.buf) != 256 {
		t.Fatalf("%d stamps left in a buffer of %d, want 0 in 256", q.n, len(q.buf))
	}
}
