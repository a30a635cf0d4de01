package workload

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"github.com/elisa-go/elisa/internal/simtime"
)

// generateReference is the merge loop Generate used before it drew each
// tenant's stream on its own: every lane draws lazily, the earliest next
// arrival is emitted (ties to the earlier spec), and the trace grows by
// append. Its output is the contract Generate keeps, byte for byte.
func generateReference(specs []Spec, seed int64, horizon simtime.Duration) (*Trace, error) {
	if horizon <= 0 {
		return nil, fmt.Errorf("workload: generate horizon %d must be positive", horizon)
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("workload: generate needs at least one spec")
	}
	type lane struct {
		spec    *Spec
		arrival Arrival
		keys    KeyChooser
		next    simtime.Time // next arrival instant (past horizon = done)
		emitted int
		rr      int
	}
	lanes := make([]*lane, 0, len(specs))
	for i := range specs {
		sp := &specs[i]
		if err := sp.validate(); err != nil {
			return nil, err
		}
		arr, err := sp.NewArrival(seed + int64(i)*7919 + 1)
		if err != nil {
			return nil, err
		}
		keys, err := sp.NewKeys(seed + int64(i)*7919 + 2)
		if err != nil {
			return nil, err
		}
		ln := &lane{spec: sp, arrival: arr, keys: keys}
		ln.next = simtime.Time(0).Add(arr.NextInterval())
		lanes = append(lanes, ln)
	}
	end := simtime.Time(0).Add(horizon)
	tr := &Trace{}
	for {
		var pick *lane
		for _, ln := range lanes {
			if ln.next >= end {
				continue
			}
			if ln.spec.Ops > 0 && ln.emitted >= ln.spec.Ops {
				continue
			}
			if pick == nil || ln.next < pick.next {
				pick = ln // ties resolve to the earlier spec: lanes scan in spec order
			}
		}
		if pick == nil {
			return tr, nil
		}
		obj := pick.rr
		if pick.keys != nil {
			obj = pick.keys.Next()
		}
		pick.rr = (pick.rr + 1) % len(pick.spec.Objects)
		tr.Events = append(tr.Events, Event{
			At:     pick.next,
			Tenant: pick.spec.Name,
			Object: pick.spec.Objects[obj%len(pick.spec.Objects)],
			Fn:     pick.spec.Fn,
			Class:  pick.spec.Class,
			Size:   pick.spec.SizeBytes,
		})
		pick.emitted++
		pick.next = pick.next.Add(pick.arrival.NextInterval())
	}
}

// specGen decodes a spec set from a byte stream, so the random test and
// the fuzzer share one generator. Exhausted input reads as zeros.
type specGen struct{ b []byte }

func (g *specGen) next() byte {
	if len(g.b) == 0 {
		return 0
	}
	c := g.b[0]
	g.b = g.b[1:]
	return c
}

// specs returns one to eight tenants. Rates run from 100 kops/s to past
// one op per nanosecond, where every gap clamps to 1 ns and the tenants'
// instants coincide; caps, skews, arrival shapes and object counts vary,
// and a few specs are invalid so the error paths are compared too.
func (g *specGen) specs() []Spec {
	n := 1 + int(g.next())%8
	out := make([]Spec, n)
	for i := range out {
		sp := &out[i]
		sp.Name = fmt.Sprintf("t%d", i)
		sp.Arrival = []string{"", "poisson", "mmpp", "diurnal"}[g.next()%4]
		sp.RateOPS = 1e5 * float64(uint64(1)<<(g.next()%16))
		if c := g.next(); c%4 == 0 {
			sp.BurstRateOPS = sp.RateOPS * float64(1+c%16)
			sp.CalmDwell = simtime.Duration(1+c%8) * simtime.Microsecond
			sp.BurstDwell = simtime.Duration(1+c%3) * 300
		}
		if c := g.next(); c%3 == 0 {
			sp.Amplitude = float64(c%10) / 10
			sp.Period = simtime.Duration(1+c%16) * simtime.Microsecond
		}
		sp.Keys = []string{"", "roundrobin", "uniform", "zipf"}[g.next()%4]
		if c := g.next(); c%2 == 0 {
			sp.Skew = []float64{0.5, 0.99, 1.01, 1.5}[c/2%4]
		}
		for o := 0; o < 1+int(g.next())%5; o++ {
			sp.Objects = append(sp.Objects, fmt.Sprintf("%s-o%d", sp.Name, o))
		}
		sp.Fn = uint64(g.next())
		sp.Class = int(g.next()) % 4
		sp.SizeBytes = int(g.next()) * 8
		switch c := g.next(); c % 4 {
		case 0:
			sp.Ops = int(c) / 4
		case 1:
			sp.Ops = -1
		}
		switch g.next() { // a rare invalid spec: both sides must refuse it
		case 0xfd:
			sp.RateOPS = 0
		case 0xfe:
			sp.Arrival = "bogus"
		case 0xff:
			sp.Keys = "bogus"
		}
	}
	return out
}

// horizon returns 1 ns to about 16 µs, with small values that cut a
// clamped 1 ns stream exactly at an instant.
func (g *specGen) horizon() simtime.Duration {
	if c := g.next(); c < 32 {
		return simtime.Duration(1 + c)
	}
	return simtime.Duration(1 + int(g.next())<<6 + int(g.next())%64)
}

// copySpecs returns specs with their own struct copies: both sides of a
// comparison apply defaults in place.
func copySpecs(specs []Spec) []Spec { return append([]Spec(nil), specs...) }

// checkGenerate runs Generate and the reference on the same inputs and
// requires the same error-ness, the same events and the same defaulted
// specs. It returns Generate's trace, nil when both refused.
func checkGenerate(t *testing.T, specs []Spec, seed int64, horizon simtime.Duration) *Trace {
	t.Helper()
	gs, rs := copySpecs(specs), copySpecs(specs)
	got, err := Generate(gs, seed, horizon)
	want, werr := generateReference(rs, seed, horizon)
	if (err == nil) != (werr == nil) {
		t.Fatalf("seed %d horizon %d: err %v, reference err %v", seed, horizon, err, werr)
	}
	if err != nil {
		return nil
	}
	if len(got.Events) != len(want.Events) {
		t.Fatalf("seed %d horizon %d: %d events, reference %d", seed, horizon, len(got.Events), len(want.Events))
	}
	for i := range got.Events {
		if got.Events[i] != want.Events[i] {
			t.Fatalf("seed %d horizon %d: event %d %+v, reference %+v", seed, horizon, i, got.Events[i], want.Events[i])
		}
	}
	if cap(got.Events) != len(got.Events) {
		t.Fatalf("Events has cap %d for %d events", cap(got.Events), len(got.Events))
	}
	if !reflect.DeepEqual(gs, rs) {
		t.Fatal("specs defaulted differently")
	}
	return got
}

// TestGenerateMatchesReference compares Generate with the reference
// merge loop over random spec sets: every arrival process and key
// distribution, Ops caps, coinciding instants across tenants, and
// horizons that end on an instant. It also checks that the random sets
// reach those cases.
func TestGenerateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	buf := make([]byte, 256)
	var traces, ties, capped int
	for round := 0; round < 300; round++ {
		rng.Read(buf)
		g := &specGen{b: buf}
		specs := g.specs()
		tr := checkGenerate(t, specs, rng.Int63n(1<<20), g.horizon())
		if tr == nil || len(tr.Events) == 0 {
			continue
		}
		traces++
		for i := 1; i < len(tr.Events); i++ {
			if tr.Events[i].At == tr.Events[i-1].At {
				ties++
				break
			}
		}
		for _, sp := range specs {
			if sp.Ops > 0 {
				capped++
				break
			}
		}
	}
	if traces < 150 || ties < 20 || capped < 20 {
		t.Fatalf("random spec sets too narrow: %d traces, %d with equal instants, %d with an Ops cap", traces, ties, capped)
	}
	// The committed scenarios with the inputs that render their traces.
	regression, err := RegressionSpecs()
	if err != nil {
		t.Fatal(err)
	}
	checkGenerate(t, regression, RegressionSeed, RegressionHorizon)
	rebalance, err := RebalanceSpecs()
	if err != nil {
		t.Fatal(err)
	}
	checkGenerate(t, rebalance, RebalanceSeed, RebalanceHorizon)
}

// FuzzGenerate holds Generate to the reference merge loop on decoded
// spec sets, seeds and horizons.
func FuzzGenerate(f *testing.F) {
	f.Add([]byte{3, 2, 4, 0, 0, 3, 0, 1, 7, 1, 16, 0, 1, 0, 5, 0xff, 9, 0, 0})
	f.Add([]byte{8, 1, 15, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 15, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := &specGen{b: data}
		specs := g.specs()
		seed := int64(g.next())<<8 | int64(g.next())
		checkGenerate(t, specs, seed, g.horizon())
	})
}

// TestGenerateAllocsFlat pins Generate's allocation to the trace it
// returns: the per-tenant draws and the generators' state add less than
// the Events slice itself, which is allocated once at its final length.
func TestGenerateAllocsFlat(t *testing.T) {
	specs := make([]Spec, 8)
	for i := range specs {
		specs[i] = Spec{
			Name:    fmt.Sprintf("t%d", i),
			Arrival: []string{"poisson", "mmpp", "diurnal"}[i%3],
			RateOPS: 1e6,
			Keys:    []string{"roundrobin", "uniform", "zipf"}[i%3],
			Objects: []string{"a", "b", "c", "d"},
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tr, err := Generate(specs, 1, simtime.Millisecond)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	out := uint64(len(tr.Events)) * uint64(unsafe.Sizeof(Event{}))
	if len(tr.Events) < 5000 {
		t.Fatalf("only %d events: the spec no longer exercises the draw path", len(tr.Events))
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 2*out {
		t.Fatalf("Generate allocated %d bytes for a %d-byte trace of %d events (want < 2x)", got, out, len(tr.Events))
	}
}
