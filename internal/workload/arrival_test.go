package workload

import (
	"math"
	"strings"
	"testing"

	"github.com/elisa-go/elisa/internal/simtime"
)

// empiricalOPS drives an arrival process for n gaps and returns the
// realised rate in ops per simulated second.
func empiricalOPS(a Arrival, n int) float64 {
	var total simtime.Duration
	for i := 0; i < n; i++ {
		total += a.NextInterval()
	}
	return float64(n) / total.Seconds()
}

// TestWorkloadMMPPMeanConvergence: the empirical rate of a long MMPP run
// converges to the dwell-weighted mean of the two state rates.
func TestWorkloadMMPPMeanConvergence(t *testing.T) {
	m, err := NewMMPP(21, 100_000, 1_600_000, 120*simtime.Microsecond, 30*simtime.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	want := m.MeanOPS()
	if wantSpec := (100_000.0*120 + 1_600_000.0*30) / 150; want < wantSpec*0.999 || want > wantSpec*1.001 {
		t.Fatalf("MeanOPS %.0f, spec formula %.0f", want, wantSpec)
	}
	got := empiricalOPS(m, 200_000)
	if got < 0.9*want || got > 1.1*want {
		t.Fatalf("empirical rate %.0f ops/s, want %.0f +/-10%%", got, want)
	}
}

// TestWorkloadMMPPBurstiness: an MMPP with a hot burst state must be
// burstier than Poisson — the squared coefficient of variation of its
// gaps stays well above the exponential's 1.
func TestWorkloadMMPPBurstiness(t *testing.T) {
	m, err := NewMMPP(4, 50_000, 2_000_000, 200*simtime.Microsecond, 50*simtime.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	const n = 100_000
	gaps := make([]float64, n)
	var mean float64
	for i := range gaps {
		gaps[i] = float64(m.NextInterval())
		mean += gaps[i]
	}
	mean /= n
	var varsum float64
	for _, g := range gaps {
		varsum += (g - mean) * (g - mean)
	}
	cv2 := varsum / n / (mean * mean)
	if cv2 < 1.5 {
		t.Fatalf("squared CV %.2f — not meaningfully burstier than Poisson (1.0)", cv2)
	}
}

// TestWorkloadDiurnalMeanConvergence: over whole periods the sinusoid
// integrates away and the realised rate converges to the base rate.
func TestWorkloadDiurnalMeanConvergence(t *testing.T) {
	d, err := NewDiurnal(31, 500_000, 0.8, 100*simtime.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	got := empiricalOPS(d, 200_000) // ~400ms: 4000 periods
	if got < 0.9*500_000 || got > 1.1*500_000 {
		t.Fatalf("empirical rate %.0f ops/s, want 500000 +/-10%%", got)
	}
}

// TestWorkloadDiurnalModulation: the realised rate inside peak
// half-periods must exceed the rate inside trough half-periods — the
// thinning really modulates, not just averages.
func TestWorkloadDiurnalModulation(t *testing.T) {
	period := 100 * simtime.Microsecond
	d, err := NewDiurnal(8, 500_000, 0.9, period)
	if err != nil {
		t.Fatal(err)
	}
	var now simtime.Time
	peak, trough := 0, 0
	for i := 0; i < 100_000; i++ {
		now = now.Add(d.NextInterval())
		if phase := int64(now) % int64(period); phase < int64(period)/2 {
			peak++ // sin positive: first half-period
		} else {
			trough++
		}
	}
	if peak < 2*trough {
		t.Fatalf("peak/trough split %d/%d — modulation too weak for amp 0.9", peak, trough)
	}
}

// TestWorkloadArrivalDeterminism: for every process family, same seed =>
// identical gap stream, different seed => divergence.
func TestWorkloadArrivalDeterminism(t *testing.T) {
	build := map[string]func(seed int64) (Arrival, error){
		"poisson": func(seed int64) (Arrival, error) { return NewPoisson(seed, 250_000) },
		"mmpp": func(seed int64) (Arrival, error) {
			return NewMMPP(seed, 100_000, 800_000, 80*simtime.Microsecond, 20*simtime.Microsecond)
		},
		"diurnal": func(seed int64) (Arrival, error) {
			return NewDiurnal(seed, 250_000, 0.6, 50*simtime.Microsecond)
		},
	}
	for name, mk := range build {
		a, err := mk(11)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, _ := mk(11)
		c, _ := mk(12)
		diverged := false
		for i := 0; i < 10_000; i++ {
			av := a.NextInterval()
			if bv := b.NextInterval(); av != bv {
				t.Fatalf("%s: same-seed gap %d differs: %v vs %v", name, i, av, bv)
			}
			if av != c.NextInterval() {
				diverged = true
			}
		}
		if !diverged {
			t.Errorf("%s: different seeds produced identical streams", name)
		}
	}
}

// TestWorkloadArrivalBoundaries: zero and negative shape parameters must
// refuse at construction, never at first use.
func TestWorkloadArrivalBoundaries(t *testing.T) {
	us := simtime.Microsecond
	cases := []struct {
		name string
		mk   func() error
	}{
		{"poisson zero rate", func() error { _, err := NewPoisson(1, 0); return err }},
		{"poisson negative rate", func() error { _, err := NewPoisson(1, -5); return err }},
		{"mmpp zero calm rate", func() error { _, err := NewMMPP(1, 0, 100, 10*us, 10*us); return err }},
		{"mmpp zero burst rate", func() error { _, err := NewMMPP(1, 100, 0, 10*us, 10*us); return err }},
		{"mmpp zero calm dwell", func() error { _, err := NewMMPP(1, 100, 200, 0, 10*us); return err }},
		{"mmpp negative burst dwell", func() error { _, err := NewMMPP(1, 100, 200, 10*us, -us); return err }},
		{"diurnal zero rate", func() error { _, err := NewDiurnal(1, 0, 0.5, us); return err }},
		{"diurnal amp 1", func() error { _, err := NewDiurnal(1, 100, 1, us); return err }},
		{"diurnal negative amp", func() error { _, err := NewDiurnal(1, 100, -0.1, us); return err }},
		{"diurnal zero period", func() error { _, err := NewDiurnal(1, 100, 0.5, 0); return err }},
	}
	for _, tc := range cases {
		if tc.mk() == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestWorkloadArrivalRefusesNonFinite: NaN passes every `<= 0` bound and
// an infinite rate makes every gap the 1 ns floor, so the arrival and
// key constructors refuse both.
func TestWorkloadArrivalRefusesNonFinite(t *testing.T) {
	us := simtime.Microsecond
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		mk   func() error
	}{
		{"poisson NaN rate", func() error { _, err := NewPoisson(1, nan); return err }},
		{"poisson +Inf rate", func() error { _, err := NewPoisson(1, inf); return err }},
		{"mmpp NaN calm rate", func() error { _, err := NewMMPP(1, nan, 100, 10*us, 10*us); return err }},
		{"mmpp +Inf burst rate", func() error { _, err := NewMMPP(1, 100, inf, 10*us, 10*us); return err }},
		{"diurnal NaN rate", func() error { _, err := NewDiurnal(1, nan, 0.5, us); return err }},
		{"diurnal +Inf rate", func() error { _, err := NewDiurnal(1, inf, 0.5, us); return err }},
		{"diurnal NaN amp", func() error { _, err := NewDiurnal(1, 100, nan, us); return err }},
		{"zipf NaN skew", func() error { _, err := NewZipf(1, 8, nan); return err }},
		{"zipf +Inf skew", func() error { _, err := NewZipf(1, 8, inf); return err }},
	}
	for _, tc := range cases {
		if tc.mk() == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestWorkloadSingleEventHorizon: a horizon that admits at most one
// arrival generates at most one event, and a horizon at or below the
// minimum gap generates none from a slow tenant.
func TestWorkloadSingleEventHorizon(t *testing.T) {
	specs := []Spec{{
		Name: "slow", RateOPS: 1000, Objects: []string{"o"}, Fn: 1,
	}}
	// 1000 ops/s => mean gap 1ms. A 1ns horizon precedes any arrival.
	tr, err := Generate(specs, 5, simtime.Nanosecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) != 0 {
		t.Fatalf("1ns horizon produced %d events", len(tr.Events))
	}
	// A one-gap horizon: find the first gap, generate just past it.
	p, _ := NewPoisson(5+1, 1000) // Generate's lane seed for spec 0
	first := p.NextInterval()
	second := p.NextInterval()
	tr, err = Generate(specs, 5, first+min(second, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) != 1 {
		t.Fatalf("single-event horizon produced %d events", len(tr.Events))
	}
	if tr.Events[0].At != simtime.Time(0).Add(first) {
		t.Fatalf("event at %d, want %d", tr.Events[0].At, first)
	}
}

// gapList is an arrival process that replays fixed gaps.
type gapList []simtime.Duration

func (g *gapList) NextInterval() simtime.Duration {
	d := (*g)[0]
	*g = (*g)[1:]
	return d
}

// TestWorkloadIdleRateSaturates: a gap too long for a Duration saturates
// at the largest one instead of wrapping to 1 ns, so a tenant at 1e-12
// ops/s (one arrival in about 30,000 years) generates nothing over a
// microsecond, and no instant wraps when a saturated gap follows an
// arrival.
func TestWorkloadIdleRateSaturates(t *testing.T) {
	p, err := NewPoisson(1, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if d := p.NextInterval(); d != math.MaxInt64 {
		t.Errorf("poisson at 1e-12 ops/s: gap %d, want the largest Duration", d)
	}
	for _, ns := range []float64{0x1p63, 1e30, math.Inf(1)} {
		if d := clampInterval(ns); d != math.MaxInt64 {
			t.Errorf("clampInterval(%g) = %d, want the largest Duration", ns, d)
		}
	}
	if d := clampInterval(0x1p63 - 1024); d != math.MaxInt64-1023 {
		t.Errorf("clampInterval of the largest float64 below 2^63 = %d", d)
	}
	tr, err := Generate([]Spec{{Name: "idle", RateOPS: 1e-12, Objects: []string{"o"}, Fn: 1}}, 1, simtime.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) != 0 {
		t.Errorf("a 1e-12 ops/s tenant generated %d events in 1 µs", len(tr.Events))
	}
	var ds draws
	ds.drawStream(&Spec{Objects: []string{"o"}}, &gapList{5, math.MaxInt64}, nil, math.MaxInt64)
	if ds.n != 1 || ds.at(0).at != 5 {
		t.Errorf("a saturated gap after an arrival at 5 ns drew %d arrivals, want the one at 5 ns", ds.n)
	}
}

// TestWorkloadMMPPRefusesSwitchStorm: NextInterval loops once per state
// switch, so NewMMPP and spec parsing refuse a process expected to
// switch state more than maxSwitchesPerArrival times per arrival, 2 /
// (calm rate · calm dwell + burst rate · burst dwell), before anything
// draws from it.
func TestWorkloadMMPPRefusesSwitchStorm(t *testing.T) {
	us := simtime.Microsecond
	if _, err := NewMMPP(1, 0.01, 0.01, us, us); err == nil {
		t.Error("0.01 ops/s with 1 µs dwells accepted")
	}
	// At 1,000 ops/s in both states, 1 µs dwells switch exactly 1,000
	// times per arrival.
	if _, err := NewMMPP(1, 1000, 1000, us, us); err != nil {
		t.Errorf("1,000 switches per arrival refused: %v", err)
	}
	if _, err := NewMMPP(1, 999, 999, us, us); err == nil {
		t.Error("1,001 switches per arrival accepted")
	}
	in := "tenant a:\nrate: 0.01\narrival: mmpp\nburst_rate: 0.01\ncalm_dwell_us: 1\nburst_dwell_us: 1\nobjects: o\n"
	if _, err := ParseSpecs(strings.NewReader(in)); err == nil {
		t.Error("spec switching 1e8 times per arrival parsed")
	}
	// The defaults (8x burst rate, 100/25 µs dwells) at 1 ops/s switch
	// about 6,700 times per arrival.
	if _, err := ParseSpecs(strings.NewReader("tenant a:\nrate: 1\narrival: mmpp\nobjects: o\n")); err == nil {
		t.Error("default-dwell spec at 1 ops/s parsed")
	}
}
