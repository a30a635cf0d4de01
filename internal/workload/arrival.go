package workload

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/elisa-go/elisa/internal/simtime"
)

// Arrival is an open-loop arrival process: a seeded, deterministic stream
// of inter-arrival gaps in simulated time. Poisson, MMPP, and Diurnal all
// implement it, and fleet.TenantSpec accepts any implementation, so the
// same scheduler runs steady, bursty, and time-of-day-shaped traffic.
type Arrival interface {
	// NextInterval returns the gap to the next arrival (always >= 1 ns).
	NextInterval() simtime.Duration
}

// clampInterval rounds a floating-point gap in nanoseconds to the >= 1 ns
// integer grid every arrival process emits on. A gap no Duration holds
// (a rate below about 1e-10 ops/s) saturates at the largest one instead
// of wrapping negative and clamping to 1 ns.
func clampInterval(ns float64) simtime.Duration {
	r := math.Round(ns)
	if r >= math.MaxInt64 { // the constant rounds to 2^63, the first gap too large
		return math.MaxInt64
	}
	return max(simtime.Duration(r), 1)
}

// finite reports whether f is a number other than ±Inf: a NaN rate
// passes every `<= 0` check and turns each gap into the 1 ns floor.
func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// MMPP is a 2-state Markov-modulated Poisson process — the standard
// bursty-traffic model: a calm state and a burst state, each an
// exponential dwell, each emitting Poisson arrivals at its own rate.
// Aggregated microservice RPC traffic is far burstier than Poisson, and
// the overload plane behaves differently when saturation comes in storms;
// MMPP is the cheapest process that exposes that.
type MMPP struct {
	rng   *rand.Rand
	mean  [2]float64 // mean inter-arrival per state [ns]
	dwell [2]float64 // mean dwell per state [ns]
	state int        // 0 = calm, 1 = burst
	left  float64    // residual dwell in the current state [ns]
}

// maxSwitchesPerArrival bounds an MMPP's expected state switches per
// arrival. NextInterval draws once per switch, so a process whose dwells
// are far shorter than its gaps would spin for seconds of host time per
// call.
const maxSwitchesPerArrival = 1000

// NewMMPP returns a 2-state MMPP: calmOPS and burstOPS are the per-state
// arrival rates (ops per simulated second), calmDwell and burstDwell the
// mean state-residency times. The long-run mean rate is the dwell-weighted
// average (calmOPS*calmDwell + burstOPS*burstDwell) / (calmDwell+burstDwell).
func NewMMPP(seed int64, calmOPS, burstOPS float64, calmDwell, burstDwell simtime.Duration) (*MMPP, error) {
	if !finite(calmOPS) || !finite(burstOPS) || calmOPS <= 0 || burstOPS <= 0 {
		return nil, fmt.Errorf("workload: mmpp rates %v/%v must be positive and finite", calmOPS, burstOPS)
	}
	if calmDwell <= 0 || burstDwell <= 0 {
		return nil, fmt.Errorf("workload: mmpp dwells %v/%v must be positive", calmDwell, burstDwell)
	}
	// A calm and a burst dwell make two switches per cycle, and a cycle
	// holds calmOPS·calmDwell + burstOPS·burstDwell arrivals on average.
	if sw := 2e9 / (calmOPS*float64(calmDwell) + burstOPS*float64(burstDwell)); sw > maxSwitchesPerArrival {
		return nil, fmt.Errorf("workload: mmpp dwells %v/%v switch state %.3g times per arrival at rates %v/%v ops/s, over %d",
			calmDwell, burstDwell, sw, calmOPS, burstOPS, maxSwitchesPerArrival)
	}
	m := &MMPP{
		rng:   rand.New(rand.NewSource(seed)),
		mean:  [2]float64{1e9 / calmOPS, 1e9 / burstOPS},
		dwell: [2]float64{float64(calmDwell), float64(burstDwell)},
	}
	m.left = m.rng.ExpFloat64() * m.dwell[0]
	return m, nil
}

// MeanOPS returns the process's long-run mean rate in ops per simulated
// second (the dwell-weighted average of the two state rates).
func (m *MMPP) MeanOPS() float64 {
	d0, d1 := m.dwell[0], m.dwell[1]
	return (1e9/m.mean[0]*d0 + 1e9/m.mean[1]*d1) / (d0 + d1)
}

// NextInterval returns the next inter-arrival gap. State switches are
// memoryless, so a gap drawn past the residual dwell is discarded and
// redrawn at the new state's rate (the exponential's lack of memory makes
// this exact, not an approximation).
func (m *MMPP) NextInterval() simtime.Duration {
	var total float64
	for {
		gap := m.rng.ExpFloat64() * m.mean[m.state]
		if gap <= m.left {
			m.left -= gap
			return clampInterval(total + gap)
		}
		total += m.left
		m.state = 1 - m.state
		m.left = m.rng.ExpFloat64() * m.dwell[m.state]
	}
}

// Diurnal is a sinusoid-modulated Poisson process — the time-of-day shape
// of user-facing traffic compressed onto a simulated-time period. The
// instantaneous rate is baseOPS*(1 + amp*sin(2πt/period)), generated by
// Lewis–Shedler thinning against the peak rate, so the long-run mean over
// whole periods is exactly baseOPS.
type Diurnal struct {
	rng     *rand.Rand
	base    float64 // mean rate [ops/s]
	amp     float64 // modulation depth in [0,1)
	period  float64 // [ns]
	t       float64 // elapsed process time [ns]
	peakGap float64 // mean inter-candidate gap at the peak rate [ns]
}

// NewDiurnal returns a diurnal process with mean baseOPS, modulation
// depth amp in [0,1) (0 degenerates to Poisson), and the given period.
func NewDiurnal(seed int64, baseOPS, amp float64, period simtime.Duration) (*Diurnal, error) {
	if !finite(baseOPS) || baseOPS <= 0 {
		return nil, fmt.Errorf("workload: diurnal rate %v must be positive and finite", baseOPS)
	}
	if !finite(amp) || amp < 0 || amp >= 1 {
		return nil, fmt.Errorf("workload: diurnal amplitude %v outside [0,1)", amp)
	}
	if period <= 0 {
		return nil, fmt.Errorf("workload: diurnal period %v must be positive", period)
	}
	return &Diurnal{
		rng:     rand.New(rand.NewSource(seed)),
		base:    baseOPS,
		amp:     amp,
		period:  float64(period),
		peakGap: 1e9 / (baseOPS * (1 + amp)),
	}, nil
}

// NextInterval returns the next inter-arrival gap by thinning: candidate
// arrivals are drawn at the peak rate and accepted with probability
// rate(t)/peak, so acceptance is exact for the time-varying intensity.
func (d *Diurnal) NextInterval() simtime.Duration {
	var total float64
	for {
		gap := d.rng.ExpFloat64() * d.peakGap
		total += gap
		d.t += gap
		rate := d.base * (1 + d.amp*math.Sin(2*math.Pi*d.t/d.period))
		if d.rng.Float64()*(d.base*(1+d.amp)) < rate {
			return clampInterval(total)
		}
	}
}
