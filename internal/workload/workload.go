// Package workload provides the deterministic load generators the
// experiments share: key-popularity distributions (uniform, zipfian),
// packet-size streams, and Poisson arrival processes. Everything is seeded
// explicitly so experiment reruns are bit-identical.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/elisa-go/elisa/internal/simtime"
)

// KeyChooser picks key indices in [0, n).
type KeyChooser interface {
	Next() int
}

// Uniform picks keys uniformly at random.
type Uniform struct {
	rng *rand.Rand
	n   int
}

// NewUniform returns a uniform chooser over [0, n).
func NewUniform(seed int64, n int) (*Uniform, error) {
	if n <= 0 {
		return nil, fmt.Errorf("workload: uniform over %d keys", n)
	}
	return &Uniform{rng: rand.New(rand.NewSource(seed)), n: n}, nil
}

// Next returns the next key index.
func (u *Uniform) Next() int { return u.rng.Intn(u.n) }

// Zipf picks keys with a zipfian popularity skew (the classic KV-store
// workload shape; YCSB uses s≈0.99). Skews in (0,1) use the Gray et al.
// generator ("Quickly Generating Billion-Record Synthetic Databases",
// the YCSB ZipfianGenerator); skews above 1 keep the original math/rand
// path, so existing s=1.01 callers reproduce their historical streams.
//
// The Gray et al. key is k = int(n·b^alpha) with b = eta·u − eta + 1.
// Since k ≥ j exactly when b ≥ (j/n)^(1−s), NewZipf precomputes those
// breakpoints and Next finds k by comparing b against them, with no
// math.Pow. Where b lies within zipfGuard of a breakpoint, the two
// floating-point forms can disagree by a few ULP, so Next evaluates the
// Pow expression itself there: the stream is the Pow expression's, bit
// for bit.
type Zipf struct {
	z *rand.Zipf // s > 1: legacy math/rand path

	// Gray et al. state, 0 < s < 1. The closed-form inverse needs only
	// zeta(n,s) (computed once at construction), so Next is O(1).
	rng   *rand.Rand
	n     float64
	zetan float64 // zeta(n, s) = sum_{i=1..n} 1/i^s
	alpha float64 // 1/(1-s)
	eta   float64 // (1-(2/n)^(1-s)) / (1 - zeta(2,s)/zeta(n,s))
	half  float64 // 0.5^s
	max   int     // n-1, the clamp for floating-point edge cases

	// bp[j] = (j/n)^(1-s) for j in [0, n], so bp[0] = 0 and bp[n] = 1.
	// cell indexes [lo, 1) in len(cell) equal steps, lo = bp[1]: cell[c]
	// is the largest j < n with bp[j] at or below step c's lower edge,
	// where the scan for b's key starts, or'd with zipfClear when no
	// breakpoint comes near the step.
	bp    []float64
	cell  []uint32
	lo    float64
	scale float64 // steps per unit of b above lo
}

// zipfGuard is the relative distance from a breakpoint inside which
// Zipf recomputes a key with math.Pow. The Pow expression and the
// breakpoints are each within a few ULP (about 1e-15) of exact; the
// guard keeps the table well clear of both.
const zipfGuard = 1e-9

// zipfCellsPerKey sizes the breakpoint index: b is uniform over about
// the breakpoints' span, so at most about 1/zipfCellsPerKey of the draws
// land in a step that holds a breakpoint.
const zipfCellsPerKey = 2

// zipfClear flags a step that lies, with twice zipfGuard to spare,
// between two breakpoints: every b there has the step's key, so the
// draw reads neither the breakpoints nor the guard.
const zipfClear = 1 << 31

// NewZipf returns a zipfian chooser over [0, n) with skew s: index 0 is
// the most popular key. Any positive skew except exactly 1 is accepted
// (use 0.99 or 1.01 around the harmonic singularity).
func NewZipf(seed int64, n int, s float64) (*Zipf, error) {
	if n <= 0 {
		return nil, fmt.Errorf("workload: zipf over %d keys", n)
	}
	if !finite(s) || s <= 0 || s == 1 {
		return nil, fmt.Errorf("workload: zipf skew %v must be positive, finite and not exactly 1", s)
	}
	rng := rand.New(rand.NewSource(seed))
	if s > 1 {
		z := rand.NewZipf(rng, s, 1, uint64(n-1))
		if z == nil {
			return nil, fmt.Errorf("workload: invalid zipf parameters (s=%v, n=%d)", s, n)
		}
		return &Zipf{z: z}, nil
	}
	zeta2, zetan := 0.0, 0.0
	for i := 1; i <= n; i++ {
		zetan += 1 / math.Pow(float64(i), s)
		if i == 2 {
			zeta2 = zetan
		}
	}
	if n == 1 {
		zeta2 = zetan // degenerate single-key universe: Next is always 0
	}
	z := &Zipf{
		rng:   rng,
		n:     float64(n),
		zetan: zetan,
		alpha: 1 / (1 - s),
		eta:   (1 - math.Pow(2/float64(n), 1-s)) / (1 - zeta2/zetan),
		half:  math.Pow(0.5, s),
		max:   n - 1,
	}
	z.buildTable(n, s)
	return z, nil
}

// buildTable fills the breakpoints and their step index.
func (z *Zipf) buildTable(n int, s float64) {
	z.bp = make([]float64, n+1)
	for j := 1; j <= n; j++ {
		z.bp[j] = math.Pow(float64(j)/float64(n), 1-s)
	}
	z.lo = z.bp[1]
	z.cell = make([]uint32, zipfCellsPerKey*n)
	if z.lo < 1 {
		z.scale = float64(len(z.cell)) / (1 - z.lo)
	}
	k := 0
	for c := range z.cell {
		edge, next := z.lo+float64(c)/z.scale, z.lo+float64(c+1)/z.scale
		for k+1 < n && z.bp[k+1] <= edge {
			k++
		}
		z.cell[c] = uint32(k)
		if edge > z.bp[k]*(1+2*zipfGuard) && next < z.bp[k+1]*(1-2*zipfGuard) {
			z.cell[c] |= zipfClear
		}
	}
}

// Next returns the next key index.
func (z *Zipf) Next() int {
	if z.z != nil {
		return int(z.z.Uint64())
	}
	return z.at(z.rng.Float64())
}

// at maps one uniform draw u in [0, 1) to a key (s < 1).
func (z *Zipf) at(u float64) int {
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+z.half {
		return 1
	}
	return z.key(z.eta*u - z.eta + 1)
}

// key is the Gray et al. key int(n·b^alpha), clamped to [0, n).
func (z *Zipf) key(b float64) int {
	k, ok := z.fromTable(b)
	if !ok {
		k = int(z.n * math.Pow(b, z.alpha))
	}
	if k < 0 {
		k = 0
	}
	if k > z.max {
		k = z.max
	}
	return k
}

// fromTable returns int(n·b^alpha) from the breakpoints. It reports
// false, leaving the key to math.Pow, when b is outside [0, 1) (NaN
// included) or within zipfGuard of a breakpoint.
func (z *Zipf) fromTable(b float64) (int, bool) {
	if !(b >= 0 && b < 1) {
		return 0, false
	}
	c := int((b - z.lo) * z.scale)
	c = max(0, min(c, len(z.cell)-1))
	e := z.cell[c]
	if e&zipfClear != 0 {
		return int(e &^ zipfClear), true
	}
	k := int(e)
	for b >= z.bp[k+1] { // bp[n] = 1 > b stops the scan
		k++
	}
	for b < z.bp[k] { // bp[0] = 0 <= b stops it
		k--
	}
	if b-z.bp[k] < zipfGuard*z.bp[k] || z.bp[k+1]-b < zipfGuard*z.bp[k+1] {
		return 0, false
	}
	return k, true
}

// Mix flips a weighted coin for read-vs-write style choices.
type Mix struct {
	rng       *rand.Rand
	readRatio float64
}

// NewMix returns a generator where Read() is true with probability
// readRatio.
func NewMix(seed int64, readRatio float64) (*Mix, error) {
	if readRatio < 0 || readRatio > 1 {
		return nil, fmt.Errorf("workload: read ratio %v outside [0,1]", readRatio)
	}
	return &Mix{rng: rand.New(rand.NewSource(seed)), readRatio: readRatio}, nil
}

// Read reports whether the next operation is a read.
func (m *Mix) Read() bool { return m.rng.Float64() < m.readRatio }

// Poisson generates exponentially distributed inter-arrival times for an
// open-loop arrival process with the given mean rate (arrivals/second of
// simulated time).
type Poisson struct {
	rng  *rand.Rand
	mean float64 // mean inter-arrival in ns
}

// NewPoisson returns a Poisson arrival process with ratePerSec arrivals
// per simulated second.
func NewPoisson(seed int64, ratePerSec float64) (*Poisson, error) {
	if !finite(ratePerSec) || ratePerSec <= 0 {
		return nil, fmt.Errorf("workload: poisson rate %v must be positive and finite", ratePerSec)
	}
	return &Poisson{
		rng:  rand.New(rand.NewSource(seed)),
		mean: 1e9 / ratePerSec,
	}, nil
}

// NextInterval returns the next inter-arrival gap.
func (p *Poisson) NextInterval() simtime.Duration {
	return clampInterval(p.rng.ExpFloat64() * p.mean)
}

// PacketSizes is the fixed sweep the paper's networking figures use.
var PacketSizes = []int{64, 128, 256, 512, 1024, 1472}

// FillPattern deterministically fills p so payload corruption is
// detectable: byte i of stream element k is a function of (k, i).
func FillPattern(p []byte, k int) {
	for i := range p {
		p[i] = byte(k*131 + i*7 + 3)
	}
}

// CheckPattern verifies a buffer previously filled with FillPattern.
func CheckPattern(p []byte, k int) bool {
	for i := range p {
		if p[i] != byte(k*131+i*7+3) {
			return false
		}
	}
	return true
}
