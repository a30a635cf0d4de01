package workload

import (
	"math"
	"math/rand"
	"testing"
)

// TestWorkloadZipfGrayShape checks the Gray et al. path against the
// closed-form zipfian pmf at YCSB's s=0.99: the empirical frequency of
// each head rank must sit near 1/(rank+1)^s / zeta(n,s), and popularity
// must fall monotonically down the head.
func TestWorkloadZipfGrayShape(t *testing.T) {
	const (
		n     = 100
		s     = 0.99
		draws = 400_000
	)
	z, err := NewZipf(9, n, s)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		k := z.Next()
		if k < 0 || k >= n {
			t.Fatalf("out of range: %d", k)
		}
		counts[k]++
	}
	var zetan float64
	for i := 1; i <= n; i++ {
		zetan += 1 / math.Pow(float64(i), s)
	}
	for _, rank := range []int{0, 1, 2, 4, 9} {
		want := 1 / math.Pow(float64(rank+1), s) / zetan
		got := float64(counts[rank]) / draws
		if math.Abs(got-want) > 0.15*want {
			t.Errorf("rank %d: empirical %.4f, pmf %.4f (>15%% off)", rank, got, want)
		}
	}
	if !(counts[0] > counts[4] && counts[4] > counts[20] && counts[20] > counts[80]) {
		t.Errorf("popularity not falling down the head: %d/%d/%d/%d",
			counts[0], counts[4], counts[20], counts[80])
	}
}

// TestWorkloadZipfLegacyPathCompat pins the s>1 compatibility contract:
// the old math/rand path still backs skews above 1, so existing s=1.01
// callers reproduce their historical streams bit-for-bit.
func TestWorkloadZipfLegacyPathCompat(t *testing.T) {
	const (
		seed = 77
		n    = 500
		s    = 1.01
	)
	z, err := NewZipf(seed, n, s)
	if err != nil {
		t.Fatalf("s=1.01 must stay accepted: %v", err)
	}
	want := rand.NewZipf(rand.New(rand.NewSource(seed)), s, 1, uint64(n-1))
	for i := 0; i < 10_000; i++ {
		if got, legacy := z.Next(), int(want.Uint64()); got != legacy {
			t.Fatalf("draw %d: %d, legacy math/rand path %d", i, got, legacy)
		}
	}
}

// TestWorkloadZipfDeterminism: same seed, same stream; different seeds
// diverge — on both sides of the s=1 split.
func TestWorkloadZipfDeterminism(t *testing.T) {
	for _, s := range []float64{0.99, 1.2} {
		a, _ := NewZipf(5, 1000, s)
		b, _ := NewZipf(5, 1000, s)
		c, _ := NewZipf(6, 1000, s)
		same, diff := true, false
		for i := 0; i < 2000; i++ {
			av := a.Next()
			if av != b.Next() {
				same = false
			}
			if av != c.Next() {
				diff = true
			}
		}
		if !same {
			t.Errorf("s=%v: same-seed streams diverged", s)
		}
		if !diff {
			t.Errorf("s=%v: different seeds produced identical streams", s)
		}
	}
}

// TestWorkloadZipfSingleKey: the degenerate one-key universe always
// returns 0 and never divides by zero.
func TestWorkloadZipfSingleKey(t *testing.T) {
	z, err := NewZipf(3, 1, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if k := z.Next(); k != 0 {
			t.Fatalf("single-key zipf returned %d", k)
		}
	}
}

// refAt is the Gray et al. draw as Zipf computed it before the
// breakpoint table: the reference the table must reproduce bit for bit.
func refAt(z *Zipf, u float64) int {
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+z.half {
		return 1
	}
	return refKey(z, z.eta*u-z.eta+1)
}

// refKey is refAt's key expression for a given b.
func refKey(z *Zipf, b float64) int {
	k := int(z.n * math.Pow(b, z.alpha))
	if k < 0 {
		k = 0
	}
	if k > z.max {
		k = z.max
	}
	return k
}

// zipfGrid is the (n, s) grid the table is checked on: single-, two- and
// three-key universes, kv_ycsb's 4096 keys, and skews from mild to the
// edge of the harmonic singularity.
var (
	zipfGridN = []int{1, 2, 3, 16, 1024, 4096, 100000}
	zipfGridS = []float64{0.2, 0.5, 0.9, 0.99, 0.999}
)

// TestWorkloadZipfTableMatchesPow draws 2·10^7 keys across the grid and
// checks each against the math.Pow expression on the same uniform draw.
func TestWorkloadZipfTableMatchesPow(t *testing.T) {
	const total = 20_000_000
	per := total / (len(zipfGridN) * len(zipfGridS))
	for _, n := range zipfGridN {
		for _, s := range zipfGridS {
			z, err := NewZipf(1, n, s)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(n) ^ int64(s*1e6)))
			for i := 0; i < per; i++ {
				u := rng.Float64()
				if got, want := z.at(u), refAt(z, u); got != want {
					t.Fatalf("n=%d s=%v u=%v: table %d, math.Pow %d", n, s, u, got, want)
				}
			}
		}
	}
}

// TestWorkloadZipfTableAtBreakpoints checks every breakpoint of the
// grid's n ≤ 20,000 choosers at ±64 ULP, where the table's comparison
// and the Pow expression round differently; the guard must send each of
// these b to math.Pow.
func TestWorkloadZipfTableAtBreakpoints(t *testing.T) {
	for _, n := range zipfGridN {
		if n > 20_000 {
			continue
		}
		for _, s := range zipfGridS {
			z, err := NewZipf(1, n, s)
			if err != nil {
				t.Fatal(err)
			}
			for j := 1; j <= n; j++ {
				lo, hi := z.bp[j], z.bp[j]
				for i := 0; i <= 64; i++ {
					for _, b := range []float64{lo, hi} {
						if got, want := z.key(b), refKey(z, b); got != want {
							t.Fatalf("n=%d s=%v breakpoint %d, b=%v: table %d, math.Pow %d", n, s, j, b, got, want)
						}
					}
					lo, hi = math.Nextafter(lo, 0), math.Nextafter(hi, 2)
				}
			}
		}
	}
}

// FuzzZipf checks the table draw against the math.Pow expression for
// arbitrary (n, s, u). n is folded into [1, 65536], s into (0, 1) and u
// into [0, 1).
func FuzzZipf(f *testing.F) {
	f.Add(uint16(4095), 0.99, 0.5)
	f.Add(uint16(4095), 0.2, 0.9993)
	f.Add(uint16(0), 0.5, 0.25)
	f.Add(uint16(2), 0.999, 0.999999)
	f.Fuzz(func(t *testing.T, n16 uint16, s, u float64) {
		n := int(n16) + 1
		s = math.Abs(s - math.Trunc(s))
		u = math.Abs(u - math.Trunc(u))
		if math.IsNaN(s) || s == 0 || math.IsNaN(u) {
			return
		}
		z, err := NewZipf(1, n, s)
		if err != nil {
			t.Fatalf("NewZipf(%d, %v): %v", n, s, err)
		}
		if got, want := z.at(u), refAt(z, u); got != want {
			t.Fatalf("n=%d s=%v u=%v: table %d, math.Pow %d", n, s, u, got, want)
		}
		b := z.eta*u - z.eta + 1
		if got, want := z.key(b), refKey(z, b); got != want {
			t.Fatalf("n=%d s=%v b=%v: table %d, math.Pow %d", n, s, b, got, want)
		}
	})
}
