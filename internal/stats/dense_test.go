package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// mapHist is the map-backed histogram the dense bucket slice replaced,
// kept as the reference: the same bucket layout (bucketOf/bucketLow of a
// Histogram at the same resolution), counts keyed by bucket index.
type mapHist struct {
	layout  *Histogram // bucket arithmetic only
	buckets map[int]int64
	count   int64
}

func newMapHist(sub int) *mapHist {
	return &mapHist{layout: NewHistogramRes(sub), buckets: map[int]int64{}}
}

func (r *mapHist) record(v int64) {
	if v < 0 {
		v = 0
	}
	r.buckets[r.layout.bucketOf(v)]++
	r.count++
}

func (r *mapHist) merge(o *mapHist) {
	for b, n := range o.buckets {
		if o.layout.sub != r.layout.sub {
			b = r.layout.bucketOf(o.layout.bucketLow(b))
		}
		r.buckets[b] += n
	}
	r.count += o.count
}

func (r *mapHist) percentile(q float64, hmax int64) int64 {
	if r.count == 0 {
		return 0
	}
	q = math.Min(math.Max(q, 0), 1)
	target := max(int64(math.Ceil(q*float64(r.count))), 1)
	keys := make([]int, 0, len(r.buckets))
	for k := range r.buckets {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	var seen int64
	for _, k := range keys {
		seen += r.buckets[k]
		if seen >= target {
			return r.layout.bucketLow(k)
		}
	}
	return hmax
}

// spread draws values over many octaves, tiny values and the int64
// extremes included.
func spread(rng *rand.Rand) int64 {
	switch rng.Intn(20) {
	case 0:
		return math.MaxInt64 - rng.Int63n(1000)
	case 1:
		return -rng.Int63n(10) // clamped to 0
	case 2:
		return rng.Int63n(20)
	}
	return rng.Int63n(1 << uint(rng.Intn(63)))
}

var denseQs = []float64{-1, 0, 0.001, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1, 2}

func checkAgainst(t *testing.T, what string, h *Histogram, r *mapHist) {
	t.Helper()
	if h.Count() != r.count {
		t.Fatalf("%s: count %d, reference %d", what, h.Count(), r.count)
	}
	for _, q := range denseQs {
		if got, want := h.Percentile(q), r.percentile(q, h.Max()); got != want {
			t.Fatalf("%s: p%v = %d, reference %d", what, q, got, want)
		}
	}
}

// TestHistogramDenseMatchesMapReference: Percentile, Merge at the same
// and at mixed resolutions, and Reset give what the map layout gave.
func TestHistogramDenseMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, sub := range []int{1, 3, 4, 16, 32} {
		h, r := NewHistogramRes(sub), newMapHist(sub)
		for round := 0; round < 3; round++ {
			for i := 0; i < 2000; i++ {
				v := spread(rng)
				h.Record(v)
				r.record(v)
			}
			checkAgainst(t, "record", h, r)
			for _, osub := range []int{sub, 16, 5} {
				oh, or := NewHistogramRes(osub), newMapHist(osub)
				for i := 0; i < 500; i++ {
					v := spread(rng)
					oh.Record(v)
					or.record(v)
				}
				h.Merge(oh)
				r.merge(or)
				checkAgainst(t, "merge", h, r)
				checkAgainst(t, "clone", h.Clone(), r)
			}
			h.Reset()
			r = newMapHist(sub)
			checkAgainst(t, "reset", h, r)
		}
	}
}

// TestHistogramZeroAllocRecord: a warm histogram records, at any value,
// with no allocation, and a fresh one allocates its buckets exactly once.
func TestHistogramZeroAllocRecord(t *testing.T) {
	h := NewHistogram()
	h.Record(1)
	v := int64(1)
	if n := testing.AllocsPerRun(1000, func() {
		h.Record(v)
		v = v*7 + 3
		if v < 0 {
			v = -v
		}
	}); n != 0 {
		t.Fatalf("warm Record allocates %.1f per call", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		f := NewHistogram()
		for _, x := range []int64{0, 1, 1 << 20, 1 << 40, math.MaxInt64} {
			f.Record(x)
		}
	}); n != 1 {
		t.Fatalf("a fresh histogram's five records make %.1f allocations, want 1 (the buckets)", n)
	}
}
