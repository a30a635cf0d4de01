// Package stats provides the measurement plumbing of the benchmark
// harness: log-bucketed histograms with percentile queries, throughput
// helpers, and text renderers for the tables and figure-series the
// experiments print.
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"github.com/elisa-go/elisa/internal/simtime"
)

// Histogram is a log-bucketed latency histogram (HDR-style): values are
// bucketed with ~4.6% relative error at the default resolution (16
// sub-buckets per octave), which is plenty for p50/p99 comparisons while
// staying allocation-free per record.
type Histogram struct {
	buckets map[int]int64
	sub     int // sub-buckets per octave (the bucket layout)
	count   int64
	sum     int64
	min     int64
	max     int64
}

const defaultSubBuckets = 16 // per power of two

// NewHistogram returns an empty histogram at the default resolution.
func NewHistogram() *Histogram {
	return NewHistogramRes(defaultSubBuckets)
}

// NewHistogramRes returns an empty histogram with sub sub-buckets per
// octave (minimum 1). Histograms with different resolutions have
// incompatible bucket layouts; Merge rebuckets across them (see Merge).
func NewHistogramRes(sub int) *Histogram {
	if sub < 1 {
		sub = 1
	}
	return &Histogram{buckets: make(map[int]int64), sub: sub, min: math.MaxInt64}
}

// Resolution returns the histogram's sub-buckets per octave.
func (h *Histogram) Resolution() int { return h.sub }

// bucketOf maps a value to its bucket index in h's layout.
func (h *Histogram) bucketOf(v int64) int {
	sub := int64(h.sub)
	if v < sub {
		return int(v) // exact for tiny values
	}
	exp := 63 - int64(bits.LeadingZeros64(uint64(v)))
	// Position within the octave, quantised to sub slots.
	frac := (v - (1 << exp)) * sub >> exp
	return int(exp)*h.sub + int(frac)
}

// bucketLow returns the lower bound of a bucket (its representative
// value) in h's layout.
func (h *Histogram) bucketLow(b int) int64 {
	if b < h.sub {
		return int64(b)
	}
	exp := b / h.sub
	frac := int64(b % h.sub)
	return (1 << exp) + frac<<exp/int64(h.sub)
}

// Record adds one observation (negative values are clamped to zero).
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[h.bucketOf(v)]++
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// RecordDuration adds one simulated-duration observation.
func (h *Histogram) RecordDuration(d simtime.Duration) { h.Record(int64(d)) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count }

// Sum returns the exact sum of all observations.
func (h *Histogram) Sum() int64 { return h.sum }

// Mean returns the arithmetic mean, or 0 if empty.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Min returns the smallest observation, or 0 if empty.
func (h *Histogram) Min() int64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest observation.
func (h *Histogram) Max() int64 { return h.max }

// Percentile returns the value at quantile q in [0,1] (e.g. 0.99 for p99).
// The result is the representative (lower-bound) value of the bucket
// containing the quantile.
func (h *Histogram) Percentile(q float64) int64 {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(math.Ceil(q * float64(h.count)))
	if target < 1 {
		target = 1
	}
	keys := make([]int, 0, len(h.buckets))
	for k := range h.buckets {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	var seen int64
	for _, k := range keys {
		seen += h.buckets[k]
		if seen >= target {
			return h.bucketLow(k)
		}
	}
	return h.max
}

// Merge folds other's observations into h. When the two histograms share
// a bucket layout the merge is bucket-wise, so the merged percentiles
// match what recording every sample into h would have given. Layouts
// with different resolutions used to be merged bucket-wise too, silently
// corrupting counts (bucket index i means different values at different
// resolutions); now each of other's buckets is rebucketed through its
// representative value into h's layout instead. A nil or empty other is
// a no-op. The per-guest and per-attachment views of the observability
// layer are built by merging per-function histograms.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || other.count == 0 {
		return
	}
	if other.sub == h.sub {
		for b, n := range other.buckets {
			h.buckets[b] += n
		}
	} else {
		for b, n := range other.buckets {
			h.buckets[h.bucketOf(other.bucketLow(b))] += n
		}
	}
	h.count += other.count
	h.sum += other.sum
	if other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
}

// Clone returns an independent copy of the histogram, preserving its
// bucket layout.
func (h *Histogram) Clone() *Histogram {
	c := NewHistogramRes(h.sub)
	c.Merge(h)
	return c
}

// Reset discards every observation, returning the histogram to its
// freshly-constructed state (the backing bucket map is retained).
func (h *Histogram) Reset() {
	clear(h.buckets)
	h.count = 0
	h.sum = 0
	h.min = math.MaxInt64
	h.max = 0
}

// String summarises the distribution.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%.1f p50=%d p99=%d max=%d",
		h.count, h.Mean(), h.Percentile(0.50), h.Percentile(0.99), h.max)
}

// Throughput converts an operation count over a simulated span into
// operations per second.
func Throughput(ops int64, elapsed simtime.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(ops) / elapsed.Seconds()
}
