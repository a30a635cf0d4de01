package stats

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"github.com/elisa-go/elisa/internal/simtime"
)

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 || h.Percentile(0.99) != 0 {
		t.Fatalf("empty histogram not all-zero: %s", h)
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	for _, v := range []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10} {
		h.Record(v)
	}
	if h.Count() != 10 || h.Min() != 1 || h.Max() != 10 {
		t.Fatalf("count/min/max: %d %d %d", h.Count(), h.Min(), h.Max())
	}
	if m := h.Mean(); m != 5.5 {
		t.Fatalf("mean = %v", m)
	}
	if p := h.Percentile(0.5); p != 5 {
		t.Fatalf("p50 = %d", p)
	}
	if p := h.Percentile(1.0); p != 10 {
		t.Fatalf("p100 = %d", p)
	}
	if p := h.Percentile(0.0); p != 1 {
		t.Fatalf("p0 = %d", p)
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	h := NewHistogram()
	h.Record(-5)
	if h.Min() != 0 {
		t.Fatalf("min = %d", h.Min())
	}
}

func TestHistogramRelativeError(t *testing.T) {
	// The log bucketing must keep relative error under ~7% for large
	// values — enough to distinguish the paper's latency curves.
	h := NewHistogram()
	const v = 123456
	h.Record(v)
	got := h.Percentile(0.99)
	relErr := float64(v-got) / float64(v)
	if relErr < 0 || relErr > 0.07 {
		t.Fatalf("p99 of single value %d = %d (rel err %.3f)", v, got, relErr)
	}
}

func TestHistogramDurationAndString(t *testing.T) {
	h := NewHistogram()
	h.RecordDuration(simtime.Duration(196))
	if h.Count() != 1 {
		t.Fatal("RecordDuration did not record")
	}
	if s := h.String(); !strings.Contains(s, "n=1") {
		t.Fatalf("String() = %q", s)
	}
}

// Property: percentiles are monotonically non-decreasing in q and bounded
// by [roughly min, max].
func TestPercentileMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := NewHistogram()
	for i := 0; i < 5000; i++ {
		h.Record(rng.Int63n(1_000_000))
	}
	f := func(a, b float64) bool {
		qa, qb := abs01(a), abs01(b)
		if qa > qb {
			qa, qb = qb, qa
		}
		return h.Percentile(qa) <= h.Percentile(qb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	if h.Percentile(1.0) > h.Max() {
		t.Fatal("p100 above max")
	}
}

func abs01(v float64) float64 {
	if v < 0 {
		v = -v
	}
	for v > 1 {
		v /= 10
	}
	return v
}

// Property: bucketLow(bucketOf(v)) <= v for all positive v, and the bucket
// representative is within 7% below v at the default resolution.
func TestBucketInverse(t *testing.T) {
	h := NewHistogram()
	f := func(raw uint32) bool {
		v := int64(raw)
		low := h.bucketLow(h.bucketOf(v))
		if low > v {
			return false
		}
		if v >= int64(h.Resolution()) {
			return float64(v-low)/float64(v) <= 0.07
		}
		return low == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	for v := int64(1); v <= 100; v++ {
		a.Record(v)
	}
	for v := int64(101); v <= 200; v++ {
		b.Record(v)
	}
	a.Merge(b)
	if a.Count() != 200 || a.Min() != 1 || a.Max() != 200 {
		t.Fatalf("merged count/min/max: %d %d %d", a.Count(), a.Min(), a.Max())
	}
	if m := a.Mean(); m != 100.5 {
		t.Fatalf("merged mean = %v", m)
	}
	// Merged percentiles must equal recording everything into one
	// histogram directly.
	direct := NewHistogram()
	for v := int64(1); v <= 200; v++ {
		direct.Record(v)
	}
	for _, q := range []float64{0, 0.5, 0.9, 0.99, 1} {
		if a.Percentile(q) != direct.Percentile(q) {
			t.Fatalf("p%v: merged %d != direct %d", q*100, a.Percentile(q), direct.Percentile(q))
		}
	}
	// b is untouched by the merge.
	if b.Count() != 100 || b.Min() != 101 {
		t.Fatalf("source mutated: %s", b)
	}
}

func TestHistogramMergeEmptyAndNil(t *testing.T) {
	h := NewHistogram()
	h.Record(7)
	h.Merge(nil)
	h.Merge(NewHistogram())
	if h.Count() != 1 || h.Min() != 7 || h.Max() != 7 {
		t.Fatalf("no-op merges changed state: %s", h)
	}
	empty := NewHistogram()
	empty.Merge(h)
	if empty.Count() != 1 || empty.Min() != 7 {
		t.Fatalf("merge into empty: %s", empty)
	}
}

// TestHistogramMergeMismatchedLayouts is the regression test for the
// silent-corruption bug: merging histograms with different bucket
// resolutions used to add counts bucket-index-wise, attributing other's
// samples to wildly wrong values in h. Merge must rebucket instead, so
// count/sum/min/max stay exact and percentiles stay within the coarser
// layout's quantisation error.
func TestHistogramMergeMismatchedLayouts(t *testing.T) {
	coarse := NewHistogramRes(4)
	fine := NewHistogram() // 16 sub-buckets per octave
	for v := int64(1); v <= 1000; v++ {
		fine.Record(v)
	}
	coarse.Record(5000)
	coarse.Merge(fine)
	if coarse.Count() != 1001 || coarse.Min() != 1 || coarse.Max() != 5000 {
		t.Fatalf("merged count/min/max: %d %d %d", coarse.Count(), coarse.Min(), coarse.Max())
	}
	wantSum := int64(5000) + 1000*1001/2
	if coarse.Sum() != wantSum {
		t.Fatalf("merged sum = %d, want %d", coarse.Sum(), wantSum)
	}
	// The p50 of 1..1000 plus one outlier is ~500; at 4 sub-buckets per
	// octave the bucket representative may sit up to ~20% low, where the
	// index-wise merge bug put it off by orders of magnitude.
	if p := coarse.Percentile(0.5); p < 400 || p > 500 {
		t.Fatalf("merged p50 = %d, want ~500 within coarse quantisation", p)
	}
	// Merging the other direction (coarse into fine) rebuckets too.
	fine2 := NewHistogram()
	fine2.Merge(coarse)
	if fine2.Count() != 1001 || fine2.Max() != 5000 {
		t.Fatalf("fine-ward merge count/max: %d %d", fine2.Count(), fine2.Max())
	}
	if p := fine2.Percentile(1); p < 4000 {
		t.Fatalf("fine-ward merge lost the outlier: p100 = %d", p)
	}
}

// Clone must preserve a non-default bucket layout, not coerce it to the
// default one (which would corrupt any later bucket-wise merge back).
func TestHistogramCloneKeepsResolution(t *testing.T) {
	h := NewHistogramRes(4)
	for v := int64(1); v <= 300; v++ {
		h.Record(v)
	}
	c := h.Clone()
	if c.Resolution() != 4 {
		t.Fatalf("clone resolution = %d, want 4", c.Resolution())
	}
	for _, q := range []float64{0.5, 0.99} {
		if c.Percentile(q) != h.Percentile(q) {
			t.Fatalf("p%v: clone %d != original %d", q*100, c.Percentile(q), h.Percentile(q))
		}
	}
}

func TestHistogramClone(t *testing.T) {
	h := NewHistogram()
	h.Record(5)
	c := h.Clone()
	c.Record(100)
	if h.Count() != 1 || c.Count() != 2 || h.Max() != 5 {
		t.Fatalf("clone not independent: h=%s c=%s", h, c)
	}
}

func TestHistogramReset(t *testing.T) {
	h := NewHistogram()
	for v := int64(0); v < 50; v++ {
		h.Record(v)
	}
	h.Reset()
	if h.Count() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 || h.Percentile(0.99) != 0 {
		t.Fatalf("reset histogram not empty: %s", h)
	}
	h.Record(3)
	if h.Count() != 1 || h.Min() != 3 || h.Max() != 3 {
		t.Fatalf("record after reset: %s", h)
	}
}

func TestThroughput(t *testing.T) {
	if got := Throughput(1000, simtime.Second); got != 1000 {
		t.Fatalf("1000 ops / 1s = %v", got)
	}
	if got := Throughput(500, simtime.Millisecond); got != 500_000 {
		t.Fatalf("500 ops / 1ms = %v", got)
	}
	if got := Throughput(5, 0); got != 0 {
		t.Fatalf("zero elapsed = %v", got)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Table 2: context round-trip", "Description", "Time [ns]")
	tb.AddRow("ELISA", 196)
	tb.AddRow("VMCALL", 699)
	tb.AddNote("ratio %.1fx", 699.0/196.0)
	out := tb.String()
	for _, want := range []string{"Table 2", "ELISA", "699", "ratio 3.6x", "---"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
	md := tb.Markdown()
	for _, want := range []string{"### Table 2", "| ELISA | 196 |", "| --- | --- |"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q:\n%s", want, md)
		}
	}
}

func TestTableFloatFormatting(t *testing.T) {
	tb := NewTable("t", "a")
	tb.AddRow(0.0)
	tb.AddRow(0.1234)
	tb.AddRow(3.14159)
	tb.AddRow(1234.6)
	want := []string{"0", "0.1234", "3.14", "1235"}
	for i, w := range want {
		if tb.Rows[i][0] != w {
			t.Errorf("row %d = %q, want %q", i, tb.Rows[i][0], w)
		}
	}
}

// loopLeadingZeros is the 64-iteration bit loop bucketOf used before it
// moved to math/bits: the reference TestBucketOfLeadingZeros checks the
// bucket layout against.
func loopLeadingZeros(v uint64) int {
	n := 0
	for i := 63; i >= 0; i-- {
		if v&(1<<uint(i)) != 0 {
			return n
		}
		n++
	}
	return 64
}

// loopBucketOf is bucketOf with the loop's leading-zero count.
func loopBucketOf(h *Histogram, v int64) int {
	sub := int64(h.sub)
	if v < sub {
		return int(v)
	}
	exp := 63 - int64(loopLeadingZeros(uint64(v)))
	frac := (v - (1 << exp)) * sub >> exp
	return int(exp)*h.sub + int(frac)
}

// TestBucketOfLeadingZeros: bucketOf puts 0, 1, every 2^k-1 and 2^k, and
// MaxInt64 in the same bucket as the bit loop did, at the default and a
// coarse resolution, so no recorded histogram moves.
func TestBucketOfLeadingZeros(t *testing.T) {
	vals := []int64{0, 1, math.MaxInt64}
	for k := 1; k < 63; k++ {
		vals = append(vals, 1<<k-1, 1<<k)
	}
	for _, h := range []*Histogram{NewHistogram(), NewHistogramRes(1), NewHistogramRes(3)} {
		for _, v := range vals {
			if got, want := h.bucketOf(v), loopBucketOf(h, v); got != want {
				t.Errorf("res %d: bucketOf(%d) = %d, bit loop gives %d", h.sub, v, got, want)
			}
		}
	}
}
