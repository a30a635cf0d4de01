package obs

import (
	"sort"
	"sync"

	"github.com/elisa-go/elisa/internal/simtime"
	"github.com/elisa-go/elisa/internal/stats"
)

// Defaults for Config zero values.
const (
	// DefaultSpanRing is the default span-ring capacity.
	DefaultSpanRing = 4096
	// DefaultSampleEvery is the default span sampling rate: one span in
	// every N offered is retained in the ring. Histograms see every call
	// regardless — sampling bounds only the detailed per-call records.
	DefaultSampleEvery = 16
)

// Config configures a Recorder.
type Config struct {
	// SpanRing is the span-ring capacity (<=0 picks DefaultSpanRing).
	SpanRing int
	// SampleEvery keeps 1 of every N spans in the ring (<=0 picks
	// DefaultSampleEvery; 1 records every span).
	SampleEvery int
	// CausalEvents is the causal-event ring capacity (<=0 picks
	// DefaultCausalEvents). Unlike spans, causal events are never
	// sampled — the chain would be useless with holes — only evicted
	// oldest-first once the ring is full.
	CausalEvents int
}

// Key identifies one latency series: a (guest, object, function) triple.
type Key struct {
	Guest  string
	Object string
	Fn     uint64
}

// Recorder is the fast-path flight recorder. A nil *Recorder is valid and
// discards everything, so the call path never needs nil checks beyond one
// pointer comparison — that single comparison is the whole cost of
// observability when it is switched off.
//
// Recorder is safe for concurrent use: the simulated machine is
// single-threaded per vCPU, but harnesses (and elisa-top) may drive
// several guests or poll snapshots from other goroutines.
type Recorder struct {
	mu          sync.Mutex
	sampleEvery uint64
	ring        []Span // fixed capacity, allocation-free after warm-up
	start       int    // ring head when full
	count       int    // retained spans
	seen        uint64 // spans offered (every call)
	sampled     uint64 // spans placed in the ring
	hists       map[Key]*stats.Histogram
	ringBatches map[RingKey]*stats.Histogram
	causal      *CausalLog
}

// RingKey identifies one ring-batch series: the (guest, object)
// attachment whose call ring was drained.
type RingKey struct {
	Guest  string
	Object string
}

// NewRecorder creates a recorder with the given config.
func NewRecorder(cfg Config) *Recorder {
	if cfg.SpanRing <= 0 {
		cfg.SpanRing = DefaultSpanRing
	}
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = DefaultSampleEvery
	}
	return &Recorder{
		sampleEvery: uint64(cfg.SampleEvery),
		ring:        make([]Span, 0, cfg.SpanRing),
		hists:       make(map[Key]*stats.Histogram),
		ringBatches: make(map[RingKey]*stats.Histogram),
		causal:      NewCausalLog(cfg.CausalEvents),
	}
}

// Causal returns the recorder's causal-event log. A nil recorder
// returns a nil log, which itself discards everything, so call sites
// can chain r.Causal().Event(...) unconditionally.
func (r *Recorder) Causal() *CausalLog {
	if r == nil {
		return nil
	}
	return r.causal
}

// RecordRingBatch adds one batch-size observation for an attachment's
// call ring: how many descriptors one drain (gate flush or manager
// poller pass) serviced together. Like all recording it charges nothing.
func (r *Recorder) RecordRingBatch(guest, object string, size int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	k := RingKey{guest, object}
	h, ok := r.ringBatches[k]
	if !ok {
		h = stats.NewHistogram()
		r.ringBatches[k] = h
	}
	h.Record(int64(size))
}

// RingBatchKeys returns the ring-batch series keys seen so far, sorted by
// guest then object.
func (r *Recorder) RingBatchKeys() []RingKey {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]RingKey, 0, len(r.ringBatches))
	for k := range r.ringBatches {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Guest != out[j].Guest {
			return out[i].Guest < out[j].Guest
		}
		return out[i].Object < out[j].Object
	})
	return out
}

// RingBatchHistogram returns an independent snapshot of one ring-batch
// series, or an empty histogram if the key has never been recorded.
func (r *Recorder) RingBatchHistogram(k RingKey) *stats.Histogram {
	if r == nil {
		return stats.NewHistogram()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.ringBatches[k]; ok {
		return h.Clone()
	}
	return stats.NewHistogram()
}

// Record offers one completed span: it assigns the span's Seq, counts it,
// and keeps it in the ring if the sampling counter selects it. It feeds no
// latency histogram. Histograms take one RecordLatency sample per request
// that ran: a Call's span total, or each batched request's own service
// time. A span alone cannot tell a one-request batch, or a refused one,
// from a Call, so the caller that stamps it records the samples.
func (r *Recorder) Record(sp Span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	sp.Seq = r.seen
	r.seen++
	if sp.Seq%r.sampleEvery != 0 {
		return
	}
	r.sampled++
	if r.count < cap(r.ring) {
		r.ring = append(r.ring, sp)
		r.count++
		return
	}
	r.ring[r.start] = sp
	r.start = (r.start + 1) % r.count
}

// RecordLatency adds one latency observation to a series without offering
// a span. It is the histograms' only input: one sample per request that
// ran (see Record).
func (r *Recorder) RecordLatency(guest, object string, fn uint64, d simtime.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.histLocked(Key{guest, object, fn}).RecordDuration(d)
}

func (r *Recorder) histLocked(k Key) *stats.Histogram {
	h, ok := r.hists[k]
	if !ok {
		h = stats.NewHistogram()
		r.hists[k] = h
	}
	return h
}

// Spans returns the retained spans, oldest first.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, 0, r.count)
	out = append(out, r.ring[r.start:r.count]...)
	out = append(out, r.ring[:r.start]...)
	return out
}

// SpansSeen reports how many spans were offered to the recorder.
func (r *Recorder) SpansSeen() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seen
}

// SpansSampled reports how many spans passed sampling into the ring
// (including any since evicted by ring wrap).
func (r *Recorder) SpansSampled() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sampled
}

// Keys returns the latency-series keys seen so far, sorted by guest,
// object, then function id.
func (r *Recorder) Keys() []Key {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Key, 0, len(r.hists))
	for k := range r.hists {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Guest != out[j].Guest {
			return out[i].Guest < out[j].Guest
		}
		if out[i].Object != out[j].Object {
			return out[i].Object < out[j].Object
		}
		return out[i].Fn < out[j].Fn
	})
	return out
}

// Histogram returns an independent snapshot of one latency series, or an
// empty histogram if the key has never been recorded.
func (r *Recorder) Histogram(k Key) *stats.Histogram {
	if r == nil {
		return stats.NewHistogram()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[k]; ok {
		return h.Clone()
	}
	return stats.NewHistogram()
}

// AttachmentHistogram merges every function's series for one (guest,
// object) attachment into a single snapshot — the per-tenant p50/p99 an
// operator watches.
func (r *Recorder) AttachmentHistogram(guest, object string) *stats.Histogram {
	return r.merged(func(k Key) bool { return k.Guest == guest && k.Object == object })
}

// GuestHistogram merges every series of one guest across all objects.
func (r *Recorder) GuestHistogram(guest string) *stats.Histogram {
	return r.merged(func(k Key) bool { return k.Guest == guest })
}

func (r *Recorder) merged(match func(Key) bool) *stats.Histogram {
	out := stats.NewHistogram()
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for k, h := range r.hists {
		if match(k) {
			out.Merge(h)
		}
	}
	return out
}

// Reset discards all spans and histograms (counters included), as an
// operator would between measurement windows.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ring = r.ring[:0]
	r.start, r.count = 0, 0
	r.seen, r.sampled = 0, 0
	clear(r.hists)
	clear(r.ringBatches)
	r.causal.Reset()
}
