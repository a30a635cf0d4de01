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

// Config configures a Recorder. cluster.New, which builds every
// recorder a System uses, refuses negative values.
type Config struct {
	// SpanRing is the span-ring capacity (0 picks DefaultSpanRing).
	SpanRing int
	// SampleEvery keeps 1 of every N spans in the ring (0 picks
	// DefaultSampleEvery; 1 records every span).
	SampleEvery int
	// CausalEvents is the causal-event ring capacity (0 picks
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
	hists       map[Key]*Series
	ringBatches map[RingKey]*Series
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
		hists:       make(map[Key]*Series),
		ringBatches: make(map[RingKey]*Series),
		causal:      NewCausalLog(cfg.CausalEvents),
	}
}

// Causal returns the recorder's causal-event log. A nil recorder
// returns a nil log, which itself discards everything, so call sites
// can chain r.Causal().Emit(...) unconditionally, with ids from the
// log's Subject and Note.
func (r *Recorder) Causal() *CausalLog {
	if r == nil {
		return nil
	}
	return r.causal
}

// Series is a handle on one of a Recorder's histograms: a latency
// series or a ring-batch series. An emitter resolves it once (Latency,
// RingBatch) and records through it with no key lookup. The recorder
// keeps one Series per key for its life, so resolving a key again
// returns the same handle and allocates nothing. A nil *Series discards
// everything. Like all recording it charges nothing.
type Series struct {
	r *Recorder
	h *stats.Histogram
}

// series returns m's Series for k, creating it on first use. Callers
// hold r.mu.
func series[K comparable](r *Recorder, m map[K]*Series, k K) *Series {
	s, ok := m[k]
	if !ok {
		s = &Series{r: r, h: stats.NewHistogram()}
		m[k] = s
	}
	return s
}

// Record adds one observation.
func (s *Series) Record(v int64) {
	if s == nil {
		return
	}
	s.r.mu.Lock()
	s.h.Record(v)
	s.r.mu.Unlock()
}

// RecordDuration adds one duration observation.
func (s *Series) RecordDuration(d simtime.Duration) { s.Record(int64(d)) }

// RingBatch returns the handle on an attachment's ring-batch series: how
// many descriptors one drain (gate flush or manager poller pass)
// serviced together. A nil recorder returns a nil handle.
func (r *Recorder) RingBatch(guest, object string) *Series {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return series(r, r.ringBatches, RingKey{guest, object})
}

// RingBatchKeys returns the keys of the ring-batch series recorded into
// since the last Reset, sorted by guest then object.
func (r *Recorder) RingBatchKeys() []RingKey {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]RingKey, 0, len(r.ringBatches))
	for k, s := range r.ringBatches {
		if s.h.Count() > 0 {
			out = append(out, k)
		}
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
	if s, ok := r.ringBatches[k]; ok {
		return s.h.Clone()
	}
	return stats.NewHistogram()
}

// Record offers one completed span: it assigns the span's Seq, counts it,
// and keeps it in the ring if the sampling counter selects it. It feeds no
// latency histogram. Histograms take one Latency series sample per request
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

// Latency returns the handle on one latency series. Histograms take one
// sample per request that ran (see Record). A nil recorder returns a nil
// handle.
func (r *Recorder) Latency(guest, object string, fn uint64) *Series {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return series(r, r.hists, Key{guest, object, fn})
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

// Keys returns the keys of the latency series recorded into since the
// last Reset, sorted by guest, object, then function id.
func (r *Recorder) Keys() []Key {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Key, 0, len(r.hists))
	for k, s := range r.hists {
		if s.h.Count() > 0 {
			out = append(out, k)
		}
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
	if s, ok := r.hists[k]; ok {
		return s.h.Clone()
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
	for k, s := range r.hists {
		if match(k) {
			out.Merge(s.h)
		}
	}
	return out
}

// Reset discards all spans and histograms (counters included), as an
// operator would between measurement windows. Histograms are emptied in
// place, so Series handles stay valid.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ring = r.ring[:0]
	r.start, r.count = 0, 0
	r.seen, r.sampled = 0, 0
	for _, s := range r.hists {
		s.h.Reset()
	}
	for _, s := range r.ringBatches {
		s.h.Reset()
	}
	r.causal.Reset()
}
