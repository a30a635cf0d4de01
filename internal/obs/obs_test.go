package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"github.com/elisa-go/elisa/internal/simtime"
)

func span(guest, object string, fn uint64, total simtime.Duration) Span {
	var sp Span
	sp.Guest, sp.Object, sp.Fn, sp.Batch = guest, object, fn, 1
	sp.Phases[PhaseGateIn] = total
	return sp
}

// recordCall records one Call the way the gate walk does: its span total
// is the call's latency sample, and the span goes to the ring.
func recordCall(r *Recorder, guest, object string, fn uint64, total simtime.Duration) {
	r.Latency(guest, object, fn).RecordDuration(total)
	r.Record(span(guest, object, fn, total))
}

func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	r.Record(span("g", "o", 1, 10))
	r.Latency("g", "o", 1).RecordDuration(10)
	r.Reset()
	if r.Spans() != nil || r.SpansSeen() != 0 || r.SpansSampled() != 0 || r.Keys() != nil {
		t.Fatal("nil recorder not inert")
	}
	if h := r.Histogram(Key{"g", "o", 1}); h.Count() != 0 {
		t.Fatal("nil recorder histogram not empty")
	}
	if h := r.AttachmentHistogram("g", "o"); h.Count() != 0 {
		t.Fatal("nil recorder attachment histogram not empty")
	}
}

func TestRecorderSampling(t *testing.T) {
	r := NewRecorder(Config{SpanRing: 64, SampleEvery: 4})
	for i := 0; i < 10; i++ {
		recordCall(r, "g", "o", 1, simtime.Duration(100+i))
	}
	if r.SpansSeen() != 10 {
		t.Fatalf("seen = %d", r.SpansSeen())
	}
	// Seqs 0, 4, 8 pass the 1-in-4 sampler.
	sps := r.Spans()
	if len(sps) != 3 || r.SpansSampled() != 3 {
		t.Fatalf("sampled %d spans (counter %d)", len(sps), r.SpansSampled())
	}
	for i, want := range []uint64{0, 4, 8} {
		if sps[i].Seq != want {
			t.Fatalf("sps[%d].Seq = %d, want %d", i, sps[i].Seq, want)
		}
	}
	// The histogram sees every call, sampled or not.
	if h := r.Histogram(Key{"g", "o", 1}); h.Count() != 10 {
		t.Fatalf("histogram count = %d", h.Count())
	}
	// A span on its own is no latency sample: that would count a
	// one-request batch twice.
	r.Record(span("g", "o", 1, 100))
	if h := r.Histogram(Key{"g", "o", 1}); h.Count() != 10 {
		t.Fatalf("Record fed the histogram: count = %d", h.Count())
	}
}

func TestRecorderRingWrap(t *testing.T) {
	r := NewRecorder(Config{SpanRing: 4, SampleEvery: 1})
	for i := 0; i < 11; i++ {
		r.Record(span("g", "o", 1, 5))
	}
	sps := r.Spans()
	if len(sps) != 4 {
		t.Fatalf("retained %d", len(sps))
	}
	for i, sp := range sps {
		if sp.Seq != uint64(7+i) {
			t.Fatalf("sps[%d].Seq = %d, want oldest-first 7..10", i, sp.Seq)
		}
	}
}

func TestRecorderAggregation(t *testing.T) {
	r := NewRecorder(Config{SampleEvery: 1})
	recordCall(r, "a", "kv", 1, 100)
	recordCall(r, "a", "kv", 2, 200)
	recordCall(r, "a", "ring", 1, 300)
	recordCall(r, "b", "kv", 1, 400)
	keys := r.Keys()
	if len(keys) != 4 {
		t.Fatalf("keys = %v", keys)
	}
	if keys[0] != (Key{"a", "kv", 1}) || keys[3] != (Key{"b", "kv", 1}) {
		t.Fatalf("key order: %v", keys)
	}
	if h := r.AttachmentHistogram("a", "kv"); h.Count() != 2 || h.Sum() != 300 {
		t.Fatalf("attachment hist: %s", h)
	}
	if h := r.GuestHistogram("a"); h.Count() != 3 || h.Sum() != 600 {
		t.Fatalf("guest hist: %s", h)
	}
	r.Reset()
	if r.SpansSeen() != 0 || len(r.Keys()) != 0 || len(r.Spans()) != 0 {
		t.Fatal("reset left state behind")
	}
}

func TestRecorderConcurrentUse(t *testing.T) {
	r := NewRecorder(Config{SpanRing: 128, SampleEvery: 2})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := string(rune('a' + g))
			for i := 0; i < 500; i++ {
				recordCall(r, name, "o", uint64(i%3), simtime.Duration(i))
				if i%50 == 0 {
					_ = r.Spans()
					_ = r.AttachmentHistogram(name, "o")
				}
			}
		}(g)
	}
	wg.Wait()
	if r.SpansSeen() != 2000 {
		t.Fatalf("seen = %d", r.SpansSeen())
	}
	if r.SpansSampled() != 1000 {
		t.Fatalf("sampled = %d", r.SpansSampled())
	}
}

func TestSpanStringAndTotal(t *testing.T) {
	var sp Span
	sp.Guest, sp.Object, sp.Fn, sp.Batch, sp.Err = "g", "o", 7, 3, true
	sp.Phases[PhaseGateIn] = 56
	sp.Phases[PhaseSubSwitch] = 42
	sp.Phases[PhaseFunc] = 10
	sp.Phases[PhaseExchange] = 8
	sp.Phases[PhaseReturn] = 98
	if sp.Total() != 214 {
		t.Fatalf("total = %v", sp.Total())
	}
	s := sp.String()
	for _, want := range []string{"gate-in=56ns", "sub-switch=42ns", "func=10ns", "exchange=8ns", "return=98ns", "batch=3", "ERR"} {
		if !strings.Contains(s, want) {
			t.Fatalf("span string missing %q: %s", want, s)
		}
	}
}

func TestRegistryGatherAndRender(t *testing.T) {
	reg := NewRegistry()
	reg.Register(func() []Metric {
		return []Metric{{
			Name: "zz_gauge", Type: TypeGauge,
			Samples: []Sample{{Value: 2.5}},
		}}
	})
	reg.Register(func() []Metric {
		return []Metric{{
			Name: "aa_total", Help: "a counter", Type: TypeCounter,
			Samples: []Sample{
				{Labels: map[string]string{"vm": "b"}, Value: 2},
				{Labels: map[string]string{"vm": "a"}, Value: 1},
			},
		}}
	})
	ms := reg.Gather()
	if len(ms) != 2 || ms[0].Name != "aa_total" || ms[1].Name != "zz_gauge" {
		t.Fatalf("gather order: %+v", ms)
	}
	if ms[0].Samples[0].Labels["vm"] != "a" {
		t.Fatalf("sample order: %+v", ms[0].Samples)
	}
	text := reg.Prometheus()
	for _, want := range []string{
		"# HELP aa_total a counter",
		"# TYPE aa_total counter",
		`aa_total{vm="a"} 1`,
		`aa_total{vm="b"} 2`,
		"# TYPE zz_gauge gauge",
		"zz_gauge 2.5",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, text)
		}
	}
	if reg.Prometheus() != text {
		t.Fatal("render not deterministic")
	}
	raw, err := reg.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back []Metric
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("JSON round trip: %v", err)
	}
	if len(back) != 2 || back[0].Name != "aa_total" {
		t.Fatalf("JSON content: %s", raw)
	}
}

func TestCollectRecorderSummaries(t *testing.T) {
	if CollectRecorder(nil) != nil {
		t.Fatal("nil recorder should yield nil collector")
	}
	r := NewRecorder(Config{SampleEvery: 1})
	for i := 0; i < 100; i++ {
		recordCall(r, "tenant-0", "kv", 1, simtime.Duration(100+i))
	}
	reg := NewRegistry()
	reg.Register(CollectRecorder(r))
	text := reg.Prometheus()
	for _, want := range []string{
		"# TYPE elisa_call_latency_ns summary",
		`elisa_call_latency_ns{fn="1",guest="tenant-0",object="kv",quantile="0.99"}`,
		`elisa_call_latency_ns_count{fn="1",guest="tenant-0",object="kv"} 100`,
		`elisa_spans_total{disposition="seen"} 100`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("missing %q:\n%s", want, text)
		}
	}
}
