package elisa

// End-to-end tests of the observability surface: the flight recorder
// must decompose calls into the paper's Table 2 phases, and switching it
// on must not move the simulated clock by a single nanosecond.

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"github.com/elisa-go/elisa/internal/obs"
)

const obsFnNop = 11
const obsFnCopy = 12
const obsFnFail = 13

// buildObservedWorkload boots a one-guest system, registers a no-op, an
// exchange-copying, and a failing manager function, and runs a fixed
// mixed workload. It returns the system, the guest, and the guest's
// total simulated time.
func buildObservedWorkload(t *testing.T, cfg Config) (*System, *GuestVM, Duration) {
	t.Helper()
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mgr := sys.Manager()
	if err := mgr.RegisterFunc(obsFnNop, func(*CallContext) (uint64, error) { return 0, nil }); err != nil {
		t.Fatal(err)
	}
	if err := mgr.RegisterFunc(obsFnCopy, func(c *CallContext) (uint64, error) {
		return 128, c.CopyObjectToExchange(0, 0, 128)
	}); err != nil {
		t.Fatal(err)
	}
	if err := mgr.RegisterFunc(obsFnFail, func(*CallContext) (uint64, error) {
		return 0, errFnFail
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.CreateObject("obs-obj", 4*PageSize); err != nil {
		t.Fatal(err)
	}
	g, err := sys.NewGuestVM("obs-guest", 16*PageSize)
	if err != nil {
		t.Fatal(err)
	}
	h, err := g.Attach("obs-obj")
	if err != nil {
		t.Fatal(err)
	}
	v := g.VCPU(0)
	for i := 0; i < 50; i++ {
		if _, err := h.Call(obsFnNop); err != nil {
			t.Fatal(err)
		}
		if _, err := h.Call(obsFnCopy); err != nil {
			t.Fatal(err)
		}
		if _, err := h.Call(obsFnFail); err == nil {
			t.Fatal("failing fn succeeded")
		}
		reqs := []Req{{Fn: obsFnNop}, {Fn: obsFnCopy}, {Fn: obsFnNop}}
		if err := h.Core().CallMulti(v, reqs); err != nil {
			t.Fatal(err)
		}
	}
	return sys, g, g.Elapsed()
}

type obsFailErr struct{}

func (obsFailErr) Error() string { return "obs: injected failure" }

var errFnFail = obsFailErr{}

// The recorder reads clocks but never charges them: the same workload
// takes bit-identical simulated time with observation off, sampled, or
// recording every span. This is the "<5% overhead" acceptance bar met by
// construction — the overhead is exactly zero.
func TestObserveZeroSimulatedTimeOverhead(t *testing.T) {
	_, _, off := buildObservedWorkload(t, Config{})
	_, _, full := buildObservedWorkload(t, Config{Observe: &ObserveConfig{SampleEvery: 1}})
	_, _, sampled := buildObservedWorkload(t, Config{Observe: &ObserveConfig{SampleEvery: 64}})
	if off != full || off != sampled {
		t.Fatalf("observation moved the simulated clock: off=%d full=%d sampled=%d",
			off, full, sampled)
	}
}

// A warm no-op call's span must decompose exactly into the architectural
// round trip of Table 2: the phases sum to ELISARoundTrip (196 ns), the
// exchange phase is zero, and every crossing phase is positive.
func TestSpanPhasesMatchTable2(t *testing.T) {
	sys, err := NewSystem(Config{Observe: &ObserveConfig{SampleEvery: 1}})
	if err != nil {
		t.Fatal(err)
	}
	mgr := sys.Manager()
	if err := mgr.RegisterFunc(obsFnNop, func(*CallContext) (uint64, error) { return 0, nil }); err != nil {
		t.Fatal(err)
	}
	if err := mgr.RegisterFunc(obsFnCopy, func(c *CallContext) (uint64, error) {
		return 128, c.CopyObjectToExchange(0, 0, 128)
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.CreateObject("obs-obj", 4*PageSize); err != nil {
		t.Fatal(err)
	}
	g, err := sys.NewGuestVM("obs-guest", 16*PageSize)
	if err != nil {
		t.Fatal(err)
	}
	h, err := g.Attach("obs-obj")
	if err != nil {
		t.Fatal(err)
	}
	v := g.VCPU(0)
	if _, err := h.Call(obsFnNop); err != nil { // cold: TLB fills
		t.Fatal(err)
	}

	before := v.Clock().Now()
	if _, err := h.Call(obsFnNop); err != nil {
		t.Fatal(err)
	}
	wall := v.Clock().Elapsed(before)

	spans := sys.Spans()
	warm := spans[len(spans)-1]
	if warm.Total() != wall {
		t.Fatalf("span total %d != clock delta %d", warm.Total(), wall)
	}
	if want := DefaultCostModel().ELISARoundTrip(); warm.Total() != want {
		t.Fatalf("warm no-op span = %d ns, want ELISARoundTrip %d", warm.Total(), want)
	}
	if warm.Phases[obs.PhaseExchange] != 0 {
		t.Fatalf("no-op call charged exchange phase %d", warm.Phases[obs.PhaseExchange])
	}
	for _, ph := range []obs.Phase{obs.PhaseGateIn, obs.PhaseSubSwitch, obs.PhaseFunc, obs.PhaseReturn} {
		if warm.Phases[ph] <= 0 {
			t.Fatalf("phase %s = %d, want > 0", ph, warm.Phases[ph])
		}
	}
	if warm.Guest != "obs-guest" || warm.Object != "obs-obj" || warm.Fn != obsFnNop || warm.Batch != 1 || warm.Err {
		t.Fatalf("span identity wrong: %s", warm)
	}

	// A copying call attributes its memcpy to the exchange phase and is
	// exactly the no-op round trip plus the copy time.
	if _, err := h.Call(obsFnCopy); err != nil {
		t.Fatal(err)
	}
	spans = sys.Spans()
	cp := spans[len(spans)-1]
	if cp.Phases[obs.PhaseExchange] <= 0 {
		t.Fatal("copying call recorded no exchange time")
	}
	if got, want := cp.Total()-cp.Phases[obs.PhaseExchange], warm.Total(); got != want {
		t.Fatalf("copy span minus exchange = %d, want bare round trip %d", got, want)
	}
}

// CallMulti produces one ring span covering the batch plus a per-request
// latency sample per op — and the batch span must stay out of the
// histograms, which would otherwise double-count.
func TestCallMultiBatchObservation(t *testing.T) {
	sys, err := NewSystem(Config{Observe: &ObserveConfig{SampleEvery: 1}})
	if err != nil {
		t.Fatal(err)
	}
	mgr := sys.Manager()
	if err := mgr.RegisterFunc(obsFnNop, func(*CallContext) (uint64, error) { return 0, nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.CreateObject("obs-obj", PageSize); err != nil {
		t.Fatal(err)
	}
	g, err := sys.NewGuestVM("obs-guest", 16*PageSize)
	if err != nil {
		t.Fatal(err)
	}
	h, err := g.Attach("obs-obj")
	if err != nil {
		t.Fatal(err)
	}
	v := g.VCPU(0)

	key := obs.Key{Guest: "obs-guest", Object: "obs-obj", Fn: obsFnNop}
	rec := sys.Recorder()
	seen := rec.SpansSeen()
	count := rec.Histogram(key).Count()

	reqs := make([]Req, 4)
	for i := range reqs {
		reqs[i].Fn = obsFnNop
	}
	if err := h.Core().CallMulti(v, reqs); err != nil {
		t.Fatal(err)
	}
	if got := rec.SpansSeen() - seen; got != 1 {
		t.Fatalf("batch produced %d spans, want 1", got)
	}
	if got := rec.Histogram(key).Count() - count; got != 4 {
		t.Fatalf("batch added %d histogram samples, want 4 (one per request)", got)
	}
	spans := sys.Spans()
	batch := spans[len(spans)-1]
	if batch.Batch != 4 {
		t.Fatalf("batch span Batch = %d, want 4", batch.Batch)
	}
	// The amortisation the batch exists for: its whole-batch total is far
	// below four single calls.
	if single := 4 * DefaultCostModel().ELISARoundTrip(); batch.Total() >= single {
		t.Fatalf("batch total %d not amortised below %d", batch.Total(), single)
	}
}

// Function errors and gate refusals both surface as Err-flagged spans.
func TestErrorCallsFlaggedInSpans(t *testing.T) {
	sys, g, _ := buildObservedWorkload(t, Config{Observe: &ObserveConfig{SampleEvery: 1}})
	var nerr int
	for _, sp := range sys.Spans() {
		if sp.Err {
			nerr++
			if sp.Fn != obsFnFail {
				t.Fatalf("unexpected error span: %s", sp)
			}
		}
	}
	if nerr == 0 {
		t.Fatal("failing calls produced no Err spans")
	}

	// After detach the gate refuses the stale handle's slot; the refusal
	// is recorded as an error span for the attempted fn.
	h, err := g.Attach("obs-obj")
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Detach("obs-obj"); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Call(obsFnNop); err == nil {
		t.Fatal("detached handle still callable")
	}
	spans := sys.Spans()
	last := spans[len(spans)-1]
	if !last.Err || last.Fn != obsFnNop {
		t.Fatalf("gate refusal not recorded as error span: %s", last)
	}
}

// The metrics registry exports the live machine in both formats, with
// the recorder's latency summaries included.
func TestMetricsExportEndToEnd(t *testing.T) {
	sys, _, _ := buildObservedWorkload(t, Config{TraceEvents: 256, Observe: &ObserveConfig{}})

	text := sys.Metrics().Prometheus()
	for _, want := range []string{
		"# TYPE elisa_vcpu_vmfuncs_total counter",
		"# TYPE elisa_call_latency_ns summary",
		`elisa_attachment_calls_total{guest="obs-guest",object="obs-obj",shard="0",slot=`,
		`elisa_call_latency_ns{fn="11",guest="obs-guest",object="obs-obj",quantile="0.99",shard="0"}`,
		"elisa_call_latency_ns_count{",
		`elisa_spans_total{disposition="seen",shard="0"}`,
		`elisa_vms{shard="0"} 2`,
		`elisa_attachments{shard="0"} 1`,
		"elisa_trace_events_total",
		fmt.Sprintf(`elisa_mem_resident_bytes{shard="0"} %d`, sys.Hypervisor().Phys().ResidentBytes()),
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("Prometheus export missing %q:\n%s", want, text)
		}
	}

	raw, err := sys.Metrics().JSON()
	if err != nil {
		t.Fatal(err)
	}
	var metrics []struct {
		Name    string `json:"name"`
		Type    string `json:"type"`
		Samples []struct {
			Value float64 `json:"value"`
		} `json:"samples"`
	}
	if err := json.Unmarshal(raw, &metrics); err != nil {
		t.Fatalf("JSON export invalid: %v", err)
	}
	names := map[string]bool{}
	for _, m := range metrics {
		names[m.Name] = true
	}
	for _, want := range []string{"elisa_vcpu_vmfuncs_total", "elisa_call_latency_ns", "elisa_attachment_calls_total"} {
		if !names[want] {
			t.Fatalf("JSON export missing %q (has %v)", want, names)
		}
	}
}
