package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strings"
	"time"
)

// layer names one span: a boundary where the benchmark calls into a
// layer's public functions and times the call from outside.
type layer int

const (
	lRound    layer = iota // one boot-to-report pass
	lSetup                 // boot to ready
	lMeasure               // the measured phase
	lVerify                // output checks
	lBoot                  // hv.New, cluster.New and the machine builders
	lAttach                // Guest.Attach, Fleet.Admit
	lPreload               // kvs store preload
	lGenerate              // workload.ParseSpecs + workload.Generate
	lKVGet                 // one kvs client GET
	lKVPut                 // one kvs client PUT
	lKVRun                 // kvs.Cluster RunMixed / RunGets / RunPuts
	lCall                  // Handle.Call / VMCall round-trip loops
	lReplay                // Fleet.Replay of one scheduling window
	lVnet                  // vnet.Run*
	lMcd                   // mcd.Sweep
	numLayers
)

var layerNames = [numLayers]string{
	"round", "setup", "measure", "verify", "hv.boot", "core.attach", "kvs.preload",
	"workload.generate", "kvs.get", "kvs.put", "kvs.run", "core.call", "cluster.replay", "vnet.run", "mcd.sweep",
}

// Span retention: per-op KV spans are kept 1 in kvSampleEvery (their
// times still count in full); every other span is kept, up to maxSpans.
const (
	kvSampleEvery = 64
	maxSpans      = 1 << 18
)

// spanRec is one retained span as written to the trace file.
type spanRec struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type openSpan struct {
	l     layer
	rec   int // index into spans, -1 when not retained
	start time.Time
	child time.Duration
}

// tracer records spans in memory. Each span's self time (its duration
// minus its children's) is summed per layer for the current round. A nil
// *tracer records nothing, which is the untraced mode.
type tracer struct {
	t0      time.Time
	stack   []openSpan
	self    [numLayers]time.Duration
	calls   [numLayers]int64
	spans   []spanRec
	dropped int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span of layer l; req is its request id (-1 for none).
func (t *tracer) begin(l layer, req int64) {
	if t == nil {
		return
	}
	rec := -1
	keep := (l != lKVGet && l != lKVPut) || req%kvSampleEvery == 0
	if keep && len(t.spans) < maxSpans {
		parent := -1
		for i := len(t.stack) - 1; i >= 0; i-- {
			if t.stack[i].rec >= 0 {
				parent = t.stack[i].rec
				break
			}
		}
		rec = len(t.spans)
		t.spans = append(t.spans, spanRec{Name: layerNames[l], ID: rec, Parent: parent, Req: req})
	} else if keep {
		t.dropped++
	}
	now := time.Now()
	if rec >= 0 {
		t.spans[rec].Start = int64(now.Sub(t.t0))
	}
	t.stack = append(t.stack, openSpan{l: l, rec: rec, start: now})
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	now := time.Now()
	top := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	dur := now.Sub(top.start)
	t.self[top.l] += dur - top.child
	t.calls[top.l]++
	if len(t.stack) > 0 {
		t.stack[len(t.stack)-1].child += dur
	}
	if top.rec >= 0 {
		t.spans[top.rec].End = int64(now.Sub(t.t0))
	}
}

// resetRound clears the per-round self-time sums.
func (t *tracer) resetRound() {
	t.self = [numLayers]time.Duration{}
	t.calls = [numLayers]int64{}
}

// write stores the retained spans as JSON lines.
func (t *tracer) write(path string) error {
	var b strings.Builder
	enc := json.NewEncoder(&b)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// outputs collects one round's simulated results: canonical lines that
// are digested, and the output checks with their failures.
type outputs struct {
	lines     []string
	checks    int64
	failures  []string
	ops       int64 // simulated operations attempted
	failedOps int64 // of those, operations that failed
	paperErr  []float64
}

// add records one simulated output line.
func (o *outputs) add(format string, args ...any) {
	o.lines = append(o.lines, fmt.Sprintf(format, args...))
}

// check counts one output check and records it if it fails.
func (o *outputs) check(ok bool, format string, args ...any) {
	o.checks++
	if !ok {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// ratio records one headline ratio against the paper's value, as an
// output line and as a relative error in percent.
func (o *outputs) ratio(name string, sim, paper float64) {
	o.add("ratio %s sim=%.6f paper=%.6f", name, sim, paper)
	d := (sim - paper) / paper * 100
	if d < 0 {
		d = -d
	}
	o.paperErr = append(o.paperErr, d)
}

func (o *outputs) digest() string {
	h := sha256.New()
	for _, l := range o.lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

func (o *outputs) meanPaperErr() float64 {
	if len(o.paperErr) == 0 {
		return 0
	}
	var s float64
	for _, e := range o.paperErr {
		s += e
	}
	return s / float64(len(o.paperErr))
}

// round is one boot-to-report pass of a workload.
type round struct {
	tr    *tracer // nil in untraced rounds
	seed  int64
	quick bool
	lanes int

	setup, measure, verify time.Duration
	simOps                 int64
	peakHeap               uint64
	measuredMallocs        uint64
	allocBytes             uint64 // heap bytes allocated by the whole round
	gcCycles               uint32 // collections the round ran, forced ones excluded
	boots, attaches        int64
	bootBytes              uint64
	out                    outputs
	counters               map[string]float64

	self  [numLayers]time.Duration // copied from the tracer at round end
	calls [numLayers]int64
}

func (r *round) wall() time.Duration { return r.setup + r.measure + r.verify }

// settle forces a GC and returns freed memory to the OS, so every boot
// starts from the same heap state whatever the previous machine freed.
// It runs outside every timed window.
func (r *round) settle() { debug.FreeOSMemory() }

// ready ends a setup: a forced GC, untimed, then the live heap is read.
func (r *round) ready() {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > r.peakHeap {
		r.peakHeap = ms.HeapAlloc
	}
}

// window times fn as one span of layer l and adds its host time to *dst.
func (r *round) window(dst *time.Duration, l layer, req int64, fn func() error) error {
	r.tr.begin(l, req)
	start := time.Now()
	err := fn()
	*dst += time.Since(start)
	r.tr.end()
	return err
}

// doSetup times boot-to-ready work.
func (r *round) doSetup(fn func() error) error { return r.window(&r.setup, lSetup, -1, fn) }

// doMeasure times one measured phase after a forced GC; fn returns the
// simulated operations it completed. Allocation counts are read outside
// the timed window.
func (r *round) doMeasure(fn func() (int64, error)) error {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var ops int64
	err := r.window(&r.measure, lMeasure, -1, func() error {
		var err error
		ops, err = fn()
		return err
	})
	runtime.ReadMemStats(&after)
	r.measuredMallocs += after.Mallocs - before.Mallocs
	r.simOps += ops
	return err
}

// doVerify times the output checks.
func (r *round) doVerify(fn func() error) error { return r.window(&r.verify, lVerify, -1, fn) }

// span times fn as a child span of layer l inside the current window.
func (r *round) span(l layer, req int64, fn func() error) error {
	r.tr.begin(l, req)
	err := fn()
	r.tr.end()
	return err
}

// boot times fn as a machine boot and counts the heap bytes it
// allocated.
func (r *round) boot(fn func() error) error {
	a0 := heapAllocBytes()
	err := r.span(lBoot, -1, fn)
	r.bootBytes += heapAllocBytes() - a0
	r.boots++
	return err
}

// attach times fn as one attachment.
func (r *round) attach(fn func() error) error {
	r.attaches++
	return r.span(lAttach, -1, fn)
}

func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// count sets one per-layer counter.
func (r *round) count(name string, v float64) {
	if r.counters == nil {
		r.counters = map[string]float64{}
	}
	r.counters[name] = v
}
