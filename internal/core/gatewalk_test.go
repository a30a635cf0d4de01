package core

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/elisa-go/elisa/internal/cpu"
	"github.com/elisa-go/elisa/internal/fault"
	"github.com/elisa-go/elisa/internal/hv"
	"github.com/elisa-go/elisa/internal/mem"
	"github.com/elisa-go/elisa/internal/obs"
	"github.com/elisa-go/elisa/internal/shm"
	"github.com/elisa-go/elisa/internal/simtime"
)

var update = flag.Bool("update", false, "rewrite golden files")

// gateWalk drives one machine through every way a guest crosses the gate
// — Call, CallMulti and ring Flush, each hot, cold, refused and crashed
// mid-gate — and writes down every simulated byte the crossings leave:
// per step the error, the vCPU clock and counter deltas and the gate
// epochs; at the end every span, causal event and trace line. Latency
// histograms are deliberately left out: how many samples a batch adds is
// a recording rule, not a property of the walk.
type gateWalk struct {
	t   *testing.T
	h   *hv.Hypervisor
	mgr *Manager
	rec *obs.Recorder
	out bytes.Buffer
}

func newGateWalk(t *testing.T) *gateWalk {
	t.Helper()
	h, err := hv.New(hv.Config{PhysBytes: 64 * 1024 * 1024, TraceEvents: 4096})
	if err != nil {
		t.Fatal(err)
	}
	// Budget 2 with three attachments on the main guest: the third one's
	// first call takes the HCSlotFault slow path.
	m, err := NewManager(h, ManagerConfig{SlotBudget: 2})
	if err != nil {
		t.Fatal(err)
	}
	w := &gateWalk{t: t, h: h, mgr: m, rec: obs.NewRecorder(obs.Config{SampleEvery: 1})}
	w.must(m.RegisterFunc(fnNop, func(c *CallContext) (uint64, error) { return 0, nil }))
	w.must(m.RegisterFunc(fnWriteObject, func(c *CallContext) (uint64, error) {
		return 0, c.CopyExchangeToObject(int(c.Args[0]), 0, int(c.Args[1]))
	}))
	w.must(m.RegisterFunc(fnObjAdd, func(c *CallContext) (uint64, error) {
		v, err := c.ObjectU64(0)
		if err != nil {
			return 0, err
		}
		v += c.Args[0]
		return v, c.SetObjectU64(0, v)
	}))
	m.SetRecorder(w.rec)
	for _, name := range []string{"hot", "spare", "cold", "gone", "ring-gone"} {
		if _, err := m.CreateObject(name, 4*mem.PageSize); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

func (w *gateWalk) must(err error) {
	w.t.Helper()
	if err != nil {
		w.t.Fatal(err)
	}
}

func (w *gateWalk) guest(name string) (*hv.VM, *Guest) {
	w.t.Helper()
	vm, err := w.h.CreateVM(name, 16*mem.PageSize)
	w.must(err)
	g, err := NewGuest(vm, w.mgr)
	w.must(err)
	return vm, g
}

func (w *gateWalk) attach(g *Guest, obj string) *Handle {
	w.t.Helper()
	h, err := g.Attach(obj)
	w.must(err)
	return h
}

func (w *gateWalk) ring(h *Handle, v *cpu.VCPU) *RingCaller {
	w.t.Helper()
	rc, err := h.Ring(v, RingConfig{Depth: 64, Deadline: simtime.Second})
	w.must(err)
	return rc
}

func (w *gateWalk) submit(rc *RingCaller, v *cpu.VCPU, n int) {
	w.t.Helper()
	for i := 0; i < n; i++ {
		w.must(rc.Submit(v, fnObjAdd, uint64(i+1)))
	}
}

// step runs one gate operation on vm's vCPU and records what it left.
func (w *gateWalk) step(name string, vm *hv.VM, op func() error) {
	v := vm.VCPU()
	t0, s0 := v.Clock().Now(), v.Stats()
	err := op()
	s1 := v.Stats()
	entries, exits := w.mgr.GateEpochs(vm)
	fmt.Fprintf(&w.out, "%-14s err=%v\n", name, err)
	fmt.Fprintf(&w.out, "%-14s clock+%d exits+%d hypercalls+%d vmfuncs+%d tlb-hits+%d tlb-misses+%d epochs=%d/%d dead=%v\n",
		"", v.Clock().Now().Sub(t0), s1.Exits-s0.Exits, s1.Hypercalls-s0.Hypercalls, s1.VMFuncs-s0.VMFuncs,
		s1.TLBHits-s0.TLBHits, s1.TLBMisses-s0.TLBMisses, entries, exits, v.Dead())
}

func (w *gateWalk) poll(rc *RingCaller, v *cpu.VCPU) {
	var comps [64]shm.Comp
	n, err := rc.Poll(v, comps[:])
	fmt.Fprintf(&w.out, "%-14s poll n=%d err=%v", "", n, err)
	for _, c := range comps[:n] {
		fmt.Fprintf(&w.out, " %d/%d/%#x", c.Ret, c.Status, c.Trace)
	}
	w.out.WriteByte('\n')
}

func (w *gateWalk) run() []byte {
	inj := fault.NewInjector(&fault.Plan{Injections: []fault.Injection{
		{Seq: 0, At: 1, Class: fault.ClassCrashMidGate, Guest: "crash-call"},
		{Seq: 1, At: 1, Class: fault.ClassCrashMidGate, Guest: "crash-multi"},
		{Seq: 2, At: 1, Class: fault.ClassCrashMidGate, Guest: "crash-flush"},
	}})
	w.mgr.SetInjector(inj)

	vm, g := w.guest("main")
	v := vm.VCPU()
	hot := w.attach(g, "hot")
	w.attach(g, "spare")
	cold := w.attach(g, "cold")
	gone := w.attach(g, "gone")
	ringGone := w.attach(g, "ring-gone")
	rc := w.ring(hot, v)
	rcGone := w.ring(ringGone, v)
	w.must(hot.ExchangeWrite(v, 0, bytes.Repeat([]byte{0x5a}, 256)))

	w.step("call-first", vm, func() error { _, err := hot.Call(v, fnNop); return err })
	w.step("call-hot", vm, func() error { _, err := hot.Call(v, fnWriteObject, 64, 256); return err })
	w.step("call-cold", vm, func() error { _, err := cold.Call(v, fnObjAdd, 3); return err })
	w.step("call-fn-error", vm, func() error { _, err := hot.Call(v, 0xdead); return err })
	w.must(w.mgr.Revoke(vm, "gone"))
	w.step("call-refused", vm, func() error { _, err := gone.Call(v, fnNop); return err })

	one := []Req{{Fn: fnObjAdd, Args: [4]uint64{7}}}
	w.step("multi-1", vm, func() error { return hot.CallMulti(v, one) })
	eight := make([]Req, 8)
	for i := range eight {
		eight[i] = Req{Fn: fnObjAdd, Args: [4]uint64{uint64(i)}}
	}
	eight[5].Fn = 0xdead
	w.step("multi-8", vm, func() error { return hot.CallMulti(v, eight) })
	for _, r := range append(one, eight...) {
		fmt.Fprintf(&w.out, "%-14s req fn=%d ret=%d err=%v\n", "", r.Fn, r.Ret, r.Err)
	}
	w.step("multi-refused", vm, func() error { return gone.CallMulti(v, one) })

	w.submit(rc, v, 1)
	w.step("flush-1", vm, func() error { return rc.Flush(v) })
	w.poll(rc, v)
	w.submit(rc, v, 32)
	w.step("flush-32", vm, func() error { return rc.Flush(v) })
	w.poll(rc, v)
	w.step("flush-empty", vm, func() error { return rc.Flush(v) })
	w.must(w.mgr.Revoke(vm, "ring-gone"))
	w.submit(rcGone, v, 1)
	w.step("flush-refused", vm, func() error { return rcGone.Flush(v) })

	cvm, cg := w.guest("crash-call")
	ch := w.attach(cg, "hot")
	w.attach(cg, "spare")
	w.step("crash-call", cvm, func() error { _, err := ch.Call(cvm.VCPU(), fnNop); return err })
	mvm, mg := w.guest("crash-multi")
	mh := w.attach(mg, "hot")
	w.step("crash-multi", mvm, func() error { return mh.CallMulti(mvm.VCPU(), eight[:2]) })
	fvm, fg := w.guest("crash-flush")
	fh := w.attach(fg, "hot")
	w.attach(fg, "cold")
	frc := w.ring(fh, fvm.VCPU())
	w.submit(frc, fvm.VCPU(), 3)
	w.step("crash-flush", fvm, func() error { return frc.Flush(fvm.VCPU()) })

	for _, dead := range []*hv.VM{cvm, mvm, fvm} {
		midGate, err := w.mgr.RecoverGuest(dead)
		fmt.Fprintf(&w.out, "recover %-12s midGate=%v err=%v\n", dead.Name(), midGate, err)
	}
	// The frames the next allocation gets are the order recovery freed
	// them in.
	after, err := w.mgr.CreateObject("after-recover", 24*mem.PageSize)
	w.must(err)
	fmt.Fprintf(&w.out, "after-recover frames %v\n", after.Region().Frames())
	fmt.Fprintf(&w.out, "fsck err=%v\n", w.mgr.Fsck())
	fmt.Fprintf(&w.out, "recovery %+v\n", w.mgr.RecoveryStats())
	for _, st := range w.mgr.Stats() {
		fmt.Fprintf(&w.out, "stats %+v\n", st)
	}
	for _, st := range w.mgr.RingStats() {
		fmt.Fprintf(&w.out, "ring %+v\n", st)
	}
	fmt.Fprintf(&w.out, "spans seen=%d sampled=%d\n", w.rec.SpansSeen(), w.rec.SpansSampled())
	for _, sp := range w.rec.Spans() {
		fmt.Fprintf(&w.out, "span %s batch=%d\n", sp, sp.Batch)
	}
	for _, e := range w.rec.Causal().Events() {
		fmt.Fprintf(&w.out, "causal %s\n", e)
	}
	for _, e := range w.h.Trace().Events() {
		fmt.Fprintf(&w.out, "trace %s\n", e)
	}
	fmt.Fprintf(&w.out, "faults\n%s", inj.TraceString())
	return w.out.Bytes()
}

// TestGateWalkGolden pins the simulated bytes of every gate crossing:
// clocks, counters, epochs, spans, causal chains and the machine trace
// must not move when the walk's code does. Regenerate with
// `go test ./internal/core -run GateWalkGolden -update` only after an
// intended change to the cost model or the call protocol.
func TestGateWalkGolden(t *testing.T) {
	got := newGateWalk(t).run()
	golden := filepath.Join("testdata", "gatewalk.golden")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("gate walk drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	if again := newGateWalk(t).run(); !bytes.Equal(got, again) {
		t.Error("two identical gate walks differ")
	}
}

// Every request that runs adds exactly one sample to its latency series,
// whatever the batch size, and a refused batch adds none. A Call is its
// own request: it adds its span's total, refused or not.
func TestLatencySamplesOnePerRequest(t *testing.T) {
	w := newGateWalk(t)
	vm, g := w.guest("g")
	v := vm.VCPU()
	hot := w.attach(g, "hot")
	gone := w.attach(g, "gone")
	rc := w.ring(hot, v)
	rcGone := w.ring(w.attach(g, "ring-gone"), v)
	reqs := func(n int) []Req {
		r := make([]Req, n)
		for i := range r {
			r[i].Fn = fnNop
		}
		return r
	}
	flush := func(rc *RingCaller, n int) func() error {
		return func() error {
			w.submit(rc, v, n)
			return rc.Flush(v)
		}
	}
	cases := []struct {
		name    string
		op      func() error
		refused bool
		want    int64
	}{
		{"call", func() error { _, err := hot.Call(v, fnNop); return err }, false, 1},
		{"multi-1", func() error { return hot.CallMulti(v, reqs(1)) }, false, 1},
		{"multi-8", func() error { return hot.CallMulti(v, reqs(8)) }, false, 8},
		{"flush-1", flush(rc, 1), false, 1},
		{"flush-32", flush(rc, 32), false, 32},
		{"call-refused", func() error { _, err := gone.Call(v, fnNop); return err }, true, 1},
		{"multi-refused-1", func() error { return gone.CallMulti(v, reqs(1)) }, true, 0},
		{"multi-refused-8", func() error { return gone.CallMulti(v, reqs(8)) }, true, 0},
		{"flush-refused-1", flush(rcGone, 1), true, 0},
		{"flush-refused-3", flush(rcGone, 3), true, 0},
	}
	revoked := false
	for _, c := range cases {
		if c.refused && !revoked {
			w.must(w.mgr.Revoke(vm, "gone"))
			w.must(w.mgr.Revoke(vm, "ring-gone"))
			revoked = true
		}
		before := w.rec.GuestHistogram("g").Count()
		if err := c.op(); (err != nil) != c.refused {
			t.Fatalf("%s: err = %v", c.name, err)
		}
		if got := w.rec.GuestHistogram("g").Count() - before; got != c.want {
			t.Errorf("%s added %d latency samples, want %d", c.name, got, c.want)
		}
	}
	if n := w.rec.Histogram(obs.Key{Guest: "g", Object: "ring-gone", Fn: 0}).Count(); n != 0 {
		t.Errorf("refused flush recorded %d samples under fn 0, which never ran", n)
	}
}
