// Command perfbench measures the ELISA simulator's own cost, boot to
// report, on two workloads, and checks every simulated output it
// produces. Run it through run.py, which builds it:
//
//	python3 perfbench/run.py --workload kv_ycsb --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones, measured untraced; with --trace 1 they are the
// per-layer ones, from rounds that alternate traced and untraced. See
// README.md in this directory.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// defaultSeed is the seed the committed output digests were taken at.
const defaultSeed = 1

// bench is one named workload of the benchmark.
type bench struct {
	name string
	run  func(*round) error
	// primeBytes is the heap the workload's machines occupy at most; the
	// heap is primed with that much before the first round so the first
	// boot reuses heap pages like every later one.
	primeBytes int
}

var benches = []bench{
	{"kv_ycsb", runKVYCSB, 2 * kvYCSBPhys},
	{"paper_sweep", runPaperSweep, kvPhysBytes},
}

func findBench(name string) (bench, bool) {
	for _, w := range benches {
		if w.name == name {
			return w, true
		}
	}
	return bench{}, false
}

type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"host_ns_per_sim_op", "ns"},
	{"peak_heap_mb", "MiB"},
	{"paper_err_pct", "%"},
}

var perLayer = []metricDef{
	{"hv.boots", "count"},
	{"hv.boot_s", "s"},
	{"hv.phys_mb", "MiB"},
	{"hv.boot_share", "ratio"},
	{"cpu.tlb_hit_ratio", "ratio"},
	{"cpu.vmfuncs_per_op", "1/op"},
	{"cpu.exits_per_op", "1/op"},
	{"core.attaches", "count"},
	{"core.attach_s", "s"},
	{"core.call_s", "s"},
	{"kvs.gets", "count"},
	{"kvs.puts", "count"},
	{"kvs.get_ns", "ns"},
	{"kvs.put_ns", "ns"},
	{"kvs.get_hit_ratio", "ratio"},
	{"kvs.preload_s", "s"},
	{"kvs.call_share", "ratio"},
	{"core.ring_descs_per_crossing", "1/crossing"},
	{"core.ring_busied", "count"},
	{"core.ring_failed", "count"},
	{"workload.events", "count"},
	{"workload.generate_s", "s"},
	{"cluster.replay_s", "s"},
	{"cluster.windows", "count"},
	{"cluster.forced_serial_ratio", "ratio"},
	{"cluster.parallel_ratio", "ratio"},
	{"fleet.completed_ratio", "ratio"},
	{"overload.refused_ratio", "ratio"},
	{"overload.decisions", "count"},
	{"vnet.points", "count"},
	{"vnet.packets", "count"},
	{"vnet.run_s", "s"},
	{"mcd.requests", "count"},
	{"mcd.sweep_s", "s"},
	{"go.alloc_mb", "MiB"},
	{"go.allocs_per_sim_op", "1/op"},
	{"go.gc_cycles", "count"},
	{"trace.overhead_pct", "%"},
}

type options struct {
	seed      int64
	seconds   float64
	trace     bool
	quick     bool
	lanes     int
	minRounds int
	limit     time.Duration // no round starts past this
	spanDir   string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	digest string // of round 0's simulated outputs
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "kv_ycsb or paper_sweep")
	seed := fs.Int64("seed", defaultSeed, "input seed")
	seconds := fs.Float64("seconds", 10, "measure for this long (whole rounds)")
	traceMode := fs.Int("trace", 0, "1: per-layer metrics from alternating traced and untraced rounds")
	quick := fs.Bool("quick", false, "short scale, for tests")
	lanes := fs.Int("lanes", 0, "fleet lane width (default: usable CPUs)")
	minRounds := fs.Int("min-rounds", 3, "rounds of each kind to run however long they take")
	spanDir := fs.String("span-dir", "", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findBench(*name)
	if !ok || *traceMode < 0 || *traceMode > 1 || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload kv_ycsb|paper_sweep, --trace 0|1, --seconds > 0\n")
		return 2
	}
	o := options{
		seed: *seed, seconds: *seconds, trace: *traceMode == 1, quick: *quick,
		lanes: *lanes, minRounds: *minRounds, limit: 150 * time.Second, spanDir: *spanDir,
	}
	res, err := measure(w, o, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// runRound runs one boot-to-report pass.
func runRound(w bench, o options, tr *tracer, idx int) (*round, error) {
	r := &round{seed: o.seed, quick: o.quick, lanes: o.lanes, tr: tr}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if tr != nil {
		tr.resetRound()
	}
	r.tr.begin(lRound, int64(idx))
	err := w.run(r)
	r.tr.end()
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		r.self, r.calls = tr.self, tr.calls
	}
	r.allocBytes = after.TotalAlloc - before.TotalAlloc
	r.gcCycles = (after.NumGC - before.NumGC) - (after.NumForcedGC - before.NumForcedGC)
	return r, nil
}

// measure runs whole rounds until the time is used, then reduces them
// to the reported metrics and the output checks.
func measure(w bench, o options, log io.Writer) (*result, error) {
	if o.lanes <= 0 {
		o.lanes = min(runtime.NumCPU(), runtime.GOMAXPROCS(0))
	}
	prime(w.primeBytes)
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	start := time.Now()
	var plain, traced []*round
	for i := 0; ; i++ {
		useTrace := o.trace && i%2 == 1
		var rt *tracer
		if useTrace {
			rt = tr
		}
		t0 := time.Now()
		r, err := runRound(w, o, rt, i)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", i, err)
		}
		took := time.Since(t0)
		fmt.Fprintf(log, "round %d traced=%v wall=%.4fs setup=%.4fs measure=%.4fs sim_ops=%d\n",
			i, useTrace, r.wall().Seconds(), r.setup.Seconds(), r.measure.Seconds(), r.simOps)
		if useTrace {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
		elapsed := time.Since(start)
		enough := len(plain) >= o.minRounds && (!o.trace || len(traced) >= o.minRounds)
		if (enough && elapsed.Seconds() >= o.seconds) || elapsed+took > o.limit {
			break
		}
	}
	if o.trace && o.spanDir != "" {
		path := filepath.Join(o.spanDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, o.seed))
		if err := tr.write(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(log, "spans: %d kept, %d dropped, written to %s\n", len(tr.spans), tr.dropped, path)
	}
	all := append(append([]*round(nil), plain...), traced...)
	res := &result{Metrics: map[string]metricValue{}}
	checkRounds(w, o, all, res, log)

	if o.trace {
		if len(traced) == 0 {
			return nil, errors.New("no traced round finished")
		}
		res.Metrics = layerMetrics(plain, traced)
	} else {
		res.Metrics = endToEndMetrics(plain, all)
	}
	for _, m := range sortedNames(res.Metrics) {
		fmt.Fprintf(log, "metric %-30s %.6g %s\n", m, res.Metrics[m].Value, res.Metrics[m].Unit)
	}
	return res, nil
}

// checkRounds applies every round's output checks, then checks that all
// rounds produced identical simulated outputs and, at the default seed,
// that they match the committed digest.
func checkRounds(w bench, o options, all []*round, res *result, log io.Writer) {
	fail := func(format string, args ...any) {
		res.Failed++
		fmt.Fprintf(log, "FAILED: "+format+"\n", args...)
	}
	first := all[0].out.digest()
	for i, r := range all {
		res.Attempted += r.out.ops + r.out.checks
		res.Failed += r.out.failedOps
		for _, f := range r.out.failures {
			fail("round %d: %s", i, f)
		}
		res.Attempted++
		if d := r.out.digest(); d != first {
			fail("round %d: simulated outputs %s differ from round 0's %s", i, d, first)
		}
	}
	res.digest = first
	fmt.Fprintf(log, "digest %s\n", first)
	if want, ok := committedDigest(w.name, o.quick); ok && o.seed == defaultSeed {
		res.Attempted++
		if first != want {
			fail("simulated outputs %s differ from the committed digest %s", first, want)
		}
	}
	res.Correct = res.Failed == 0
}

func endToEndMetrics(plain, all []*round) map[string]metricValue {
	var wall, setup, perOp []float64
	var peak uint64
	for _, r := range plain {
		wall = append(wall, r.wall().Seconds())
		setup = append(setup, r.setup.Seconds())
		perOp = append(perOp, float64(r.measure.Nanoseconds())/float64(r.simOps))
	}
	for _, r := range all {
		peak = max(peak, r.peakHeap)
	}
	return map[string]metricValue{
		"wall_s":             {median(wall), "s"},
		"setup_s":            {median(setup), "s"},
		"host_ns_per_sim_op": {median(perOp), "ns"},
		"peak_heap_mb":       {float64(peak) / (1 << 20), "MiB"},
		"paper_err_pct":      {all[0].out.meanPaperErr(), "%"},
	}
}

func layerMetrics(plain, traced []*round) map[string]metricValue {
	out := map[string]metricValue{}
	for _, m := range perLayer {
		out[m.name] = metricValue{0, m.unit}
	}
	set := func(name string, v float64) { out[name] = metricValue{v, out[name].Unit} }
	last := traced[len(traced)-1]
	for name, v := range last.counters {
		if _, ok := out[name]; ok {
			set(name, v)
		}
	}
	set("hv.boots", float64(last.boots))
	set("hv.phys_mb", float64(last.bootBytes)/(1<<20))
	set("core.attaches", float64(last.attaches))

	selfSec := func(l layer) float64 {
		var xs []float64
		for _, r := range traced {
			xs = append(xs, r.self[l].Seconds())
		}
		return median(xs)
	}
	perCall := func(l layer) float64 {
		var xs []float64
		for _, r := range traced {
			if r.calls[l] > 0 {
				xs = append(xs, float64(r.self[l].Nanoseconds())/float64(r.calls[l]))
			}
		}
		return median(xs)
	}
	share := func(num, den func(*round) time.Duration) float64 {
		var xs []float64
		for _, r := range traced {
			if d := den(r); d > 0 {
				xs = append(xs, float64(num(r))/float64(d))
			}
		}
		return median(xs)
	}
	set("hv.boot_s", selfSec(lBoot))
	set("core.attach_s", selfSec(lAttach))
	set("core.call_s", selfSec(lCall))
	set("kvs.preload_s", selfSec(lPreload))
	set("workload.generate_s", selfSec(lGenerate))
	set("cluster.replay_s", selfSec(lReplay))
	set("vnet.run_s", selfSec(lVnet))
	set("mcd.sweep_s", selfSec(lMcd))
	set("kvs.get_ns", perCall(lKVGet))
	set("kvs.put_ns", perCall(lKVPut))
	set("hv.boot_share", share(func(r *round) time.Duration { return r.self[lBoot] },
		func(r *round) time.Duration { return r.setup }))
	set("kvs.call_share", share(func(r *round) time.Duration { return r.self[lKVGet] + r.self[lKVPut] },
		func(r *round) time.Duration { return r.measure }))

	var allocMB, allocsPerOp, gcs, plainWall, tracedWall []float64
	for _, r := range plain {
		allocMB = append(allocMB, float64(r.allocBytes)/(1<<20))
		allocsPerOp = append(allocsPerOp, float64(r.measuredMallocs)/float64(r.simOps))
		gcs = append(gcs, float64(r.gcCycles))
		plainWall = append(plainWall, r.wall().Seconds())
	}
	for _, r := range traced {
		tracedWall = append(tracedWall, r.wall().Seconds())
	}
	set("go.alloc_mb", median(allocMB))
	set("go.allocs_per_sim_op", median(allocsPerOp))
	set("go.gc_cycles", median(gcs))
	if pw := median(plainWall); pw > 0 {
		set("trace.overhead_pct", (median(tracedWall)/pw-1)*100)
	}
	return out
}

// prime allocates and drops n heap bytes, untouched, then returns them
// to the OS: the first boot then reuses freed heap pages, as every later
// boot does, instead of fresh zero pages that need no clearing.
func prime(n int) {
	b := make([]byte, n)
	runtime.KeepAlive(b)
	debug.FreeOSMemory()
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedNames(m map[string]metricValue) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
