// Command elisa-replay is the trace workbench: it renders workload specs
// into CSV traces (writer mode, -gen) and replays committed traces
// through a sharded fleet, scoring the outcome with a weighted fitness
// function and ranking the overload plane's refusals counterfactually.
//
// Writer mode renders a spec file's arrival processes (Poisson, MMPP
// bursts, diurnal swings) and key distributions into the flat CSV trace
// format (arrival_ns,tenant,object,fn,class,size):
//
//	elisa-replay -gen -spec tenants.conf -seed 42 -window-us 250 > trace.csv
//
// Replay mode drives a trace through a cluster fleet — every event at
// its recorded instant, against the object and fn its row names, through
// the full admission/shed/drop refusal ladder — and prints the fleet
// report, the fitness breakdown, the top-K counterfactuals ("had this
// refusal group completed, fitness would have been F"), and the decision
// digest:
//
//	elisa-replay -trace trace.csv -spec tenants.conf -shards 4 -armed
//
// Everything is simulated and seeded: the same (trace, spec, flags)
// renders byte-identical output, which is what makes a committed trace
// plus a golden report a whole-scenario regression test (see the CI
// workload-replay job).
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"github.com/elisa-go/elisa/internal/cluster"
	"github.com/elisa-go/elisa/internal/core"
	"github.com/elisa-go/elisa/internal/fitness"
	"github.com/elisa-go/elisa/internal/fleet"
	"github.com/elisa-go/elisa/internal/overload"
	"github.com/elisa-go/elisa/internal/simtime"
	"github.com/elisa-go/elisa/internal/workload"
)

func main() {
	gen := flag.Bool("gen", false, "writer mode: render the spec's arrival processes to a CSV trace on stdout (or -out)")
	specPath := flag.String("spec", "", "tenant spec file (required; see internal/workload.ParseSpecs)")
	tracePath := flag.String("trace", "", "CSV trace to replay (replay mode)")
	out := flag.String("out", "", "output file (default stdout)")
	seed := flag.Int64("seed", 42, "generator / fleet seed")
	windowUS := flag.Int("window-us", 250, "trace horizon (with -gen) or replay window, simulated microseconds")
	shards := flag.Int("shards", 1, "manager shards; objects pin to shard 0 so the merged report is shard-count invariant")
	cores := flag.Int("cores", 2, "simulated cores per shard")
	queueDepth := flag.Int("queue-depth", 32, "per-tenant queue bound")
	armed := flag.Bool("armed", false, "arm overload control: 3 priority classes, early shedding, the specs' admission buckets")
	fitnessSpec := flag.String("fitness", "goodput:0.5,p99:0.3,drops:0.2", "fitness weighting")
	topK := flag.Int("topk", 3, "counterfactual groups to rank")
	flag.Parse()
	if err := checkFlags(*windowUS, *shards, *cores, *queueDepth, *topK); err != nil {
		fmt.Fprintf(os.Stderr, "elisa-replay: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}

	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatalf("elisa-replay: %v", err)
		}
		defer f.Close()
		w = f
	}
	if *specPath == "" {
		log.Fatal("elisa-replay: -spec is required")
	}
	specs, err := workload.ReadSpecFile(*specPath)
	if err != nil {
		log.Fatalf("elisa-replay: %v", err)
	}
	window := simtime.Duration(*windowUS) * simtime.Microsecond

	if *gen {
		tr, err := workload.Generate(specs, *seed, window)
		if err != nil {
			log.Fatalf("elisa-replay: %v", err)
		}
		if err := workload.WriteTrace(w, tr); err != nil {
			log.Fatalf("elisa-replay: %v", err)
		}
		return
	}

	if *tracePath == "" {
		log.Fatal("elisa-replay: need -trace (replay mode) or -gen (writer mode)")
	}
	tr, err := workload.ReadTraceFile(*tracePath)
	if err != nil {
		log.Fatalf("elisa-replay: %v", err)
	}
	if err := replay(w, specs, tr, replayConfig{
		seed: *seed, window: window, shards: *shards, cores: *cores,
		queueDepth: *queueDepth, armed: *armed, fitness: *fitnessSpec, topK: *topK,
	}); err != nil {
		log.Fatalf("elisa-replay: %v", err)
	}
}

// checkFlags refuses flag values the replay would quietly replace or
// ignore: each must be at least 1. main reports its error as a usage
// error (exit status 2).
func checkFlags(windowUS, shards, cores, queueDepth, topK int) error {
	for _, f := range []struct {
		name string
		v    int
	}{{"window-us", windowUS}, {"shards", shards}, {"cores", cores}, {"queue-depth", queueDepth}, {"topk", topK}} {
		if f.v < 1 {
			return fmt.Errorf("-%s %d: must be at least 1", f.name, f.v)
		}
	}
	return nil
}

// replayConfig is the replay-mode knob set (mirrors the flags).
type replayConfig struct {
	seed       int64
	window     simtime.Duration
	shards     int
	cores      int
	queueDepth int
	armed      bool
	fitness    string
	topK       int
}

// replay boots a cluster with the specs' objects pinned to shard 0,
// admits the specs' tenants, replays the trace, and renders the report,
// fitness, counterfactual ranking, and decision digest.
func replay(w io.Writer, specs []workload.Spec, tr *workload.Trace, cfg replayConfig) error {
	c, err := cluster.New(cluster.Config{Shards: cfg.shards, Seed: cfg.seed, PhysBytes: 256 * 1024 * 1024})
	if err != nil {
		return err
	}
	fns := map[uint64]bool{}
	for _, sp := range specs {
		if !fns[sp.Fn] {
			fns[sp.Fn] = true
			if err := c.RegisterFunc(sp.Fn, func(*core.CallContext) (uint64, error) { return 0, nil }); err != nil {
				return err
			}
		}
	}
	seen := map[string]bool{}
	for _, sp := range specs {
		for _, obj := range sp.Objects {
			if seen[obj] {
				continue
			}
			seen[obj] = true
			if err := c.Ring().Pin(obj, 0); err != nil {
				return err
			}
			if _, err := c.CreateObject(obj, 4096); err != nil {
				return err
			}
		}
	}
	dec := overload.NewDecisionTrace(0)
	fc := fleet.Config{Cores: cfg.cores, Seed: cfg.seed, QueueDepth: cfg.queueDepth, Decisions: dec}
	if cfg.armed {
		fc.Classes = 3
		fc.ShedLow, fc.ShedHigh = 0.15, 0.4
	}
	f, err := c.NewFleet(cluster.FleetConfig{Config: fc})
	if err != nil {
		return err
	}
	for _, sp := range specs {
		ts, err := fleet.SpecFromWorkload(sp, cfg.seed)
		if err != nil {
			return err
		}
		if !cfg.armed {
			ts.AdmitRateOPS, ts.Class = 0, 0
		}
		if _, err := f.Admit(ts); err != nil {
			return err
		}
	}
	rep, err := f.Replay(tr, cfg.window)
	if err != nil {
		return err
	}
	fmt.Fprint(w, rep.Table().String())
	score, err := fitness.Eval(rep, cfg.fitness)
	if err != nil {
		return err
	}
	fmt.Fprintln(w)
	fmt.Fprint(w, score.Table(fmt.Sprintf("Fitness %s over %d event(s)", cfg.fitness, len(tr.Events))).String())
	whats, err := fitness.Counterfactual(rep, dec, cfg.fitness, cfg.topK)
	if err != nil {
		return err
	}
	fmt.Fprintln(w)
	fmt.Fprint(w, fitness.CounterfactualTable(whats, score).String())
	fmt.Fprintln(w)
	fmt.Fprintln(w, "== Decisions ==")
	fmt.Fprint(w, dec.Summary())
	return nil
}
