package main

import (
	"fmt"

	"github.com/elisa-go/elisa/internal/core"
	"github.com/elisa-go/elisa/internal/hv"
	"github.com/elisa-go/elisa/internal/kvs"
	"github.com/elisa-go/elisa/internal/mcd"
	"github.com/elisa-go/elisa/internal/mem"
	"github.com/elisa-go/elisa/internal/simtime"
	"github.com/elisa-go/elisa/internal/vnet"
	"github.com/elisa-go/elisa/internal/workload"
)

// The paper's headline figures, the fidelity reference of paper_err_pct.
const (
	paperELISANs  = 196 // Table 2, ELISA context round trip
	paperVMCallNs = 699 // Table 2, VMCALL round trip
	paperRTTRatio = 3.5 // Table 2, "3.5x"
	paperMcdCap   = 39  // memcached capacity, ELISA over VMCALL, %
	paperKVGetPct = 64  // KV GET at 1 VM, ELISA over VMCALL, %
)

// paperNetGain is ELISA over VMCALL at 64 B, per networking scenario, %.
var paperNetGain = map[string]float64{"rx": 49, "tx": 54, "vv": 163}

// Manager function and hypercall the round-trip probes register.
const (
	probeFn uint64 = 0xBE9C00F0
	probeHC uint64 = 0xBE9C00F1
)

// rttIters is the steady-state loop length of each round-trip probe.
const rttIters = 10_000

func nopFn(*core.CallContext) (uint64, error) { return 0, nil }

// rttProbe is a fresh guest attached to a one-page object on a booted
// machine, with an empty manager function and an empty hypercall.
type rttProbe struct {
	vm     *hv.VM
	handle *core.Handle
}

func newRTTProbe(r *round, h *hv.Hypervisor, mgr *core.Manager) (*rttProbe, error) {
	const name = "rtt-probe"
	if _, err := mgr.CreateObject(name, mem.PageSize); err != nil {
		return nil, err
	}
	if err := mgr.RegisterFunc(probeFn, nopFn); err != nil {
		return nil, err
	}
	if err := h.RegisterHypercall(probeHC, func(*hv.VM, [4]uint64) (uint64, error) { return 0, nil }); err != nil {
		return nil, err
	}
	vm, err := h.CreateVM(name, 16*mem.PageSize)
	if err != nil {
		return nil, err
	}
	g, err := core.NewGuest(vm, mgr)
	if err != nil {
		return nil, err
	}
	p := &rttProbe{vm: vm}
	err = r.attach(func() error {
		p.handle, err = g.Attach(name)
		return err
	})
	return p, err
}

// elisa returns the mean warm ELISA round trip over iters calls.
func (p *rttProbe) elisa(iters int) (simtime.Duration, error) {
	v := p.vm.VCPU()
	if _, err := p.handle.Call(v, probeFn); err != nil { // warm the TLB
		return 0, err
	}
	start := v.Clock().Now()
	for i := 0; i < iters; i++ {
		if _, err := p.handle.Call(v, probeFn); err != nil {
			return 0, err
		}
	}
	return v.Clock().Elapsed(start) / simtime.Duration(iters), nil
}

// vmcall returns the mean empty-hypercall round trip over iters calls.
func (p *rttProbe) vmcall(iters int) (simtime.Duration, error) {
	v := p.vm.VCPU()
	start := v.Clock().Now()
	for i := 0; i < iters; i++ {
		if _, err := v.VMCall(probeHC); err != nil {
			return 0, err
		}
	}
	return v.Clock().Elapsed(start) / simtime.Duration(iters), nil
}

// recordRTT checks both round trips against Table 2 and records their
// ratio against the paper's.
func recordRTT(o *outputs, elisa, vmcall simtime.Duration) {
	o.add("rtt elisa=%d vmcall=%d", elisa, vmcall)
	o.check(elisa == paperELISANs, "ELISA round trip %d ns, want %d", elisa, paperELISANs)
	o.check(vmcall == paperVMCallNs, "VMCALL round trip %d ns, want %d", vmcall, paperVMCallNs)
	o.check(vmcall > elisa, "ELISA round trip %d ns not ahead of VMCALL %d ns", elisa, vmcall)
	o.ratio("rtt_vmcall_over_elisa", float64(vmcall)/float64(elisa), paperRTTRatio)
}

// checkRTT probes both round trips on a machine a workload already
// booted, after its measured phase.
func checkRTT(r *round, h *hv.Hypervisor, mgr *core.Manager) error {
	p, err := newRTTProbe(r, h, mgr)
	if err != nil {
		return fmt.Errorf("round-trip probe: %w", err)
	}
	elisa, err := p.elisa(rttIters)
	if err != nil {
		return err
	}
	vmcall, err := p.vmcall(rttIters)
	if err != nil {
		return err
	}
	recordRTT(&r.out, elisa, vmcall)
	return nil
}

// paperScale returns the per-point operation counts: KV ops, packets,
// and memcached requests per load point.
func paperScale(quick bool) (kvOps, packets, mcdReqs int) {
	if quick {
		return 300, 400, 4_000
	}
	return 3_000, 4_000, 10_000
}

const (
	paperKVKeys   = 1024
	paperPktBytes = 64
	microPhys     = 64 * 1024 * 1024
)

// paperPoint is one headline point: boot returns the measured body,
// which reports the simulated operations it completed.
type paperPoint struct {
	name  string
	layer layer
	boot  func() (func() (int64, error), error)
}

// runPaperSweep is the paper_sweep workload: the paper's headline points
// boot to report, each on its own freshly booted machine.
func runPaperSweep(r *round) error {
	kvOps, packets, mcdReqs := paperScale(r.quick)
	keys, val := kvKeys(r.seed, paperKVKeys)
	o := &r.out
	var req int64

	rtt := map[string]simtime.Duration{}
	kvMops := map[string]float64{}
	netMpps := map[string]float64{}
	curves := map[string]*mcd.Curve{}
	var gets, puts, misses int64

	var points []paperPoint
	points = append(points,
		paperPoint{"table2_elisa", lCall, func() (func() (int64, error), error) {
			p, err := bootProbe(r)
			if err != nil {
				return nil, err
			}
			return func() (int64, error) {
				d, err := p.elisa(rttIters)
				rtt["elisa"] = d
				return rttIters, err
			}, nil
		}},
		paperPoint{"table2_vmcall", lCall, func() (func() (int64, error), error) {
			p, err := bootProbe(r)
			if err != nil {
				return nil, err
			}
			return func() (int64, error) {
				d, err := p.vmcall(rttIters)
				rtt["vmcall"] = d
				return rttIters, err
			}, nil
		}})
	for _, op := range []string{"get", "put"} {
		for _, scheme := range kvs.KVSchemes {
			op, scheme := op, scheme
			points = append(points, paperPoint{"kv_" + op + "_" + scheme, lKVRun, func() (func() (int64, error), error) {
				m, err := bootKV(r, scheme, kvPhysBytes, kvs.DefaultLayout, 1, &req)
				if err != nil {
					return nil, err
				}
				if err := m.preload(r, keys, val); err != nil {
					return nil, err
				}
				cl, err := m.cluster()
				if err != nil {
					return nil, err
				}
				chooser, err := workload.NewUniform(r.seed*1000+100, paperKVKeys)
				if err != nil {
					return nil, err
				}
				choosers := []workload.KeyChooser{chooser}
				return func() (int64, error) {
					var res *kvs.Result
					var err error
					if op == "get" {
						res, err = cl.RunGets(kvOps, keys, choosers)
					} else {
						res, err = cl.RunPuts(kvOps, keys, choosers, val)
					}
					if err != nil {
						return 0, err
					}
					kvMops[op+"_"+scheme] = res.AggMops
					for _, c := range m.clients {
						o.add("kv %s %s gets=%d puts=%d misses=%d get_sim=%d clock=%d agg_mops=%.9g",
							op, scheme, c.gets, c.puts, c.misses, c.getSim, c.vcpu.Clock().Now(), res.AggMops)
						gets += c.gets
						puts += c.puts
						misses += c.misses
					}
					return res.Ops, nil
				}, nil
			}})
		}
	}
	for _, scenario := range []string{"rx", "tx", "vv"} {
		for _, scheme := range vnet.Schemes {
			scenario, scheme := scenario, scheme
			points = append(points, paperPoint{"net_" + scenario + "_" + scheme, lVnet, func() (func() (int64, error), error) {
				var run func() (*vnet.Result, error)
				err := r.boot(func() error {
					if scenario == "vv" {
						p, err := vnet.BuildVVPath(scheme)
						run = func() (*vnet.Result, error) { return vnet.RunVV(p, paperPktBytes, packets) }
						return err
					}
					_, nic, b, err := vnet.BuildBackend(scheme)
					if scenario == "rx" {
						run = func() (*vnet.Result, error) { return vnet.RunRX(nic, b, paperPktBytes, packets) }
					} else {
						run = func() (*vnet.Result, error) { return vnet.RunTX(nic, b, paperPktBytes, packets) }
					}
					return err
				})
				if err != nil {
					return nil, err
				}
				return func() (int64, error) {
					res, err := run()
					if err != nil {
						return 0, err
					}
					netMpps[scenario+"_"+scheme] = res.Mpps
					o.add("net %s %s packets=%d elapsed=%d mpps=%.9g", scenario, scheme, res.Packets, res.Elapsed, res.Mpps)
					o.check(res.Packets == packets, "net %s %s moved %d of %d packets", scenario, scheme, res.Packets, packets)
					return int64(res.Packets), nil
				}, nil
			}})
		}
	}
	for _, scheme := range vnet.Schemes {
		scheme := scheme
		// mcd.Sweep calibrates on a vnet machine it boots itself, so
		// that boot falls inside the measured body.
		points = append(points, paperPoint{"mcd_" + scheme, lMcd, func() (func() (int64, error), error) {
			return func() (int64, error) {
				c, err := mcd.Sweep(scheme, mcdReqs)
				if err != nil {
					return 0, err
				}
				curves[scheme] = c
				return int64(len(c.Points) * mcdReqs), nil
			}, nil
		}})
	}

	// The fleet point boots its own 4-shard cluster; its layers (workload,
	// cluster lanes, fleet/des, overload, shm rings) run nowhere else.
	var fr fleetRun
	points = append(points, paperPoint{"fleet_replay", lReplay, func() (func() (int64, error), error) {
		if err := fr.boot(r); err != nil {
			return nil, err
		}
		return func() (int64, error) { return fr.replay(r) }, nil
	}})

	for i, pt := range points {
		r.settle()
		var body func() (int64, error)
		if err := r.doSetup(func() error {
			var err error
			body, err = pt.boot()
			return err
		}); err != nil {
			return fmt.Errorf("%s: %w", pt.name, err)
		}
		r.ready()
		if err := r.doMeasure(func() (int64, error) {
			var ops int64
			err := r.span(pt.layer, int64(i), func() error {
				var err error
				ops, err = body()
				return err
			})
			return ops, err
		}); err != nil {
			return fmt.Errorf("%s: %w", pt.name, err)
		}
	}

	return r.doVerify(func() error {
		recordRTT(o, rtt["elisa"], rtt["vmcall"])
		o.check(misses == 0, "%d preloaded GETs missed", misses)
		o.failedOps += misses
		kvGain := (kvMops["get_elisa"]/kvMops["get_vmcall"] - 1) * 100
		o.check(kvGain > 0, "ELISA KV GET %+.1f%% not ahead of VMCALL", kvGain)
		o.ratio("kv_get_gain_pct", kvGain, paperKVGetPct)
		for _, scenario := range []string{"rx", "tx", "vv"} {
			g := (netMpps[scenario+"_elisa"]/netMpps[scenario+"_vmcall"] - 1) * 100
			o.check(g > 0, "ELISA net %s %+.1f%% not ahead of VMCALL", scenario, g)
			o.ratio("net_"+scenario+"_gain_pct", g, paperNetGain[scenario])
		}
		var mcdRequests int64
		for _, scheme := range vnet.Schemes {
			c := curves[scheme]
			o.add("mcd %s service=%d capacity=%.9g", scheme, c.Service, c.Capacity)
			for _, p := range c.Points {
				o.add("mcd %s offered=%.9g achieved=%.9g p50=%d p99=%d", scheme, p.OfferedKRPS, p.AchievedKRPS, p.P50, p.P99)
			}
			o.check(len(c.Points) == len(mcd.LoadFractions), "mcd %s: %d load points", scheme, len(c.Points))
			mcdRequests += int64(len(c.Points) * mcdReqs)
		}
		mg := (curves["elisa"].Capacity/curves["vmcall"].Capacity - 1) * 100
		o.check(mg > 0, "ELISA memcached capacity %+.1f%% not ahead of VMCALL", mg)
		o.ratio("mcd_capacity_gain_pct", mg, paperMcdCap)
		fr.check(r)
		o.ops = r.simOps

		r.count("kvs.gets", float64(gets))
		r.count("kvs.puts", float64(puts))
		if gets > 0 {
			r.count("kvs.get_hit_ratio", float64(gets-misses)/float64(gets))
		}
		r.count("vnet.points", float64(len(netMpps)))
		r.count("vnet.packets", float64(len(netMpps)*packets))
		r.count("mcd.requests", float64(mcdRequests))
		return nil
	})
}

// bootProbe boots the one-guest micro machine Table 2 runs on.
func bootProbe(r *round) (*rttProbe, error) {
	var h *hv.Hypervisor
	var mgr *core.Manager
	if err := r.boot(func() error {
		var err error
		if h, err = hv.New(hv.Config{PhysBytes: microPhys}); err != nil {
			return err
		}
		mgr, err = core.NewManager(h, core.ManagerConfig{})
		return err
	}); err != nil {
		return nil, err
	}
	return newRTTProbe(r, h, mgr)
}
