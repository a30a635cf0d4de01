package vnet

import (
	"testing"

	"github.com/elisa-go/elisa/internal/hv"
	"github.com/elisa-go/elisa/internal/simtime"
)

func TestNICGenerateRXRespectsDeadlineAndRate(t *testing.T) {
	h, err := hv.New(hv.Config{PhysBytes: 64 * 1024 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	nic, err := NewNIC(h)
	if err != nil {
		t.Fatal(err)
	}
	// At 64B the wire needs 67ns/frame: by t=670 exactly 10 frames fit.
	added, wireT, err := nic.GenerateRX(1000, 64, simtime.Time(670))
	if err != nil {
		t.Fatal(err)
	}
	if added != 10 {
		t.Fatalf("added %d frames by t=670, want 10", added)
	}
	if wireT != 670 {
		t.Fatalf("wire at %d", wireT)
	}
	// The ring caps the backlog.
	added, _, err = nic.GenerateRX(1000, 64, simtime.Time(1_000_000_000))
	if err != nil {
		t.Fatal(err)
	}
	if added != RingSlots-10 {
		t.Fatalf("backlog %d, want ring capacity %d", added+10, RingSlots)
	}
	if _, _, err := nic.GenerateRX(1, 0, 0); err == nil {
		t.Fatal("size 0 accepted")
	}
	if _, _, err := nic.GenerateRX(1, SlotBytes+1, 0); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

func TestNICDrainTXVerifiesAndTimes(t *testing.T) {
	h, nic, b, err := BuildBackend("ivshmem")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.SendBatch(5, 128); err != nil {
		t.Fatal(err)
	}
	drained, wire, err := nic.DrainTX(0)
	if err != nil {
		t.Fatal(err)
	}
	if drained != 5 || nic.TXVerified() != 5 {
		t.Fatalf("drained=%d verified=%d", drained, nic.TXVerified())
	}
	want := simtime.Time(5 * int64(h.Cost().NICWireTime(128)))
	if wire != want {
		t.Fatalf("wire time %d, want %d", wire, want)
	}
}

func TestEachBackendMovesRealBytesRX(t *testing.T) {
	for _, scheme := range Schemes {
		t.Run(scheme, func(t *testing.T) {
			_, nic, b, err := BuildBackend(scheme)
			if err != nil {
				t.Fatal(err)
			}
			// Preload 32 frames "from the wire".
			if _, _, err := nic.GenerateRX(32, 256, simtime.Time(1<<40)); err != nil {
				t.Fatal(err)
			}
			got := 0
			for got < 32 {
				n, err := b.RecvBatch(BatchNIC)
				if err != nil {
					t.Fatal(err) // includes payload verification failures
				}
				if n == 0 {
					t.Fatalf("starved at %d/32", got)
				}
				got += n
			}
		})
	}
}

func TestEachBackendMovesRealBytesTX(t *testing.T) {
	for _, scheme := range Schemes {
		t.Run(scheme, func(t *testing.T) {
			_, nic, b, err := BuildBackend(scheme)
			if err != nil {
				t.Fatal(err)
			}
			sent := 0
			for sent < 32 {
				n, err := b.SendBatch(min(BatchNIC, 32-sent), 512)
				if err != nil {
					t.Fatal(err)
				}
				sent += n
			}
			drained, _, err := nic.DrainTX(0)
			if err != nil {
				t.Fatal(err) // includes integrity check
			}
			if drained != 32 || nic.TXVerified() != 32 {
				t.Fatalf("drained=%d verified=%d", drained, nic.TXVerified())
			}
		})
	}
}

func TestEachVVPathForwards(t *testing.T) {
	for _, scheme := range Schemes {
		t.Run(scheme, func(t *testing.T) {
			p, err := BuildVVPath(scheme)
			if err != nil {
				t.Fatal(err)
			}
			res, err := RunVV(p, 128, 200)
			if err != nil {
				t.Fatal(err)
			}
			if res.Packets != 200 || res.Mpps <= 0 {
				t.Fatalf("result %+v", res)
			}
		})
	}
}

// Every scheme refuses an empty frame and one no MTU slot holds, on the
// NIC and between VMs.
func TestEveryPathRefusesBadFrameSizes(t *testing.T) {
	for _, scheme := range Schemes {
		for _, size := range []int{0, SlotBytes + 1} {
			_, _, b, err := BuildBackend(scheme)
			if err != nil {
				t.Fatal(err)
			}
			if n, err := b.SendBatch(1, size); err == nil {
				t.Errorf("%s SendBatch accepted %d frame(s) of %d bytes", scheme, n, size)
			}
			p, err := BuildVVPath(scheme)
			if err != nil {
				t.Fatal(err)
			}
			if n, err := p.Send(1, size); err == nil {
				t.Errorf("%s vv Send accepted %d frame(s) of %d bytes", scheme, n, size)
			}
		}
	}
}

func TestELISABackendIsExitLess(t *testing.T) {
	_, nic, b, err := BuildBackend("elisa")
	if err != nil {
		t.Fatal(err)
	}
	_, _, _ = nic.GenerateRX(64, 64, simtime.Time(1<<40))
	v := b.Guest().VCPU()
	exits := v.Stats().Exits
	for i := 0; i < 4; i++ {
		if _, err := b.RecvBatch(16); err != nil {
			t.Fatal(err)
		}
		if _, err := b.SendBatch(16, 64); err != nil {
			t.Fatal(err)
		}
	}
	if v.Stats().Exits != exits {
		t.Fatalf("ELISA networking exited %d times", v.Stats().Exits-exits)
	}
}

// The paper's Figure shapes: at 64B, ivshmem ≈ SR-IOV ≈ line rate;
// ELISA ≈ +50% over VMCALL; VMCALL ≈ half of ivshmem (the -49%
// observation); vhost-net worst. At 1472B everyone converges on the wire.
func TestRXShapeMatchesPaper(t *testing.T) {
	rates := map[string]float64{}
	for _, scheme := range Schemes {
		_, nic, b, err := BuildBackend(scheme)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunRX(nic, b, 64, 4000)
		if err != nil {
			t.Fatal(err)
		}
		rates[scheme] = res.Mpps
	}
	t.Logf("RX 64B Mpps: %+v", rates)
	if rates["ivshmem"] < 13.5 || rates["ivshmem"] > 15.2 {
		t.Errorf("ivshmem 64B RX = %.2f Mpps, want ~line rate 14.88", rates["ivshmem"])
	}
	if r := rates["sriov"] / rates["ivshmem"]; r < 0.9 || r > 1.1 {
		t.Errorf("sriov/ivshmem = %.2f, want ~1", r)
	}
	if r := rates["elisa"] / rates["vmcall"]; r < 1.3 || r > 1.8 {
		t.Errorf("elisa/vmcall RX = %.2f, paper reports ~1.49", r)
	}
	if r := rates["vmcall"] / rates["ivshmem"]; r < 0.4 || r > 0.65 {
		t.Errorf("vmcall/ivshmem = %.2f, paper motivates ~0.51", r)
	}
	if rates["vhost-net"] >= rates["vmcall"] {
		t.Errorf("vhost-net (%.2f) should be below vmcall (%.2f)", rates["vhost-net"], rates["vmcall"])
	}
}

func TestLargePacketsConvergeOnLineRate(t *testing.T) {
	line := 1e3 / float64(simtime.Default().NICWireTime(1472)) // Mpps
	for _, scheme := range Schemes {
		_, nic, b, err := BuildBackend(scheme)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunRX(nic, b, 1472, 1500)
		if err != nil {
			t.Fatal(err)
		}
		if res.Mpps < 0.55*line {
			t.Errorf("%s 1472B RX = %.3f Mpps, line rate is %.3f — too far off", scheme, res.Mpps, line)
		}
	}
}

func TestVVShapeMatchesPaper(t *testing.T) {
	rates := map[string]float64{}
	for _, scheme := range Schemes {
		p, err := BuildVVPath(scheme)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunVV(p, 64, 4000)
		if err != nil {
			t.Fatal(err)
		}
		rates[scheme] = res.Mpps
	}
	t.Logf("VM-to-VM 64B Mpps: %+v", rates)
	if r := rates["elisa"]/rates["vmcall"] - 1; r < 1.2 || r > 3.2 {
		t.Errorf("elisa gain over vmcall = %.0f%%, paper reports +163%%", r*100)
	}
	if rates["ivshmem"] <= rates["elisa"] {
		t.Errorf("ivshmem (%.2f) must lead elisa (%.2f)", rates["ivshmem"], rates["elisa"])
	}
	if rates["vhost-net"] >= rates["vmcall"] {
		t.Errorf("vhost-net above vmcall")
	}
}

func TestTXShapeMatchesPaper(t *testing.T) {
	rates := map[string]float64{}
	for _, scheme := range Schemes {
		_, nic, b, err := BuildBackend(scheme)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunTX(nic, b, 64, 4000)
		if err != nil {
			t.Fatal(err)
		}
		rates[scheme] = res.Mpps
	}
	t.Logf("TX 64B Mpps: %+v", rates)
	if r := rates["elisa"] / rates["vmcall"]; r < 1.3 || r > 1.9 {
		t.Errorf("elisa/vmcall TX = %.2f, paper reports ~1.54", r)
	}
	if rates["ivshmem"] < 13.5 {
		t.Errorf("ivshmem TX = %.2f, want ~line rate", rates["ivshmem"])
	}
}

func TestRunValidation(t *testing.T) {
	_, nic, b, _ := BuildBackend("ivshmem")
	if _, err := RunRX(nic, b, 64, 0); err == nil {
		t.Error("RunRX total 0 accepted")
	}
	if _, err := RunTX(nic, b, 64, -1); err == nil {
		t.Error("RunTX negative total accepted")
	}
	p, _ := BuildVVPath("ivshmem")
	if _, err := RunVV(p, 64, 0); err == nil {
		t.Error("RunVV total 0 accepted")
	}
	if _, _, _, err := BuildBackend("bogus"); err == nil {
		t.Error("bogus scheme accepted")
	}
	if _, err := BuildVVPath("bogus"); err == nil {
		t.Error("bogus vv scheme accepted")
	}
}

func TestTXConvergesOnLineRateAtMTU(t *testing.T) {
	line := 1e3 / float64(simtime.Default().NICWireTime(1472)) // Mpps
	for _, scheme := range Schemes {
		_, nic, b, err := BuildBackend(scheme)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunTX(nic, b, 1472, 1500)
		if err != nil {
			t.Fatal(err)
		}
		if res.Mpps < 0.55*line || res.Mpps > 1.05*line {
			t.Errorf("%s 1472B TX = %.3f Mpps, line %.3f", scheme, res.Mpps, line)
		}
	}
}

func TestNetworkingIsDeterministic(t *testing.T) {
	run := func() (float64, float64) {
		_, nic, b, err := BuildBackend("elisa")
		if err != nil {
			t.Fatal(err)
		}
		rx, err := RunRX(nic, b, 256, 1000)
		if err != nil {
			t.Fatal(err)
		}
		p, err := BuildVVPath("vmcall")
		if err != nil {
			t.Fatal(err)
		}
		vv, err := RunVV(p, 256, 1000)
		if err != nil {
			t.Fatal(err)
		}
		return rx.Mpps, vv.Mpps
	}
	a1, b1 := run()
	a2, b2 := run()
	if a1 != a2 || b1 != b2 {
		t.Fatalf("nondeterministic: (%v,%v) vs (%v,%v)", a1, b1, a2, b2)
	}
}

func TestSharedClusterValidation(t *testing.T) {
	if _, err := BuildSharedCluster("elisa", 0); err == nil {
		t.Error("zero VMs accepted")
	}
	if _, err := BuildSharedCluster("bogus", 1); err == nil {
		t.Error("bogus scheme accepted")
	}
	c, err := BuildSharedCluster("elisa", 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunSharedRX(64, 0); err == nil {
		t.Error("zero window accepted")
	}
}

// Consolidation: one VMCALL VM cannot saturate the wire; adding VMs
// closes the gap. ELISA saturates with fewer VMs — the paper's CPU
// efficiency argument, aggregated.
func TestSharedNICConsolidation(t *testing.T) {
	agg := func(scheme string, vms int) float64 {
		c, err := BuildSharedCluster(scheme, vms)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.RunSharedRX(64, 200*simtime.Microsecond)
		if err != nil {
			t.Fatal(err)
		}
		return res.AggMpps
	}
	line := 1e3 / float64(simtime.Default().NICWireTime(64))

	e1, e2 := agg("elisa", 1), agg("elisa", 2)
	v1, v2 := agg("vmcall", 1), agg("vmcall", 2)
	t.Logf("aggregate 64B Mpps: elisa 1VM=%.2f 2VM=%.2f; vmcall 1VM=%.2f 2VM=%.2f (line %.2f)", e1, e2, v1, v2, line)

	// Single-VM: elisa close to line rate, vmcall far below.
	if e1 < 0.7*line {
		t.Errorf("elisa 1VM = %.2f, want near line %.2f", e1, line)
	}
	if v1 > 0.65*line {
		t.Errorf("vmcall 1VM = %.2f, unexpectedly near line", v1)
	}
	// Two VMCALL VMs saturate what one could not.
	if v2 < 1.5*v1 {
		t.Errorf("vmcall did not scale with a second VM: %.2f -> %.2f", v1, v2)
	}
	if v2 > 1.05*line || e2 > 1.05*line {
		t.Errorf("aggregate exceeded the wire: vmcall=%.2f elisa=%.2f line=%.2f", v2, e2, line)
	}
	// Each scheme's multi-VM aggregate approaches line rate.
	if e2 < 0.85*line || v2 < 0.85*line {
		t.Errorf("2-VM aggregates below wire: elisa=%.2f vmcall=%.2f", e2, v2)
	}
}

// Five schemes all work in the shared deployment and move verified bytes.
func TestSharedClusterAllSchemes(t *testing.T) {
	for _, scheme := range Schemes {
		t.Run(scheme, func(t *testing.T) {
			c, err := BuildSharedCluster(scheme, 3)
			if err != nil {
				t.Fatal(err)
			}
			res, err := c.RunSharedRX(256, 50*simtime.Microsecond)
			if err != nil {
				t.Fatal(err)
			}
			if res.VMs != 3 || res.AggMpps <= 0 {
				t.Fatalf("result %+v", res)
			}
		})
	}
}
