package kvs

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/elisa-go/elisa/internal/core"
	"github.com/elisa-go/elisa/internal/cpu"
	"github.com/elisa-go/elisa/internal/hv"
	"github.com/elisa-go/elisa/internal/mem"
	"github.com/elisa-go/elisa/internal/workload"
)

var clientLayout = Layout{Buckets: 1024, KeySize: 32, ValSize: 256}

// buildCluster assembles n client VMs for the given scheme over one fresh
// machine.
func buildCluster(t *testing.T, scheme string, n int) []Client {
	t.Helper()
	h, err := hv.New(hv.Config{PhysBytes: 256 * 1024 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	clients := make([]Client, n)
	switch scheme {
	case "ivshmem":
		svc, err := NewDirectService(h, clientLayout)
		if err != nil {
			t.Fatal(err)
		}
		for i := range clients {
			vm, err := h.CreateVM(fmt.Sprintf("g%d", i), 16*mem.PageSize)
			if err != nil {
				t.Fatal(err)
			}
			clients[i], err = svc.NewClient(vm)
			if err != nil {
				t.Fatal(err)
			}
		}
	case "vmcall":
		svc, err := NewVMCallService(h, clientLayout)
		if err != nil {
			t.Fatal(err)
		}
		for i := range clients {
			vm, err := h.CreateVM(fmt.Sprintf("g%d", i), 16*mem.PageSize)
			if err != nil {
				t.Fatal(err)
			}
			clients[i], err = svc.NewClient(vm, 0x2000)
			if err != nil {
				t.Fatal(err)
			}
		}
	case "elisa":
		mgr, err := core.NewManager(h, core.ManagerConfig{})
		if err != nil {
			t.Fatal(err)
		}
		svc, err := NewELISAService(h, mgr, "kvs", clientLayout)
		if err != nil {
			t.Fatal(err)
		}
		for i := range clients {
			vm, err := h.CreateVM(fmt.Sprintf("g%d", i), 16*mem.PageSize)
			if err != nil {
				t.Fatal(err)
			}
			g, err := core.NewGuest(vm, mgr)
			if err != nil {
				t.Fatal(err)
			}
			clients[i], err = svc.NewClient(g)
			if err != nil {
				t.Fatal(err)
			}
		}
	default:
		t.Fatalf("unknown scheme %q", scheme)
	}
	return clients
}

// VCPUOf returns the vCPU a client issues operations on.
func VCPUOf(c Client) *cpu.VCPU {
	switch x := c.(type) {
	case *DirectClient:
		return x.v
	case *VMCallClient:
		return x.v
	case *ELISAClient:
		return x.v
	}
	return nil
}

func TestEachSchemeRoundTripsAcrossVMs(t *testing.T) {
	for _, scheme := range []string{"ivshmem", "vmcall", "elisa"} {
		t.Run(scheme, func(t *testing.T) {
			clients := buildCluster(t, scheme, 2)
			a, b := clients[0], clients[1]
			key := []byte("cross-vm-key")
			val := make([]byte, 100)
			workload.FillPattern(val, 5)
			if _, err := a.Put(key, val); err != nil {
				t.Fatal(err)
			}
			got := make([]byte, clientLayout.ValSize)
			found, err := b.Get(key, got)
			if err != nil || !found {
				t.Fatalf("B get: %v %v", found, err)
			}
			if !bytes.Equal(got[:100], val) {
				t.Fatal("payload corrupted crossing VMs")
			}
			if a.Scheme() != scheme {
				t.Fatalf("scheme = %q", a.Scheme())
			}
			// Missing keys report found=false without error.
			found, err = b.Get([]byte("never-inserted"), got)
			if err != nil || found {
				t.Fatalf("missing key: %v %v", found, err)
			}
		})
	}
}

func TestELISAClientIsExitLess(t *testing.T) {
	clients := buildCluster(t, "elisa", 1)
	c := clients[0]
	key, val := []byte("k"), make([]byte, 64)
	if _, err := c.Put(key, val); err != nil {
		t.Fatal(err)
	}
	v := VCPUOf(c)
	exits := v.Stats().Exits
	got := make([]byte, clientLayout.ValSize)
	for i := 0; i < 50; i++ {
		if _, err := c.Get(key, got); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Put(key, val); err != nil {
			t.Fatal(err)
		}
	}
	if v.Stats().Exits != exits {
		t.Fatalf("ELISA data path exited %d times", v.Stats().Exits-exits)
	}
}

func TestVMCallClientExitsPerOp(t *testing.T) {
	clients := buildCluster(t, "vmcall", 1)
	c := clients[0]
	key, val := []byte("k"), make([]byte, 64)
	_, _ = c.Put(key, val)
	v := VCPUOf(c)
	exits := v.Stats().Exits
	got := make([]byte, clientLayout.ValSize)
	for i := 0; i < 10; i++ {
		if _, err := c.Get(key, got); err != nil {
			t.Fatal(err)
		}
	}
	if v.Stats().Exits-exits != 10 {
		t.Fatalf("VMCALL GETs exited %d times, want 10", v.Stats().Exits-exits)
	}
}

// The paper's ordering: ivshmem fastest, ELISA close behind, VMCALL far
// behind — for both GET and PUT on a single VM.
func TestSchemeOrderingSingleVM(t *testing.T) {
	rates := map[string]struct{ get, put float64 }{}
	for _, scheme := range []string{"ivshmem", "vmcall", "elisa"} {
		clients := buildCluster(t, scheme, 1)
		cluster, _ := NewCluster(clients...)
		keys := makeKeys(256)
		val := make([]byte, 200)
		if err := cluster.Preload(keys, val); err != nil {
			t.Fatal(err)
		}
		ch, _ := workload.NewUniform(1, len(keys))
		getRes, err := cluster.RunGets(2000, keys, []workload.KeyChooser{ch})
		if err != nil {
			t.Fatal(err)
		}
		ch2, _ := workload.NewUniform(2, len(keys))
		putRes, err := cluster.RunPuts(2000, keys, []workload.KeyChooser{ch2}, val)
		if err != nil {
			t.Fatal(err)
		}
		rates[scheme] = struct{ get, put float64 }{getRes.AggMops, putRes.AggMops}
	}
	t.Logf("GET Mops: ivshmem=%.2f elisa=%.2f vmcall=%.2f",
		rates["ivshmem"].get, rates["elisa"].get, rates["vmcall"].get)
	t.Logf("PUT Mops: ivshmem=%.2f elisa=%.2f vmcall=%.2f",
		rates["ivshmem"].put, rates["elisa"].put, rates["vmcall"].put)
	if !(rates["ivshmem"].get > rates["elisa"].get && rates["elisa"].get > rates["vmcall"].get) {
		t.Fatalf("GET ordering broken: %+v", rates)
	}
	if !(rates["ivshmem"].put > rates["elisa"].put && rates["elisa"].put > rates["vmcall"].put) {
		t.Fatalf("PUT ordering broken: %+v", rates)
	}
	// The headline claim: ELISA GET meaningfully above VMCALL (paper: +64%).
	gain := rates["elisa"].get/rates["vmcall"].get - 1
	if gain < 0.35 || gain > 1.2 {
		t.Errorf("ELISA GET gain over VMCALL = %.0f%%, paper reports ~64%%", gain*100)
	}
}

func makeKeys(n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%08d", i))
	}
	return keys
}

func TestClusterGetScalesPutPlateaus(t *testing.T) {
	single := func(scheme string, vms int) (get, put float64) {
		clients := buildCluster(t, scheme, vms)
		cluster, _ := NewCluster(clients...)
		keys := makeKeys(512)
		val := make([]byte, 200)
		if err := cluster.Preload(keys, val); err != nil {
			t.Fatal(err)
		}
		choosers := make([]workload.KeyChooser, vms)
		for i := range choosers {
			choosers[i], _ = workload.NewUniform(int64(i+1), len(keys))
		}
		g, err := cluster.RunGets(500, keys, choosers)
		if err != nil {
			t.Fatal(err)
		}
		p, err := cluster.RunPuts(500, keys, choosers, val)
		if err != nil {
			t.Fatal(err)
		}
		return g.AggMops, p.AggMops
	}
	g1, p1 := single("elisa", 1)
	g8, p8 := single("elisa", 8)
	t.Logf("elisa: GET 1VM=%.2f 8VM=%.2f; PUT 1VM=%.2f 8VM=%.2f", g1, g8, p1, p8)
	if g8 < 6*g1 {
		t.Fatalf("GET did not scale: 1VM=%.2f 8VM=%.2f", g1, g8)
	}
	if p8 > 6.5*p1 {
		t.Fatalf("PUT did not serialise: 1VM=%.2f 8VM=%.2f", p1, p8)
	}
	if p8 < p1 {
		t.Fatalf("PUT aggregate fell below single VM: %.2f < %.2f", p8, p1)
	}
}

func TestClusterValidation(t *testing.T) {
	if _, err := NewCluster(); err == nil {
		t.Fatal("empty cluster accepted")
	}
	clients := buildCluster(t, "ivshmem", 2)
	cluster, _ := NewCluster(clients...)
	keys := makeKeys(8)
	ch, _ := workload.NewUniform(1, 8)
	if _, err := cluster.RunGets(1, keys, []workload.KeyChooser{ch}); err == nil {
		t.Fatal("chooser/client mismatch accepted")
	}
}

func TestVMCallStagingValidation(t *testing.T) {
	h, _ := hv.New(hv.Config{PhysBytes: 64 * 1024 * 1024})
	svc, _ := NewVMCallService(h, clientLayout)
	vm, _ := h.CreateVM("g", 2*mem.PageSize)
	if _, err := svc.NewClient(vm, mem.GPA(2*mem.PageSize-64)); err == nil {
		t.Fatal("staging outside RAM accepted")
	}
}

func TestKVSIsDeterministic(t *testing.T) {
	run := func() (float64, float64) {
		cluster, err := BuildCluster("elisa", 3, DefaultLayout)
		if err != nil {
			t.Fatal(err)
		}
		keys := makeKeys(128)
		val := make([]byte, 100)
		if err := cluster.Preload(keys, val); err != nil {
			t.Fatal(err)
		}
		choosers := make([]workload.KeyChooser, 3)
		for i := range choosers {
			choosers[i], _ = workload.NewUniform(int64(i+9), len(keys))
		}
		g, err := cluster.RunGets(400, keys, choosers)
		if err != nil {
			t.Fatal(err)
		}
		p, err := cluster.RunPuts(400, keys, choosers, val)
		if err != nil {
			t.Fatal(err)
		}
		return g.AggMops, p.AggMops
	}
	g1, p1 := run()
	g2, p2 := run()
	if g1 != g2 || p1 != p2 {
		t.Fatalf("nondeterministic: (%v,%v) vs (%v,%v)", g1, p1, g2, p2)
	}
}

func TestDeleteThroughEveryScheme(t *testing.T) {
	for _, scheme := range []string{"ivshmem", "vmcall", "elisa"} {
		t.Run(scheme, func(t *testing.T) {
			clients := buildCluster(t, scheme, 2)
			a, b := clients[0], clients[1]
			key := []byte("ephemeral")
			val := make([]byte, 64)
			if _, err := a.Put(key, val); err != nil {
				t.Fatal(err)
			}
			// B deletes what A inserted.
			existed, err := b.Delete(key)
			if err != nil || !existed {
				t.Fatalf("delete: %v %v", existed, err)
			}
			// A no longer sees it.
			got := make([]byte, clientLayout.ValSize)
			found, err := a.Get(key, got)
			if err != nil || found {
				t.Fatalf("key survived cross-VM delete: %v %v", found, err)
			}
			// Double delete reports absence without error.
			existed, err = a.Delete(key)
			if err != nil || existed {
				t.Fatalf("double delete: %v %v", existed, err)
			}
		})
	}
}

func TestRunMixedWorkload(t *testing.T) {
	clients := buildCluster(t, "elisa", 4)
	cluster, _ := NewCluster(clients...)
	keys := makeKeys(256)
	val := make([]byte, 200)
	if err := cluster.Preload(keys, val); err != nil {
		t.Fatal(err)
	}
	choosers := make([]workload.KeyChooser, 4)
	mixes := make([]*workload.Mix, 4)
	for i := range choosers {
		choosers[i], _ = workload.NewUniform(int64(i+1), len(keys))
		mixes[i], _ = workload.NewMix(int64(i+1), 0.95)
	}
	res, err := cluster.RunMixed(1000, keys, choosers, mixes, val)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 4000 || res.AggMops <= 0 {
		t.Fatalf("mixed result %+v", res)
	}
	// A 95/5 mix sits between pure-GET and pure-PUT rates.
	getRes, _ := cluster.RunGets(1000, keys, choosers)
	if res.AggMops > getRes.AggMops*1.02 {
		t.Fatalf("mixed (%.2f) above pure GET (%.2f)", res.AggMops, getRes.AggMops)
	}
	// Mismatched slices rejected.
	if _, err := cluster.RunMixed(1, keys, choosers[:2], mixes, val); err == nil {
		t.Fatal("chooser mismatch accepted")
	}
}
