package kvs

import (
	"fmt"

	"github.com/elisa-go/elisa/internal/core"
	"github.com/elisa-go/elisa/internal/hv"
	"github.com/elisa-go/elisa/internal/mem"
	"github.com/elisa-go/elisa/internal/obs"
)

// KVSchemes lists the three sharing schemes of the paper's KV figures.
var KVSchemes = []string{"ivshmem", "vmcall", "elisa"}

// DefaultLayout is the table geometry the experiments use: memcached-ish
// 32-byte keys and 256-byte values.
var DefaultLayout = Layout{Buckets: 4096, KeySize: 32, ValSize: 256}

// clientStaging is where VMCALL clients stage requests in guest RAM.
const clientStaging mem.GPA = 0x2000

// BuildCluster assembles a fresh machine running `vms` client VMs against
// one shared store through the named scheme.
func BuildCluster(scheme string, vms int, l Layout) (*Cluster, error) {
	return BuildObservedCluster(scheme, vms, l, nil)
}

// BuildObservedCluster is BuildCluster with a flight recorder attached to
// the ELISA manager, so the store's fast-path calls populate per-client
// latency histograms and sampled spans. The recorder is ignored by the
// exit-ful schemes (ivshmem, vmcall), whose data paths never cross a
// gate; nil behaves exactly like BuildCluster.
func BuildObservedCluster(scheme string, vms int, l Layout, rec *obs.Recorder) (*Cluster, error) {
	if vms <= 0 {
		return nil, fmt.Errorf("kvs: cluster needs at least one VM")
	}
	h, err := hv.New(hv.Config{PhysBytes: 512 * 1024 * 1024})
	if err != nil {
		return nil, err
	}
	var newClient func(vm *hv.VM) (Client, error)
	switch scheme {
	case "ivshmem":
		svc, err := NewDirectService(h, l)
		if err != nil {
			return nil, err
		}
		newClient = func(vm *hv.VM) (Client, error) { return svc.NewClient(vm) }
	case "vmcall":
		svc, err := NewVMCallService(h, l)
		if err != nil {
			return nil, err
		}
		newClient = func(vm *hv.VM) (Client, error) { return svc.NewClient(vm, clientStaging) }
	case "elisa":
		mgr, err := core.NewManager(h, core.ManagerConfig{})
		if err != nil {
			return nil, err
		}
		mgr.SetRecorder(rec)
		svc, err := NewELISAService(h, mgr, "kv-store", l)
		if err != nil {
			return nil, err
		}
		newClient = func(vm *hv.VM) (Client, error) {
			g, err := core.NewGuest(vm, mgr)
			if err != nil {
				return nil, err
			}
			return svc.NewClient(g)
		}
	default:
		return nil, fmt.Errorf("kvs: unknown scheme %q", scheme)
	}
	clients := make([]Client, vms)
	for i := range clients {
		vm, err := h.CreateVM(fmt.Sprintf("kv-client-%d", i), 16*mem.PageSize)
		if err != nil {
			return nil, err
		}
		if clients[i], err = newClient(vm); err != nil {
			return nil, err
		}
	}
	return NewCluster(clients...)
}
