package vnet

import (
	"fmt"

	"github.com/elisa-go/elisa/internal/core"
	"github.com/elisa-go/elisa/internal/hv"
	"github.com/elisa-go/elisa/internal/mem"
	"github.com/elisa-go/elisa/internal/obs"
	"github.com/elisa-go/elisa/internal/shm"
)

// Schemes lists the five backends of the paper's networking figures, in
// plot order.
var Schemes = []string{"ivshmem", "vmcall", "elisa", "vhost-net", "sriov"}

// guestRAM is the RAM given to networking guests (staging areas included).
const guestRAM = 64 * mem.PageSize

// physBytes is the machine size used by the networking experiments.
const physBytes = 256 * 1024 * 1024

// BuildBackend assembles a fresh machine — hypervisor, NIC, one guest —
// wired through the named scheme. Each call builds an isolated world, so
// schemes never share hypercall tables or rings.
func BuildBackend(scheme string) (*hv.Hypervisor, *NIC, Backend, error) {
	return BuildObservedBackend(scheme, nil)
}

// BuildObservedBackend is BuildBackend with a flight recorder attached to
// the ELISA manager, so the descriptor-batch calls of the elisa backend
// populate latency histograms and sampled spans. The recorder is ignored
// by the other schemes; nil behaves exactly like BuildBackend.
func BuildObservedBackend(scheme string, rec *obs.Recorder) (*hv.Hypervisor, *NIC, Backend, error) {
	c, err := buildSharedCluster(scheme, 1, rec)
	if err != nil {
		return nil, nil, nil, err
	}
	return c.h, c.nics[0], c.backends[0], nil
}

// service is one machine's wiring for one scheme: the hypercall or
// manager-function service its guests share, if the scheme has one.
type service struct {
	scheme string
	isvc   *InterposedService // vmcall, vhost-net
	esvc   *ELISANetService   // elisa
}

// newService registers the named scheme's service on h; rec, if not nil,
// records the ELISA manager's calls.
func newService(h *hv.Hypervisor, scheme string, rec *obs.Recorder) (*service, error) {
	s := &service{scheme: scheme}
	var err error
	switch scheme {
	case "ivshmem", "sriov":
		// direct paths need no shared service
	case "vmcall", "vhost-net":
		s.isvc, err = NewInterposedService(h, scheme == "vhost-net")
	case "elisa":
		var mgr *core.Manager
		if mgr, err = core.NewManager(h, core.ManagerConfig{}); err != nil {
			return nil, err
		}
		mgr.SetRecorder(rec)
		s.esvc, err = NewELISANetService(mgr)
	default:
		return nil, fmt.Errorf("vnet: unknown scheme %q", scheme)
	}
	if err != nil {
		return nil, err
	}
	return s, nil
}

// backend wires vm to q. app is the receiving application's
// instructions per frame: 0 on a NIC queue, vvAppInstr at a VM-to-VM
// receiver.
func (s *service) backend(vm *hv.VM, q queue, app int) (Backend, error) {
	switch s.scheme {
	case "ivshmem":
		return newDirect("ivshmem", vm, q, 0, app)
	case "sriov":
		return newDirect("sriov", vm, q, vfExtra, app)
	case "vmcall", "vhost-net":
		return s.isvc.newBackend(vm, q, app)
	}
	// elisa: the guest reaches its rings through the manager's objects.
	g, err := core.NewGuest(vm, s.esvc.mgr)
	if err != nil {
		return nil, err
	}
	return s.esvc.newBackend(g, q, app)
}

// newVVMachine boots a fresh machine with the two VM-to-VM guests.
func newVVMachine() (*hv.Hypervisor, *hv.VM, *hv.VM, error) {
	h, err := hv.New(hv.Config{PhysBytes: physBytes})
	if err != nil {
		return nil, nil, nil, err
	}
	a, err := h.CreateVM("vm-a", guestRAM)
	if err != nil {
		return nil, nil, nil, err
	}
	b, err := h.CreateVM("vm-b", guestRAM)
	if err != nil {
		return nil, nil, nil, err
	}
	return h, a, b, nil
}

// BuildRingVVPath assembles a fresh machine with two guests wired
// through the exit-less ring datapath ("elisa-ring"): same topology as
// BuildVVPath("elisa"), but both guests drive attachment call rings
// instead of one gate crossing per Send/Recv batch.
func BuildRingVVPath(cfg RingVVConfig) (*RingVVPath, error) {
	h, a, b, err := newVVMachine()
	if err != nil {
		return nil, err
	}
	mgr, err := core.NewManager(h, core.ManagerConfig{})
	if err != nil {
		return nil, err
	}
	ga, err := core.NewGuest(a, mgr)
	if err != nil {
		return nil, err
	}
	gb, err := core.NewGuest(b, mgr)
	if err != nil {
		return nil, err
	}
	return NewRingVVPath(h, mgr, ga, gb, cfg)
}

// BuildVVPath assembles a fresh machine with two guests wired through the
// named VM-to-VM scheme: A's backend sends into a forwarding ring and B's
// receives from it. Over SR-IOV each guest drives its own VF ring and the
// adapter hairpins frames from A's to B's.
func BuildVVPath(scheme string) (VVPath, error) {
	h, a, b, err := newVVMachine()
	if err != nil {
		return nil, err
	}
	s, err := newService(h, scheme, nil)
	if err != nil {
		return nil, err
	}
	ringA, devA, err := newVVRing(h)
	if err != nil {
		return nil, err
	}
	p := &vvPath{}
	if p.tx, err = s.backend(a, queue{tx: ringA, txObj: "vv-ring"}, 0); err != nil {
		return nil, err
	}
	ringB := ringA
	if scheme == "sriov" {
		var devB *shm.Ring
		if ringB, devB, err = newVVRing(h); err != nil {
			return nil, err
		}
		p.sw = &hairpin{from: devA, to: devB, cost: *h.Cost()}
	}
	if p.rx, err = s.backend(b, queue{rx: ringB, rxObj: "vv-ring"}, vvAppInstr); err != nil {
		return nil, err
	}
	return p, nil
}
