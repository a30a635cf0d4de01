package simtime

// CostModel holds every simulated-time constant used by the reproduction.
// The defaults are calibrated so the microbenchmarks land on the paper's
// Table 2 ("Context Round-trip Time": ELISA 196 ns, VMCALL 699 ns); all
// higher-level experiments inherit that asymmetry, which is what makes the
// relative shapes of the paper's figures come out.
//
// Experiments compare schemes under one shared CostModel, so only relative
// numbers are meaningful — see EXPERIMENTS.md.
type CostModel struct {
	// VM exit / entry: the two halves of a VMCALL hypercall round trip.
	// VMExit + VMEntry + HypercallDispatch = 699 ns, the paper's measured
	// VMCALL round trip.
	VMExit  Duration // guest -> host transition (exit reason decode included)
	VMEntry Duration // host -> guest transition (VMCS load, resume)

	// VMFunc is one execution of the VMFUNC instruction with leaf 0
	// (EPTP switching), including its microcoded EPTP-list read. The
	// ELISA call path executes it four times (default->gate->sub on the
	// way in, sub->gate->default on the way out); with two gate-code
	// traversals and six gate-page instruction fetches the round trip is
	// 4*VMFunc + 2*GateCode + 6*Instruction = 196 ns, the paper's
	// measured ELISA round trip.
	VMFunc Duration

	// GateCode is one traversal of the gate trampoline: register save or
	// restore, stack switch, and the EPTP-list index check, per direction.
	GateCode Duration

	// Instruction is the cost of one generic ALU-class simulated
	// instruction (compare, add, branch).
	Instruction Duration

	// CacheLine is the cost of moving one 64-byte cache line
	// (~64 GB/s single-core copy bandwidth).
	CacheLine Duration

	// MemAccess is one uncached word-sized load/store to simulated
	// physical memory (used for descriptor and pointer chasing costs).
	MemAccess Duration

	// TLBMiss is a guest-physical page walk after a TLB miss
	// (4 EPT levels of the two-dimensional walk, amortised).
	TLBMiss Duration

	// DRAMAccess is the latency of one cache-missing random access to
	// shared data (pointer-chasing through a hash table lives here, on
	// top of the bandwidth-style CacheLine cost).
	DRAMAccess Duration

	// LockAcquire / LockRelease are the uncontended costs of a shared
	// in-memory spinlock (atomic RMW + fence).
	LockAcquire Duration
	LockRelease Duration

	// HypercallDispatch is host-side work to route a hypercall to its
	// handler (on top of VMExit/VMEntry).
	HypercallDispatch Duration

	// IRQInject is the cost of injecting a virtual interrupt on the next
	// entry (used by vhost-net completion notification).
	IRQInject Duration

	// KickDoorbell is a PIO/MMIO doorbell write that traps to the host
	// (virtio kick); it costs a full exit on top of this decode overhead.
	KickDoorbell Duration

	// NICLineRateBps is the physical NIC line rate in bits per second
	// (the paper's HyperNF testbed is 10 GbE: 14.88 Mpps at 64 B frames).
	NICLineRateBps int64

	// NICFrameOverhead is the per-frame on-wire overhead in bytes
	// (preamble 7 + SFD 1 + IFG 12 = 20).
	NICFrameOverhead int

	// NICPerDescriptor is the NIC-side cost of consuming/producing one
	// DMA descriptor (device model processing).
	NICPerDescriptor Duration

	// SRIOVSwitchPerPacket is the embedded-switch cost an SR-IOV NIC pays
	// to hairpin a packet between two VFs (VM-to-VM traffic must traverse
	// the adapter).
	SRIOVSwitchPerPacket Duration
}

// Default returns the calibrated cost model. See DESIGN.md §5 for the
// derivation of each constant.
func Default() CostModel {
	return CostModel{
		VMExit:               380,
		VMEntry:              294,
		VMFunc:               40,
		GateCode:             15,
		Instruction:          1,
		CacheLine:            1,
		MemAccess:            4,
		TLBMiss:              20,
		DRAMAccess:           120,
		LockAcquire:          15,
		LockRelease:          8,
		HypercallDispatch:    25,
		IRQInject:            120,
		KickDoorbell:         30,
		NICLineRateBps:       10_000_000_000,
		NICFrameOverhead:     20,
		NICPerDescriptor:     10,
		SRIOVSwitchPerPacket: 35,
	}
}

// VMCallRoundTrip is the cost of an empty hypercall: exit, host dispatch,
// entry — 699 ns with the default model, the paper's Table 2 number.
func (m CostModel) VMCallRoundTrip() Duration {
	return m.VMExit + m.VMEntry + m.HypercallDispatch
}

// ELISARoundTrip is the architectural cost of an empty ELISA call: two
// EPTP switches, one gate traversal and three gate-page instruction
// fetches in each direction — 196 ns with the default model, the paper's
// Table 2 number. Package core's call path charges exactly these pieces.
func (m CostModel) ELISARoundTrip() Duration {
	return 4*m.VMFunc + 2*m.GateCode + 6*m.Instruction
}

// CopyCost is the simulated cost of copying n bytes (whole cache lines).
// Unlike the round-trip helpers above, which callers evaluate once on a
// DefaultCostModel() value, it has a pointer receiver: every simulated
// copy calls it, and a value receiver copies the whole model per call.
func (m *CostModel) CopyCost(n int) Duration {
	if n <= 0 {
		return 0
	}
	lines := (n + 63) / 64
	return Duration(lines) * m.CacheLine
}

// NICWireTime is the serialisation delay of one frame of `size` payload
// bytes on the physical wire, including per-frame overhead. This is the
// line-rate bound: 64-byte frames on 10 GbE take 67.2 ns => 14.88 Mpps.
func (m CostModel) NICWireTime(size int) Duration {
	bits := int64(size+m.NICFrameOverhead) * 8
	// ns = bits / (bps) * 1e9, computed without overflow for sane sizes.
	return Duration(bits * 1_000_000_000 / m.NICLineRateBps)
}
