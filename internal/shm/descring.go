package shm

import (
	"encoding/binary"
	"fmt"
)

// CallRing is the exit-less datapath's descriptor ring: a single-producer/
// single-consumer pair of queues laid out in one shared-memory window. The
// guest pushes call descriptors (submission queue) and pops completions
// (completion queue); the manager — or the gate-path drain running as
// manager code on the guest's own vCPU — does the converse. Completions
// are produced strictly in submission order, so the SPSC indices are the
// whole protocol: no sequence numbers, no locks in the data plane.
//
// Layout (all index words u64, 8-byte aligned):
//
//	0:  sqHead   (submission consumer cursor)
//	8:  sqTail   (submission producer cursor)
//	16: cqHead   (completion consumer cursor)
//	24: cqTail   (completion producer cursor)
//	32: slot count (power of two; SQ and CQ have the same capacity)
//	40: kicks    (doorbell counter: producer-side flush notifications)
//	48:            slots * 48 B submission descriptors {fn, args[4], trace}
//	48+slots*48:   slots * 24 B completions {ret, status, trace}
//
// Like every shm structure it operates through a Window, so the same ring
// is driven by a guest vCPU on one side (charging its clock, subject to
// its EPT contexts) and host-side manager code on the other.
//
// The data plane uses the classic SPSC cursor-caching optimisation
// (virtio and io_uring drivers do the same): each cursor has exactly one
// writer, so the owning instance keeps its own cursor in a register
// (never re-read) and caches the opposite cursor, refreshing it from
// shared memory only when the cached view reports full/empty. Ownership
// contract: PushDesc and Kick must come from one instance (the guest
// submitter), PopComp from one instance (the guest poller — in practice
// the same one). The consuming side — gate-path flush, manager poller,
// administrative failure — has several instances that take turns under
// the caller's drain lock, so it cannot own cursors across calls;
// consumers instead batch through a DrainTxn, which snapshots the
// cursors once per session and publishes once at close.
type CallRing struct {
	w     Window
	slots int

	// Producer-owned cursors (single writer: this instance).
	ownSQTail uint64
	ownCQHead uint64
	ownKicks  uint64
	// Lazily-refreshed views of the cursors owned by the other side.
	// Stale-low is safe: the producer over-estimates fullness and the
	// consumer over-estimates emptiness, and both re-read before
	// reporting full/empty.
	cSQHead uint64
	cCQTail uint64

	// Record scratch. Every push/pop serialises one record through a
	// byte buffer before crossing the Window interface; a stack local
	// would escape through that interface call and cost one heap
	// allocation per data-plane operation. The instance-level scratch is
	// safe for the same reason the cursor caches are: each CallRing
	// instance is driven by one goroutine at a time (producer ownership
	// contract, consumers serialised under the caller's drain lock), and
	// each buffer's use begins and ends within a single call.
	dbuf [descBytes]byte
	cbuf [compBytes]byte
	curs [4]uint64 // BeginDrain's cursor block

	// txn is the reusable drain-session scratch handed out by BeginDrain.
	// At most one transaction per instance is live at a time — the same
	// serialisation contract that already governs consumers.
	txn DrainTxn
}

// Desc is one submitted operation: a manager-function ID plus the four
// register arguments a gate call would carry.
type Desc struct {
	// Fn is the manager function ID to invoke.
	Fn uint64
	// Args are the register arguments (RDI, RSI, RDX, RCX).
	Args [4]uint64
	// Trace is the causal trace ID stamped at Submit (0 = untraced). It
	// rides the descriptor through every drain side and is echoed into the
	// completion, so the flight recorder can link submit, drain, complete,
	// and poll events of one operation across batching and retries.
	Trace uint64
}

// Comp is one completed operation, in submission order.
type Comp struct {
	// Ret is the function result (the RAX a gate call would return).
	Ret uint64
	// Status is CompOK, CompErr, or CompBusy.
	Status uint64
	// Trace echoes the descriptor's causal trace ID (0 = untraced), so the
	// guest's poller can attribute the completion to the submit that caused
	// it even after busy bounce-backs reorder the retry queue.
	Trace uint64
}

// Completion status codes.
const (
	// CompOK marks a completion whose function returned without error.
	CompOK uint64 = 0
	// CompErr marks a completion whose function failed — including
	// descriptors failed administratively when their attachment was
	// revoked before they ran.
	CompErr uint64 = 1
	// CompBusy marks a completion refused for overload: the drain side
	// ran out of budget and bounced the descriptor back instead of
	// servicing it. The operation did not run; the guest may retry
	// after backing off (see core.RetryPolicy).
	CompBusy uint64 = 2
)

// Byte sizes of the on-ring records and header.
const (
	callRingHdr = 48
	descBytes   = 48 // fn + 4 args + trace
	compBytes   = 24 // ret + status + trace
)

// Header field offsets.
const (
	offSQHead = 0
	offSQTail = 8
	offCQHead = 16
	offCQTail = 24
	offSlots  = 32
	offKicks  = 40
)

// maxCallRingSlots bounds the geometry OpenCallRing will accept.
const maxCallRingSlots = 1 << 16

// CallRingBytes returns the window size a ring with the given slot count
// needs.
func CallRingBytes(slots int) int {
	return callRingHdr + slots*(descBytes+compBytes)
}

// InitCallRing formats a call ring in w. Geometry is recorded in the
// header; the other side attaches with OpenCallRing.
func InitCallRing(w Window, slots int) (*CallRing, error) {
	if slots <= 0 || slots&(slots-1) != 0 {
		return nil, fmt.Errorf("shm: call ring slots %d must be a positive power of two", slots)
	}
	if slots > maxCallRingSlots {
		return nil, fmt.Errorf("shm: call ring slots %d above cap %d", slots, maxCallRingSlots)
	}
	if need := CallRingBytes(slots); w.Size() < need {
		return nil, fmt.Errorf("shm: call ring needs %d bytes, window has %d", need, w.Size())
	}
	for _, off := range []int{offSQHead, offSQTail, offCQHead, offCQTail, offKicks} {
		if err := w.WriteU64(off, 0); err != nil {
			return nil, err
		}
	}
	if err := w.WriteU64(offSlots, uint64(slots)); err != nil {
		return nil, err
	}
	return &CallRing{w: w, slots: slots}, nil
}

// OpenCallRing attaches to a ring previously formatted with InitCallRing
// (the other side of the shared memory).
func OpenCallRing(w Window) (*CallRing, error) {
	slots, err := w.ReadU64(offSlots)
	if err != nil {
		return nil, err
	}
	if slots == 0 || slots&(slots-1) != 0 || slots > maxCallRingSlots {
		return nil, fmt.Errorf("shm: window does not contain a call ring (slots=%d)", slots)
	}
	r := &CallRing{w: w, slots: int(slots)}
	if need := CallRingBytes(r.slots); w.Size() < need {
		return nil, fmt.Errorf("shm: call ring header claims %d bytes, window has %d", need, w.Size())
	}
	// Seed the owned-cursor caches from the ring's current state (a
	// one-time cost at attach, not data-plane traffic).
	if r.ownSQTail, err = w.ReadU64(offSQTail); err != nil {
		return nil, err
	}
	if r.ownCQHead, err = w.ReadU64(offCQHead); err != nil {
		return nil, err
	}
	if r.ownKicks, err = w.ReadU64(offKicks); err != nil {
		return nil, err
	}
	r.cSQHead, _ = w.ReadU64(offSQHead)
	r.cCQTail, _ = w.ReadU64(offCQTail)
	return r, nil
}

// Slots returns the ring capacity (identical for SQ and CQ).
func (r *CallRing) Slots() int { return r.slots }

func (r *CallRing) descOff(index uint64) int {
	return callRingHdr + int(index%uint64(r.slots))*descBytes
}

func (r *CallRing) compOff(index uint64) int {
	return callRingHdr + r.slots*descBytes + int(index%uint64(r.slots))*compBytes
}

func (r *CallRing) pair(headOff, tailOff int) (head, tail uint64, err error) {
	if head, err = r.w.ReadU64(headOff); err != nil {
		return
	}
	tail, err = r.w.ReadU64(tailOff)
	return
}

// SubmitLen returns the number of submitted-but-not-drained descriptors.
func (r *CallRing) SubmitLen() (int, error) {
	head, tail, err := r.pair(offSQHead, offSQTail)
	return int(tail - head), err
}

// ProducerPending returns the number of submitted-but-not-drained
// descriptors as seen by the submitting instance: its own cached tail
// against a fresh read of the consumer cursor — half the memory traffic
// of SubmitLen. The refreshed head also updates the full-check cache.
func (r *CallRing) ProducerPending() (int, error) {
	head, err := r.w.ReadU64(offSQHead)
	if err != nil {
		return 0, err
	}
	r.cSQHead = head
	return int(r.ownSQTail - head), nil
}

// CompLen returns the number of completions awaiting the guest's poll.
func (r *CallRing) CompLen() (int, error) {
	head, tail, err := r.pair(offCQHead, offCQTail)
	return int(tail - head), err
}

// Submitted returns the lifetime descriptor count (the raw SQ tail).
func (r *CallRing) Submitted() (uint64, error) { return r.w.ReadU64(offSQTail) }

// Completed returns the lifetime completion count (the raw CQ tail).
func (r *CallRing) Completed() (uint64, error) { return r.w.ReadU64(offCQTail) }

// Kick bumps the doorbell counter: the producer's in-memory notification
// that descriptors await the poller. It never exits — the consumer reads
// the counter, nothing traps. The producer owns the counter, so this is
// a single store.
func (r *CallRing) Kick() error {
	if err := r.w.WriteU64(offKicks, r.ownKicks+1); err != nil {
		return err
	}
	r.ownKicks++
	return nil
}

// Kicks returns the lifetime doorbell count.
func (r *CallRing) Kicks() (uint64, error) { return r.w.ReadU64(offKicks) }

// PushDesc appends one descriptor to the submission queue. It reports
// false (without error) when the queue is full. The descriptor bytes are
// written before the tail is published, so an SPSC consumer that observes
// the new tail observes the whole descriptor (the index words are atomic
// in simulated physical memory, as on real hardware).
func (r *CallRing) PushDesc(d Desc) (bool, error) {
	if r.ownSQTail-r.cSQHead >= uint64(r.slots) {
		// Apparent full: refresh the cached consumer cursor before
		// giving up (the only time the producer touches it).
		head, err := r.w.ReadU64(offSQHead)
		if err != nil {
			return false, err
		}
		r.cSQHead = head
		if r.ownSQTail-r.cSQHead >= uint64(r.slots) {
			return false, nil
		}
	}
	buf := &r.dbuf
	binary.LittleEndian.PutUint64(buf[0:], d.Fn)
	for i, a := range d.Args {
		binary.LittleEndian.PutUint64(buf[8+8*i:], a)
	}
	binary.LittleEndian.PutUint64(buf[40:], d.Trace)
	if err := r.w.Write(r.descOff(r.ownSQTail), buf[:]); err != nil {
		return false, err
	}
	if err := r.w.WriteU64(offSQTail, r.ownSQTail+1); err != nil {
		return false, err
	}
	r.ownSQTail++
	return true, nil
}

// PopDesc removes the oldest descriptor from the submission queue
// (ok=false when empty). Only one consumer — the gate-path drain or the
// manager's poller, serialised by the caller — may pop at a time.
func (r *CallRing) PopDesc() (Desc, bool, error) {
	var d Desc
	head, tail, err := r.pair(offSQHead, offSQTail)
	if err != nil {
		return d, false, err
	}
	if head == tail {
		return d, false, nil
	}
	buf := &r.dbuf
	if err := r.w.Read(r.descOff(head), buf[:]); err != nil {
		return d, false, err
	}
	d.Fn = binary.LittleEndian.Uint64(buf[0:])
	for i := range d.Args {
		d.Args[i] = binary.LittleEndian.Uint64(buf[8+8*i:])
	}
	d.Trace = binary.LittleEndian.Uint64(buf[40:])
	return d, true, r.w.WriteU64(offSQHead, head+1)
}

// PushComp appends one completion. It reports false when the completion
// queue is full — the drain's backpressure signal: stop popping
// descriptors until the guest polls.
func (r *CallRing) PushComp(c Comp) (bool, error) {
	head, tail, err := r.pair(offCQHead, offCQTail)
	if err != nil {
		return false, err
	}
	if tail-head >= uint64(r.slots) {
		return false, nil
	}
	buf := &r.cbuf
	binary.LittleEndian.PutUint64(buf[0:], c.Ret)
	binary.LittleEndian.PutUint64(buf[8:], c.Status)
	binary.LittleEndian.PutUint64(buf[16:], c.Trace)
	if err := r.w.Write(r.compOff(tail), buf[:]); err != nil {
		return false, err
	}
	return true, r.w.WriteU64(offCQTail, tail+1)
}

// PopComp removes the oldest completion (ok=false when none are ready).
// It is the guest poller's cached-cursor fast path: the completion
// producer cursor is re-read only when the cached view says empty.
func (r *CallRing) PopComp() (Comp, bool, error) {
	var c Comp
	if r.ownCQHead == r.cCQTail {
		tail, err := r.w.ReadU64(offCQTail)
		if err != nil {
			return c, false, err
		}
		r.cCQTail = tail
		if r.ownCQHead == r.cCQTail {
			return c, false, nil
		}
	}
	buf := &r.cbuf
	if err := r.w.Read(r.compOff(r.ownCQHead), buf[:]); err != nil {
		return c, false, err
	}
	c.Ret = binary.LittleEndian.Uint64(buf[0:])
	c.Status = binary.LittleEndian.Uint64(buf[8:])
	c.Trace = binary.LittleEndian.Uint64(buf[16:])
	if err := r.w.WriteU64(offCQHead, r.ownCQHead+1); err != nil {
		return c, false, err
	}
	r.ownCQHead++
	return c, true, nil
}

// DrainTxn is a consumer-side batch session over a CallRing. The drain
// side of a ring has several CallRing instances taking turns under the
// caller's lock (the gate-path flush runs on the guest's own vCPU, the
// manager's poller and the administrative failure path on the host
// window), so no instance can own the consumer cursors across calls.
// BeginDrain instead snapshots all four cursors once, the per-descriptor
// Pop/Push operate on local state touching only the record bytes, and
// Close publishes the advanced cursors in one step.
//
// A transaction that is abandoned without Close — e.g. the vCPU dies
// mid-drain on an injected fault — publishes nothing: the whole batch
// stays in the submission queue as if never popped, and the
// administrative failure path completes it with CompErr later. Batches
// are thus transactional with respect to crashes.
type DrainTxn struct {
	r      *CallRing
	sqHead uint64
	sqTail uint64
	cqHead uint64
	cqTail uint64
	popped int
	pushed int
}

// BeginDrain opens a consumer batch session, snapshotting the ring
// cursors. The caller must hold whatever lock serialises consumers of
// this ring and must Close the transaction to publish its progress.
//
// The returned transaction is this instance's reusable scratch: the
// next BeginDrain on the same CallRing recycles it, so at most one
// transaction per instance may be live at a time. That is not a new
// restriction — consumers of a ring are already serialised under the
// caller's drain lock, and a transaction never outlives its drain
// session (an abandoned one is simply never Closed and publishes
// nothing; the recycling reset discards its local cursors).
func (r *CallRing) BeginDrain() (*DrainTxn, error) {
	t := &r.txn
	*t = DrainTxn{r: r}
	// The four cursors are adjacent words: one multi-word read, charged
	// as four single reads (see Window.ReadU64s).
	cur := &r.curs
	if err := r.w.ReadU64s(offSQHead, cur[:]); err != nil {
		return nil, err
	}
	t.sqHead, t.sqTail, t.cqHead, t.cqTail = cur[0], cur[1], cur[2], cur[3]
	return t, nil
}

// Pending returns the number of descriptors still unpopped in this
// transaction's snapshot.
func (t *DrainTxn) Pending() int { return int(t.sqTail - t.sqHead) }

// CQFree returns the completion-queue space left in this transaction's
// snapshot — the drain's backpressure bound: stop popping when it hits
// zero and let the guest poll.
func (t *DrainTxn) CQFree() int { return t.r.slots - int(t.cqTail-t.cqHead) }

// PopDesc removes the next descriptor within the transaction (ok=false
// when the snapshot is exhausted). Only the descriptor bytes are read;
// the cursor advances locally until Close.
func (t *DrainTxn) PopDesc() (Desc, bool, error) {
	var d Desc
	if t.sqHead == t.sqTail {
		return d, false, nil
	}
	buf := &t.r.dbuf
	if err := t.r.w.Read(t.r.descOff(t.sqHead), buf[:]); err != nil {
		return d, false, err
	}
	d.Fn = binary.LittleEndian.Uint64(buf[0:])
	for i := range d.Args {
		d.Args[i] = binary.LittleEndian.Uint64(buf[8+8*i:])
	}
	d.Trace = binary.LittleEndian.Uint64(buf[40:])
	t.sqHead++
	t.popped++
	return d, true, nil
}

// PushComp appends one completion within the transaction (ok=false when
// the snapshot's completion queue is full).
func (t *DrainTxn) PushComp(c Comp) (bool, error) {
	if t.CQFree() <= 0 {
		return false, nil
	}
	buf := &t.r.cbuf
	binary.LittleEndian.PutUint64(buf[0:], c.Ret)
	binary.LittleEndian.PutUint64(buf[8:], c.Status)
	binary.LittleEndian.PutUint64(buf[16:], c.Trace)
	if err := t.r.w.Write(t.r.compOff(t.cqTail), buf[:]); err != nil {
		return false, err
	}
	t.cqTail++
	t.pushed++
	return true, nil
}

// Close publishes the transaction's cursor advances — completion bytes
// before the completion tail, so the guest's poller observes whole
// records. A transaction that popped or pushed nothing writes nothing.
func (t *DrainTxn) Close() error {
	if t.pushed > 0 {
		if err := t.r.w.WriteU64(offCQTail, t.cqTail); err != nil {
			return err
		}
	}
	if t.popped > 0 {
		if err := t.r.w.WriteU64(offSQHead, t.sqHead); err != nil {
			return err
		}
	}
	return nil
}

// FailPending administratively completes queued descriptors with status,
// calling each (when non-nil) per failed descriptor so callers can log
// them. It stops when the submission queue empties or the completion
// queue fills — in the latter case descriptors stay queued, and the
// caller must fail again once the consumer polls completions away (see
// the dead-ring sweep in internal/core). Consumer-side: the caller must
// hold whatever lock serialises this ring's consumers. Returns how many
// descriptors were completed.
func (r *CallRing) FailPending(status uint64, each func(Desc)) (int, error) {
	txn, err := r.BeginDrain()
	if err != nil {
		return 0, err
	}
	n := 0
	for txn.CQFree() > 0 {
		d, ok, err := txn.PopDesc()
		if err != nil {
			return n, err
		}
		if !ok {
			break
		}
		// CQFree > 0 was just checked, so the push cannot refuse.
		if ok, err := txn.PushComp(Comp{Status: status, Trace: d.Trace}); err != nil || !ok {
			return n, err
		}
		if each != nil {
			each(d)
		}
		n++
	}
	return n, txn.Close()
}
