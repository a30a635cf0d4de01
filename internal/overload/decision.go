package overload

import (
	"fmt"
	"sort"
	"strings"

	"github.com/elisa-go/elisa/internal/simtime"
)

// Verdict classifies one overload-plane decision about one arrival or
// completion: the hook names mirror the fleet's refusal ladder (cheapest
// gate first) plus the drain-side CompBusy backstop.
type Verdict uint8

// The verdicts, in refusal-ladder order. VerdictAdmit is the accept;
// everything after it is a flavour of refusal.
const (
	// VerdictAdmit: the arrival passed every gate and queued.
	VerdictAdmit Verdict = iota
	// VerdictThrottle: the tenant's admission token bucket refused it.
	VerdictThrottle
	// VerdictQuarantine: refused because the tenant's circuit breaker was
	// open. The fleet no longer has a breaker and never records it; the
	// verdict keeps its slot so later verdicts keep their values, and
	// the fitness analysis still accounts it against BreakerShed.
	VerdictQuarantine
	// VerdictShed: the fleet-wide load shedder refused it by class.
	VerdictShed
	// VerdictDrop: the tenant's bounded queue was full.
	VerdictDrop
	// VerdictBusy: the op reached a ring but was bounced CompBusy with
	// retries exhausted (drain-side backpressure, charged at harvest).
	VerdictBusy
	// VerdictRebalance: not a refusal — the cluster rebalancer migrated a
	// tenant between shards. Recorded so placement decisions share the
	// same auditable trace as admission decisions; runs without a
	// rebalancer armed never record it, keeping their traces unchanged.
	VerdictRebalance
	numVerdicts
)

// String names the verdict for traces and tables.
func (v Verdict) String() string {
	switch v {
	case VerdictAdmit:
		return "admit"
	case VerdictThrottle:
		return "throttle"
	case VerdictQuarantine:
		return "quarantine"
	case VerdictShed:
		return "shed"
	case VerdictDrop:
		return "drop"
	case VerdictBusy:
		return "busy"
	case VerdictRebalance:
		return "rebalance"
	default:
		return fmt.Sprintf("verdict(%d)", uint8(v))
	}
}

// Verdicts returns every verdict in ladder order (admit first).
func Verdicts() []Verdict {
	out := make([]Verdict, numVerdicts)
	for i := range out {
		out[i] = Verdict(i)
	}
	return out
}

// Decision is one recorded verdict, as Events renders it.
type Decision struct {
	At      simtime.Time
	Tenant  string
	Verdict Verdict
	Class   int
	Note    string
}

// DecisionKey aggregates decisions per (tenant, verdict) — the unit the
// counterfactual analysis ranks.
type DecisionKey struct {
	Tenant  string
	Verdict Verdict
}

// TenantID names a tenant interned in one DecisionTrace (see Tenant).
type TenantID uint32

// NoteID names a note interned in one DecisionTrace (see Note). The
// fixed notes below are interned in every trace at construction, so the
// per-op verdicts name them without a lookup.
type NoteID uint32

// The fixed notes, in their interned order.
const (
	NoteNone NoteID = iota
	NoteGlobalBucket
	NoteTokenBucket
	NoteQueueFull
	NoteRingBusy
	numFixedNotes
)

// fixedNotes is each fixed note's text, indexed by its NoteID.
var fixedNotes = [numFixedNotes]string{
	NoteNone:         "",
	NoteGlobalBucket: "global-bucket",
	NoteTokenBucket:  "token-bucket",
	NoteQueueFull:    "queue-full",
	NoteRingBusy:     "ring-busy",
}

// decision is one retained verdict as the trace stores it: integers
// only, the tenant and note behind interned ids.
type decision struct {
	at      simtime.Time
	tenant  TenantID
	note    NoteID
	class   int32
	verdict Verdict
}

// decisionBlock is how many decisions one storage block holds. Blocks
// are allocated whole and never copied, so the log grows without
// regrowing what it already holds.
const decisionBlock = 4096

// DecisionTrace is the overload plane's decision log: every
// admit/throttle/shed/drop/busy/rebalance verdict the fleet issues,
// with per-(tenant,verdict) counts that keep accumulating after the
// bounded event log fills. Everything is simulated-time ordered and
// seeded upstream, so two same-seed runs record identical traces —
// which is what makes the rendered log a golden-file artefact.
//
// Records are fixed-size and pointer-free. Tenant names and notes live
// once in the trace's intern tables: an emitter resolves a tenant's id
// once (Tenant) and records integers from then on; names are rendered
// only when the trace is read.
type DecisionTrace struct {
	cap     int
	n       int          // retained decisions
	blocks  [][]decision // full blocks, then the one being filled
	skipped uint64       // decisions past the event cap (still counted below)

	tenants  []string // by TenantID
	tenantID map[string]TenantID
	counts   [][numVerdicts]uint64 // by TenantID
	notes    []string              // by NoteID
	noteID   map[string]NoteID
}

// DefaultDecisionCap bounds the retained event log (counts are exact
// regardless); at a few hundred kilobytes it holds every decision of the
// committed regression scenarios with room to spare.
const DefaultDecisionCap = 1 << 16

// NewDecisionTrace returns an empty trace retaining at most cap events
// (cap <= 0 selects DefaultDecisionCap).
func NewDecisionTrace(cap int) *DecisionTrace {
	if cap <= 0 {
		cap = DefaultDecisionCap
	}
	d := &DecisionTrace{
		cap:      cap,
		tenantID: make(map[string]TenantID),
		notes:    append([]string(nil), fixedNotes[:]...),
		noteID:   make(map[string]NoteID, numFixedNotes),
	}
	for i, n := range fixedNotes {
		d.noteID[n] = NoteID(i)
	}
	return d
}

// Tenant interns a tenant name and returns its id. Emitters call it
// once per tenant (the fleet at admission) and keep the id; a nil trace
// returns 0.
func (d *DecisionTrace) Tenant(name string) TenantID {
	if d == nil {
		return 0
	}
	id, ok := d.tenantID[name]
	if !ok {
		id = TenantID(len(d.tenants))
		d.tenants = append(d.tenants, name)
		d.counts = append(d.counts, [numVerdicts]uint64{})
		d.tenantID[name] = id
	}
	return id
}

// Note interns a free-text note and returns its id. It is for notes
// built at emit time off the per-op path (a shed threshold, a rebalance
// move); a nil trace returns NoteNone.
func (d *DecisionTrace) Note(text string) NoteID {
	if d == nil {
		return NoteNone
	}
	id, ok := d.noteID[text]
	if !ok {
		id = NoteID(len(d.notes))
		d.notes = append(d.notes, text)
		d.noteID[text] = id
	}
	return id
}

// Record logs one verdict for a tenant and note this trace interned. A
// nil trace records nothing, so callers hook it unconditionally.
func (d *DecisionTrace) Record(at simtime.Time, tenant TenantID, v Verdict, class int, note NoteID) {
	if d == nil {
		return
	}
	d.counts[tenant][v]++
	if d.n >= d.cap {
		d.skipped++
		return
	}
	last := len(d.blocks) - 1
	if last < 0 || len(d.blocks[last]) == cap(d.blocks[last]) {
		d.blocks = append(d.blocks, make([]decision, 0, min(decisionBlock, d.cap-d.n)))
		last++
	}
	d.blocks[last] = append(d.blocks[last], decision{at: at, tenant: tenant, note: note, class: int32(class), verdict: v})
	d.n++
}

// Events returns the retained decision log in record order.
func (d *DecisionTrace) Events() []Decision {
	if d == nil {
		return nil
	}
	out := make([]Decision, 0, d.n)
	for _, b := range d.blocks {
		for _, e := range b {
			out = append(out, Decision{At: e.at, Tenant: d.tenants[e.tenant], Verdict: e.verdict,
				Class: int(e.class), Note: d.notes[e.note]})
		}
	}
	return out
}

// Skipped reports how many decisions fell past the event cap (their
// counts are still exact).
func (d *DecisionTrace) Skipped() uint64 {
	if d == nil {
		return 0
	}
	return d.skipped
}

// Count returns the exact tally for one (tenant, verdict) pair.
func (d *DecisionTrace) Count(tenant string, v Verdict) uint64 {
	if d == nil || v >= numVerdicts {
		return 0
	}
	id, ok := d.tenantID[tenant]
	if !ok {
		return 0
	}
	return d.counts[id][v]
}

// Counts returns the non-zero per-(tenant,verdict) tallies sorted by
// tenant then verdict — a deterministic rendering order.
func (d *DecisionTrace) Counts() []struct {
	Key   DecisionKey
	Count uint64
} {
	if d == nil {
		return nil
	}
	ids := make([]TenantID, len(d.tenants))
	for i := range ids {
		ids[i] = TenantID(i)
	}
	sort.Slice(ids, func(i, j int) bool { return d.tenants[ids[i]] < d.tenants[ids[j]] })
	out := make([]struct {
		Key   DecisionKey
		Count uint64
	}, 0, len(ids))
	for _, id := range ids {
		for v, n := range d.counts[id] {
			if n > 0 {
				out = append(out, struct {
					Key   DecisionKey
					Count uint64
				}{DecisionKey{Tenant: d.tenants[id], Verdict: Verdict(v)}, n})
			}
		}
	}
	return out
}

// Summary renders the per-(tenant,verdict) tallies as one line per pair
// — the compact decision digest reports and goldens embed.
func (d *DecisionTrace) Summary() string {
	var b strings.Builder
	for _, c := range d.Counts() {
		fmt.Fprintf(&b, "%s %s %d\n", c.Key.Tenant, c.Key.Verdict, c.Count)
	}
	if s := d.Skipped(); s > 0 {
		fmt.Fprintf(&b, "(event log capped: %d decisions counted but not retained)\n", s)
	}
	return b.String()
}
