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

// Decision is one recorded verdict.
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

// DecisionTrace is the overload plane's decision log: every
// admit/throttle/shed/drop/busy/rebalance verdict the fleet issues,
// with per-(tenant,verdict) counts that keep accumulating after the
// bounded event log fills. Everything is simulated-time ordered and
// seeded upstream, so two same-seed runs record identical traces —
// which is what makes the rendered log a golden-file artefact.
type DecisionTrace struct {
	cap     int
	events  []Decision
	skipped uint64 // decisions past the event cap (still counted below)
	counts  map[DecisionKey]uint64
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
	return &DecisionTrace{cap: cap, counts: make(map[DecisionKey]uint64)}
}

// Record logs one verdict. A nil trace records nothing, so callers hook
// it unconditionally.
func (d *DecisionTrace) Record(at simtime.Time, tenant string, v Verdict, class int, note string) {
	if d == nil {
		return
	}
	d.counts[DecisionKey{Tenant: tenant, Verdict: v}]++
	if len(d.events) >= d.cap {
		d.skipped++
		return
	}
	d.events = append(d.events, Decision{At: at, Tenant: tenant, Verdict: v, Class: class, Note: note})
}

// Events returns the retained decision log in record order.
func (d *DecisionTrace) Events() []Decision {
	if d == nil {
		return nil
	}
	return append([]Decision(nil), d.events...)
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
	if d == nil {
		return 0
	}
	return d.counts[DecisionKey{Tenant: tenant, Verdict: v}]
}

// Counts returns the per-(tenant,verdict) tallies sorted by tenant then
// verdict — a deterministic rendering order.
func (d *DecisionTrace) Counts() []struct {
	Key   DecisionKey
	Count uint64
} {
	if d == nil {
		return nil
	}
	out := make([]struct {
		Key   DecisionKey
		Count uint64
	}, 0, len(d.counts))
	for k, n := range d.counts {
		out = append(out, struct {
			Key   DecisionKey
			Count uint64
		}{k, n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Key.Tenant != out[j].Key.Tenant {
			return out[i].Key.Tenant < out[j].Key.Tenant
		}
		return out[i].Key.Verdict < out[j].Key.Verdict
	})
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
