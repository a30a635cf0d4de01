package overload

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"github.com/elisa-go/elisa/internal/simtime"
)

// refDecisionTrace is the map-keyed, string-carrying decision trace the
// interned one replaced, kept as the reference its readers must match.
type refDecisionTrace struct {
	cap     int
	events  []Decision
	skipped uint64
	counts  map[DecisionKey]uint64
}

func (d *refDecisionTrace) record(at simtime.Time, tenant string, v Verdict, class int, note string) {
	d.counts[DecisionKey{Tenant: tenant, Verdict: v}]++
	if len(d.events) >= d.cap {
		d.skipped++
		return
	}
	d.events = append(d.events, Decision{At: at, Tenant: tenant, Verdict: v, Class: class, Note: note})
}

func (d *refDecisionTrace) summary() string {
	keys := make([]DecisionKey, 0, len(d.counts))
	for k := range d.counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Tenant != keys[j].Tenant {
			return keys[i].Tenant < keys[j].Tenant
		}
		return keys[i].Verdict < keys[j].Verdict
	})
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s %s %d\n", k.Tenant, k.Verdict, d.counts[k])
	}
	if d.skipped > 0 {
		fmt.Fprintf(&b, "(event log capped: %d decisions counted but not retained)\n", d.skipped)
	}
	return b.String()
}

// TestDecisionTraceMatchesReference drives random verdict streams, past
// the event cap and across storage blocks, through the interned trace
// and the map-keyed reference, and requires every reader — Events,
// Counts, Count, Summary, Skipped — to agree.
func TestDecisionTraceMatchesReference(t *testing.T) {
	tenants := []string{"web", "batch", "b", "a-long-tenant-name", "web2", ""}
	notes := []string{"", "global-bucket", "token-bucket", "queue-full", "ring-busy", "threshold 1", "shard 0 -> 2"}
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capN := []int{1, 7, decisionBlock - 1, decisionBlock, decisionBlock + 5, 3 * decisionBlock}[seed-1]
		d := NewDecisionTrace(capN)
		ref := &refDecisionTrace{cap: capN, counts: map[DecisionKey]uint64{}}
		ids := map[string]TenantID{}
		n := capN + 1 + rng.Intn(2*decisionBlock)
		for i := 0; i < n; i++ {
			name := tenants[rng.Intn(len(tenants))]
			id, ok := ids[name]
			if !ok {
				id = d.Tenant(name)
				ids[name] = id
			}
			note := notes[rng.Intn(len(notes))]
			v := Verdict(rng.Intn(int(numVerdicts)))
			class := rng.Intn(4)
			at := simtime.Time(i * 10)
			d.Record(at, id, v, class, d.Note(note))
			ref.record(at, name, v, class, note)
		}
		if got, want := d.Events(), ref.events; !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: Events differ (%d vs %d retained)", seed, len(got), len(want))
		}
		if d.Skipped() != ref.skipped || d.Skipped() == 0 {
			t.Fatalf("seed %d: skipped %d, reference %d", seed, d.Skipped(), ref.skipped)
		}
		if got, want := d.Summary(), ref.summary(); got != want {
			t.Fatalf("seed %d: Summary\n%s\nreference\n%s", seed, got, want)
		}
		var sum uint64
		for _, c := range d.Counts() {
			if c.Count != ref.counts[c.Key] {
				t.Fatalf("seed %d: Counts %v = %d, reference %d", seed, c.Key, c.Count, ref.counts[c.Key])
			}
			sum += c.Count
		}
		if len(d.Counts()) != len(ref.counts) || sum != uint64(n) {
			t.Fatalf("seed %d: %d count keys summing to %d, reference %d keys over %d", seed, len(d.Counts()), sum, len(ref.counts), n)
		}
		for _, name := range append(tenants, "never-seen") {
			for _, v := range Verdicts() {
				if got, want := d.Count(name, v), ref.counts[DecisionKey{name, v}]; got != want {
					t.Fatalf("seed %d: Count(%q, %s) = %d, reference %d", seed, name, v, got, want)
				}
			}
		}
	}
}

// TestDecisionTraceRecordZeroAlloc: recording an interned verdict
// allocates nothing except the storage block it opens.
func TestDecisionTraceRecordZeroAlloc(t *testing.T) {
	d := NewDecisionTrace(0)
	id := d.Tenant("web")
	d.Record(0, id, VerdictAdmit, 1, NoteNone) // opens the first block
	if n := testing.AllocsPerRun(1000, func() { d.Record(1, id, VerdictThrottle, 1, NoteTokenBucket) }); n != 0 {
		t.Fatalf("Record allocates %v per verdict inside a block, want 0", n)
	}
}
