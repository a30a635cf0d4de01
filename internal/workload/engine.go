package workload

import (
	"fmt"

	"github.com/elisa-go/elisa/internal/simtime"
)

// Generate renders a scenario — tenant specs, a seed, a horizon — into a
// concrete Trace: every tenant's arrival process and key chooser run
// forward in simulated time and the streams merge in (time, spec order)
// order, so the same inputs always produce the identical trace, and the
// trace file is the only artefact a replay needs.
//
// Seeding mirrors the fleet scheduler's convention (seed + index*7919 +
// 1 per tenant, a distinct lane per generator), so a spec's stream is
// invariant to which other tenants share the scenario. That also lets
// Generate draw each tenant's stream on its own, in spec order, before
// the merge: the merge then knows the event count and fills one Events
// slice allocated at its final length.
func Generate(specs []Spec, seed int64, horizon simtime.Duration) (*Trace, error) {
	if horizon <= 0 {
		return nil, fmt.Errorf("workload: generate horizon %d must be positive", horizon)
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("workload: generate needs at least one spec")
	}
	end := simtime.Time(0).Add(horizon)
	// Tenant i's unmerged draws are all[next[i]:stop[i]]; heads[i] is
	// the instant of the first of them, end once there are none.
	var all draws
	next, stop := make([]int, len(specs)), make([]int, len(specs))
	heads := make([]simtime.Time, len(specs))
	head := func(i int) simtime.Time {
		if next[i] == stop[i] {
			return end
		}
		return all.at(next[i]).at
	}
	for i := range specs {
		sp := &specs[i]
		if err := sp.validate(); err != nil {
			return nil, err
		}
		arrival, err := sp.NewArrival(seed + int64(i)*7919 + 1)
		if err != nil {
			return nil, err
		}
		keys, err := sp.NewKeys(seed + int64(i)*7919 + 2)
		if err != nil {
			return nil, err
		}
		next[i] = all.n
		all.drawStream(sp, arrival, keys, end)
		stop[i] = all.n
		heads[i] = head(i)
	}
	tr := &Trace{Events: make([]Event, all.n)}
	for k := range tr.Events {
		pick := 0
		for i := 1; i < len(heads); i++ {
			if heads[i] < heads[pick] {
				pick = i // ties resolve to the earlier spec: heads scan in spec order
			}
		}
		sp, d := &specs[pick], all.at(next[pick])
		tr.Events[k] = Event{
			At:     d.at,
			Tenant: sp.Name,
			Object: sp.Objects[d.obj],
			Fn:     sp.Fn,
			Class:  sp.Class,
			Size:   sp.SizeBytes,
		}
		next[pick]++
		heads[pick] = head(pick)
	}
	return tr, nil
}

// draw is one drawn arrival: its instant and the index of the object it
// calls.
type draw struct {
	at  simtime.Time
	obj int
}

// drawBlock is the number of draws one block of a draws sequence holds.
const drawBlock = 1024

// draws is an append-only sequence of draws kept in fixed-size blocks,
// so growing it never copies what it already holds.
type draws struct {
	blocks []*[drawBlock]draw
	n      int
}

// at returns draw i.
func (ds *draws) at(i int) *draw { return &ds.blocks[i/drawBlock][i%drawBlock] }

// drawStream appends one tenant's stream: arrivals at the instants its
// arrival process gives, each calling the object its key chooser picks
// (round-robin when keys is nil), until the horizon end or the spec's
// Ops cap (none when Ops is 0 or negative).
func (ds *draws) drawStream(sp *Spec, arrival Arrival, keys KeyChooser, end simtime.Time) {
	next, rr := simtime.Time(0).Add(arrival.NextInterval()), 0
	for emitted := 0; next < end && (sp.Ops <= 0 || emitted < sp.Ops); emitted++ {
		obj := rr
		if keys != nil {
			obj = keys.Next()
		}
		rr = (rr + 1) % len(sp.Objects)
		if ds.n%drawBlock == 0 {
			ds.blocks = append(ds.blocks, new([drawBlock]draw))
		}
		*ds.at(ds.n) = draw{at: next, obj: obj % len(sp.Objects)}
		ds.n++
		next = next.Add(arrival.NextInterval())
	}
}
