package fault

import (
	"fmt"
	"math/rand"
	"strings"

	"github.com/elisa-go/elisa/internal/simtime"
)

// PlanConfig shapes a generated fault schedule.
type PlanConfig struct {
	// Seed feeds the schedule generator; the same seed over the same
	// config always yields the same plan, and — because the machine is
	// deterministic — the same fault trace when replayed.
	Seed int64
	// Horizon is the virtual-time window injections are scheduled in
	// (default 10 ms of simulated time).
	Horizon simtime.Duration
	// Guests are the candidate target names; "" entries (or an empty
	// list) mean "whoever crosses the hook first".
	Guests []string
	// Classes restricts the drawn classes (default: all of them).
	Classes []Class
	// N is the number of injections to schedule (default 8).
	N int
}

// stormSize is the Count given to flood-style classes (negotiate
// fail/timeout storms).
const stormSize = 3

// Plan is a concrete, fully materialised fault schedule: what will be
// injected, into whom, at which virtual nanosecond. Plans are inert data;
// arm one with NewInjector.
type Plan struct {
	Seed       int64
	Injections []Injection
}

// NewPlan expands a config into a deterministic schedule. Times are drawn
// uniformly over the horizon, classes and guests uniformly over their
// candidate sets, all from one seeded source, so the schedule is a pure
// function of (Seed, config).
func NewPlan(cfg PlanConfig) (*Plan, error) {
	if cfg.Horizon <= 0 {
		cfg.Horizon = 10 * simtime.Millisecond
	}
	if cfg.N <= 0 {
		cfg.N = 8
	}
	classes := cfg.Classes
	if len(classes) == 0 {
		classes = Classes
	}
	for _, c := range classes {
		if pointOf(c) == "" {
			return nil, fmt.Errorf("fault: unknown class %q", c)
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	p := &Plan{Seed: cfg.Seed}
	for i := 0; i < cfg.N; i++ {
		in := Injection{
			Seq:   i,
			At:    simtime.Time(1 + rng.Int63n(int64(cfg.Horizon))),
			Class: classes[rng.Intn(len(classes))],
			Count: 1,
			Arg:   rng.Uint64(),
		}
		if len(cfg.Guests) > 0 {
			in.Guest = cfg.Guests[rng.Intn(len(cfg.Guests))]
		}
		if in.Class == ClassNegotiateFail || in.Class == ClassNegotiateTimeout {
			in.Count = stormSize
		}
		p.Injections = append(p.Injections, in)
	}
	return p, nil
}

// String renders the schedule, one injection per line, in Seq order.
func (p *Plan) String() string {
	if p == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "fault plan seed=%d (%d injections)\n", p.Seed, len(p.Injections))
	for _, in := range p.Injections {
		b.WriteString(in.String())
		b.WriteByte('\n')
	}
	return b.String()
}
