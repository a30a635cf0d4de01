package workload

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"github.com/elisa-go/elisa/internal/simtime"
)

// TraceHeader is the first line of every trace file; parsing rejects any
// other header so a schema change cannot be misread as data.
const TraceHeader = "arrival_ns,tenant,object,fn,class,size"

// Trace-format guardrails: a parser fed hostile input must error, never
// panic or balloon. Fields are bounded, lines are bounded, and timestamps
// must be non-decreasing (a trace is an event log, not a bag).
const (
	maxTraceLine  = 4096    // bytes per line
	maxTraceField = 256     // bytes per tenant/object name
	maxTraceClass = 64      // priority classes that could ever exist
	maxTraceSize  = 1 << 30 // one GiB payload bound per op
)

// Event is one trace row: an operation arriving at a tenant at an
// absolute simulated instant, naming the shared object and manager
// function it calls, the tenant's priority class, and the payload size.
type Event struct {
	At     simtime.Time
	Tenant string
	Object string
	Fn     uint64
	Class  int
	Size   int
}

// Trace is an ordered arrival log — the deterministic-workload exchange
// format: the generator writes one, the fleet and cluster replay it, and
// committing one next to its golden report turns a heavy-traffic scenario
// into a regression test.
type Trace struct {
	Events []Event
}

// Duration returns the instant just past the last event (0 for an empty
// trace) — the minimum window a replay needs to deliver every arrival.
func (tr *Trace) Duration() simtime.Duration {
	if len(tr.Events) == 0 {
		return 0
	}
	return simtime.Duration(tr.Events[len(tr.Events)-1].At) + 1
}

// Tenants returns the distinct tenant names in first-appearance order.
func (tr *Trace) Tenants() []string {
	seen := make(map[string]bool)
	var out []string
	for _, ev := range tr.Events {
		if !seen[ev.Tenant] {
			seen[ev.Tenant] = true
			out = append(out, ev.Tenant)
		}
	}
	return out
}

// ParseTrace reads a CSV trace. It is strict: the exact header, exactly
// six fields per row, bounded field sizes, non-negative numerics, and
// non-decreasing timestamps — any violation is an error naming the line.
// Malformed input can never panic (see FuzzTraceParse).
func ParseTrace(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1024), maxTraceLine)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("workload: trace header: %w", err)
		}
		return nil, fmt.Errorf("workload: empty trace (missing header %q)", TraceHeader)
	}
	if got := strings.TrimRight(sc.Text(), "\r"); got != TraceHeader {
		return nil, fmt.Errorf("workload: trace header %q, want %q", got, TraceHeader)
	}
	tr := &Trace{}
	line := 1
	var last simtime.Time
	for sc.Scan() {
		line++
		raw := strings.TrimRight(sc.Text(), "\r")
		if raw == "" {
			continue // a trailing newline is not a row
		}
		f := strings.Split(raw, ",")
		if len(f) != 6 {
			return nil, fmt.Errorf("workload: trace line %d: %d fields, want 6", line, len(f))
		}
		at, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil || at < 0 {
			return nil, fmt.Errorf("workload: trace line %d: bad arrival_ns %q", line, f[0])
		}
		if simtime.Time(at) < last {
			return nil, fmt.Errorf("workload: trace line %d: arrival %d before predecessor %d (trace must be time-ordered)", line, at, last)
		}
		tenant, object := f[1], f[2]
		if tenant == "" || len(tenant) > maxTraceField {
			return nil, fmt.Errorf("workload: trace line %d: bad tenant name (%d bytes)", line, len(tenant))
		}
		if object == "" || len(object) > maxTraceField {
			return nil, fmt.Errorf("workload: trace line %d: bad object name (%d bytes)", line, len(object))
		}
		fn, err := strconv.ParseUint(f[3], 0, 64)
		if err != nil {
			return nil, fmt.Errorf("workload: trace line %d: bad fn %q", line, f[3])
		}
		class, err := strconv.Atoi(f[4])
		if err != nil || class < 0 || class >= maxTraceClass {
			return nil, fmt.Errorf("workload: trace line %d: bad class %q", line, f[4])
		}
		size, err := strconv.Atoi(f[5])
		if err != nil || size < 0 || size > maxTraceSize {
			return nil, fmt.Errorf("workload: trace line %d: bad size %q", line, f[5])
		}
		last = simtime.Time(at)
		tr.Events = append(tr.Events, Event{
			At: last, Tenant: tenant, Object: object, Fn: fn, Class: class, Size: size,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("workload: trace line %d: %w", line+1, err)
	}
	return tr, nil
}

// WriteTrace writes the trace in the exact format ParseTrace reads; the
// round trip is byte-identical, which is what lets a generated workload
// be committed and replayed as a golden scenario.
func WriteTrace(w io.Writer, tr *Trace) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(TraceHeader + "\n"); err != nil {
		return err
	}
	for _, ev := range tr.Events {
		if _, err := fmt.Fprintf(bw, "%d,%s,%s,0x%x,%d,%d\n",
			int64(ev.At), ev.Tenant, ev.Object, ev.Fn, ev.Class, ev.Size); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadTraceFile parses the trace at path.
func ReadTraceFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ParseTrace(f)
}
