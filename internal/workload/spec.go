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

// Spec binds one tenant to its workload: an arrival process, a key
// distribution over its objects, a priority class, and admission limits.
// A []Spec plus a seed and a horizon is a complete, reproducible
// heavy-traffic scenario (see Generate).
type Spec struct {
	// Name is the tenant (guest VM) name.
	Name string
	// Arrival selects the arrival process: "poisson" (default), "mmpp",
	// or "diurnal".
	Arrival string
	// RateOPS is the mean arrival rate in ops per simulated second. For
	// MMPP it is the calm-state rate; the dwell-weighted mean also
	// depends on BurstRateOPS and the dwells.
	RateOPS float64
	// BurstRateOPS, CalmDwell, and BurstDwell shape the MMPP burst state
	// (defaults: 8x RateOPS, 100µs, 25µs).
	BurstRateOPS          float64
	CalmDwell, BurstDwell simtime.Duration
	// Amplitude and Period shape the diurnal sinusoid (defaults 0.5 and
	// 1ms of simulated time).
	Amplitude float64
	Period    simtime.Duration
	// Keys selects how ops pick objects: "roundrobin" (default),
	// "uniform", or "zipf" (Skew, default 0.99, index 0 hottest).
	Keys string
	Skew float64
	// Objects are the shared objects the tenant calls.
	Objects []string
	// Fn is the manager function every op calls.
	Fn uint64
	// Class is the tenant's load-shedding priority class (0 = lowest).
	Class int
	// Weight is the tenant's scheduler share (default 1).
	Weight int
	// SizeBytes is the payload size recorded per op (default 64).
	SizeBytes int
	// AdmitRateOPS and AdmitBurst configure the tenant's admission token
	// bucket on replay (0 = no bucket).
	AdmitRateOPS float64
	AdmitBurst   int
	// Ops caps the tenant's generated arrivals (0 = until the horizon).
	Ops int
}

// NewArrival builds the spec's arrival process with the given seed.
func (sp *Spec) NewArrival(seed int64) (Arrival, error) {
	switch sp.Arrival {
	case "", "poisson":
		return NewPoisson(seed, sp.RateOPS)
	case "mmpp":
		burst := sp.BurstRateOPS
		if burst == 0 {
			burst = 8 * sp.RateOPS
		}
		calmDwell, burstDwell := sp.CalmDwell, sp.BurstDwell
		if calmDwell == 0 {
			calmDwell = 100 * simtime.Microsecond
		}
		if burstDwell == 0 {
			burstDwell = 25 * simtime.Microsecond
		}
		return NewMMPP(seed, sp.RateOPS, burst, calmDwell, burstDwell)
	case "diurnal":
		amp := sp.Amplitude
		if amp == 0 {
			amp = 0.5
		}
		period := sp.Period
		if period == 0 {
			period = simtime.Millisecond
		}
		return NewDiurnal(seed, sp.RateOPS, amp, period)
	default:
		return nil, fmt.Errorf("workload: spec %q: unknown arrival process %q", sp.Name, sp.Arrival)
	}
}

// NewKeys builds the spec's object chooser with the given seed. A nil
// chooser means round-robin (the caller cycles the objects itself).
func (sp *Spec) NewKeys(seed int64) (KeyChooser, error) {
	switch sp.Keys {
	case "", "roundrobin":
		return nil, nil
	case "uniform":
		return NewUniform(seed, len(sp.Objects))
	case "zipf":
		skew := sp.Skew
		if skew == 0 {
			skew = 0.99
		}
		return NewZipf(seed, len(sp.Objects), skew)
	default:
		return nil, fmt.Errorf("workload: spec %q: unknown key distribution %q", sp.Name, sp.Keys)
	}
}

// validate applies defaults and checks the spec is runnable.
func (sp *Spec) validate() error {
	if sp.Name == "" {
		return fmt.Errorf("workload: spec needs a tenant name")
	}
	if sp.RateOPS <= 0 {
		return fmt.Errorf("workload: spec %q: rate %v must be positive", sp.Name, sp.RateOPS)
	}
	if len(sp.Objects) == 0 {
		return fmt.Errorf("workload: spec %q has no objects", sp.Name)
	}
	if sp.Class < 0 || sp.Class >= maxTraceClass {
		return fmt.Errorf("workload: spec %q: class %d outside [0,%d)", sp.Name, sp.Class, maxTraceClass)
	}
	if sp.Weight <= 0 {
		sp.Weight = 1
	}
	if sp.SizeBytes == 0 {
		sp.SizeBytes = 64
	}
	if sp.SizeBytes < 0 || sp.SizeBytes > maxTraceSize {
		return fmt.Errorf("workload: spec %q: size %d outside [0,%d]", sp.Name, sp.SizeBytes, maxTraceSize)
	}
	if sp.Arrival == "mmpp" {
		// NewMMPP bounds the state switches per arrival.
		if _, err := sp.NewArrival(0); err != nil {
			return fmt.Errorf("workload: spec %q: %w", sp.Name, err)
		}
	}
	return nil
}

// ParseSpecs reads the flat tenant-spec format: one `tenant <name>:`
// header per tenant followed by `key: value` lines, `#` comments and
// blank lines ignored. The keys mirror the Spec fields:
//
//	tenant frontend:
//	  arrival: diurnal        # poisson | mmpp | diurnal
//	  rate: 400000            # ops per simulated second
//	  amplitude: 0.8          # diurnal depth
//	  period_us: 400          # diurnal period
//	  burst_rate: 3200000     # mmpp burst-state rate
//	  calm_dwell_us: 100      # mmpp dwells
//	  burst_dwell_us: 25
//	  keys: zipf              # roundrobin | uniform | zipf
//	  skew: 0.99
//	  objects: kv-00,kv-01
//	  fn: 0xF1EE0010
//	  class: 2
//	  weight: 4
//	  size: 256
//	  admit_rate: 500000      # admission token bucket (0 = off)
//	  admit_burst: 32
//	  ops: 0                  # arrival cap (0 = until horizon)
func ParseSpecs(r io.Reader) ([]Spec, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1024), maxTraceLine)
	var specs []Spec
	var cur *Spec
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(strings.TrimRight(sc.Text(), "\r"))
		if i := strings.Index(text, "#"); i >= 0 {
			text = strings.TrimSpace(text[:i])
		}
		if text == "" {
			continue
		}
		if name, ok := strings.CutPrefix(text, "tenant "); ok {
			name = strings.TrimSpace(strings.TrimSuffix(name, ":"))
			if name == "" || len(name) > maxTraceField {
				return nil, fmt.Errorf("workload: spec line %d: bad tenant name", line)
			}
			specs = append(specs, Spec{Name: name})
			cur = &specs[len(specs)-1]
			continue
		}
		if cur == nil {
			return nil, fmt.Errorf("workload: spec line %d: %q outside a tenant section", line, text)
		}
		key, val, ok := strings.Cut(text, ":")
		if !ok {
			return nil, fmt.Errorf("workload: spec line %d: want `key: value`, got %q", line, text)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		if err := cur.setField(key, val); err != nil {
			return nil, fmt.Errorf("workload: spec line %d: %w", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("workload: spec line %d: %w", line+1, err)
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("workload: spec file defines no tenants")
	}
	seen := make(map[string]bool, len(specs))
	for i := range specs {
		if seen[specs[i].Name] {
			return nil, fmt.Errorf("workload: duplicate tenant %q", specs[i].Name)
		}
		seen[specs[i].Name] = true
		if err := specs[i].validate(); err != nil {
			return nil, err
		}
	}
	return specs, nil
}

// setField assigns one parsed `key: value` pair.
func (sp *Spec) setField(key, val string) error {
	switch key {
	case "arrival":
		sp.Arrival = val
	case "keys":
		sp.Keys = val
	case "objects":
		for _, o := range strings.Split(val, ",") {
			o = strings.TrimSpace(o)
			if o == "" || len(o) > maxTraceField {
				return fmt.Errorf("bad object name %q", o)
			}
			sp.Objects = append(sp.Objects, o)
		}
	case "rate", "burst_rate", "amplitude", "skew", "admit_rate":
		f, err := strconv.ParseFloat(val, 64)
		if err != nil || !finite(f) || f < 0 {
			return fmt.Errorf("bad %s %q", key, val)
		}
		switch key {
		case "rate":
			sp.RateOPS = f
		case "burst_rate":
			sp.BurstRateOPS = f
		case "amplitude":
			sp.Amplitude = f
		case "skew":
			sp.Skew = f
		case "admit_rate":
			sp.AdmitRateOPS = f
		}
	case "period_us", "calm_dwell_us", "burst_dwell_us":
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil || n < 0 {
			return fmt.Errorf("bad %s %q", key, val)
		}
		d := simtime.Duration(n) * simtime.Microsecond
		switch key {
		case "period_us":
			sp.Period = d
		case "calm_dwell_us":
			sp.CalmDwell = d
		case "burst_dwell_us":
			sp.BurstDwell = d
		}
	case "fn":
		n, err := strconv.ParseUint(val, 0, 64)
		if err != nil {
			return fmt.Errorf("bad fn %q", val)
		}
		sp.Fn = n
	case "class", "weight", "size", "admit_burst", "ops":
		n, err := strconv.Atoi(val)
		if err != nil || n < 0 {
			return fmt.Errorf("bad %s %q", key, val)
		}
		switch key {
		case "class":
			sp.Class = n
		case "weight":
			sp.Weight = n
		case "size":
			sp.SizeBytes = n
		case "admit_burst":
			sp.AdmitBurst = n
		case "ops":
			sp.Ops = n
		}
	default:
		return fmt.Errorf("unknown key %q", key)
	}
	return nil
}

// ReadSpecFile parses the tenant specs at path.
func ReadSpecFile(path string) ([]Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ParseSpecs(f)
}
