package workload

import (
	"strings"
	"testing"

	"github.com/elisa-go/elisa/internal/simtime"
)

// TestWorkloadSpecParseRegression parses the committed regression spec
// and pins the fields the trace generator depends on.
func TestWorkloadSpecParseRegression(t *testing.T) {
	specs, err := RegressionSpecs()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 3 {
		t.Fatalf("%d tenants, want 3", len(specs))
	}
	web, batch, svc := specs[0], specs[1], specs[2]
	if web.Name != "web" || web.Arrival != "diurnal" || web.Keys != "zipf" ||
		web.Skew != 0.99 || web.Class != 2 || web.Weight != 4 ||
		web.Period != 250*simtime.Microsecond || web.AdmitRateOPS != 4_800_000 {
		t.Fatalf("web spec: %+v", web)
	}
	if batch.Arrival != "mmpp" || batch.BurstRateOPS != 25_600_000 ||
		batch.CalmDwell != 120*simtime.Microsecond || batch.Class != 0 {
		t.Fatalf("batch spec: %+v", batch)
	}
	if svc.Arrival != "poisson" || len(svc.Objects) != 4 || svc.Class != 1 {
		t.Fatalf("svc spec: %+v", svc)
	}
	for _, sp := range specs {
		if sp.Fn != RegressionFn {
			t.Fatalf("%s fn %#x, want %#x", sp.Name, sp.Fn, RegressionFn)
		}
		if _, err := sp.NewArrival(1); err != nil {
			t.Fatalf("%s arrival: %v", sp.Name, err)
		}
		if _, err := sp.NewKeys(2); err != nil {
			t.Fatalf("%s keys: %v", sp.Name, err)
		}
	}
}

// TestWorkloadSpecParseErrors: the malformed spec shapes all error.
func TestWorkloadSpecParseErrors(t *testing.T) {
	cases := []struct {
		name, in string
	}{
		{"empty", ""},
		{"pair outside section", "rate: 100\n"},
		{"bad pair", "tenant a:\nrate 100\n"},
		{"unknown key", "tenant a:\nrainfall: 3\nrate: 1\nobjects: o\n"},
		{"no name", "tenant :\n"},
		{"duplicate tenant", "tenant a:\nrate: 1\nobjects: o\ntenant a:\nrate: 1\nobjects: o\n"},
		{"zero rate", "tenant a:\nobjects: o\n"},
		{"no objects", "tenant a:\nrate: 5\n"},
		{"bad rate", "tenant a:\nrate: fast\nobjects: o\n"},
		{"negative weight", "tenant a:\nrate: 5\nobjects: o\nweight: -1\n"},
		{"bad arrival", "tenant a:\nrate: 5\nobjects: o\narrival: lunar\n"},
		{"bad keys", "tenant a:\nrate: 5\nobjects: o\nkeys: modal\n"},
		{"class overflow", "tenant a:\nrate: 5\nobjects: o\nclass: 999\n"},
		{"empty object", "tenant a:\nrate: 5\nobjects: o,,p\n"},
	}
	for _, tc := range cases {
		specs, err := ParseSpecs(strings.NewReader(tc.in))
		if err == nil {
			// Unknown arrival/keys surface at build time, not parse time.
			bad := false
			for i := range specs {
				if _, aerr := specs[i].NewArrival(1); aerr != nil {
					bad = true
				}
				if _, kerr := specs[i].NewKeys(1); kerr != nil {
					bad = true
				}
			}
			if !bad {
				t.Errorf("%s: accepted", tc.name)
			}
		}
	}
}

// TestWorkloadSpecRefusesNonFinite: every float key refuses NaN and
// ±Inf at parse time; a NaN rate used to render one event per
// nanosecond, and a NaN amplitude never let Generate return.
func TestWorkloadSpecRefusesNonFinite(t *testing.T) {
	for _, key := range []string{"rate", "burst_rate", "amplitude", "skew", "admit_rate"} {
		for _, val := range []string{"NaN", "Inf", "+Inf", "-Inf", "infinity"} {
			in := "tenant a:\nrate: 5\nobjects: o\n" + key + ": " + val + "\n"
			if _, err := ParseSpecs(strings.NewReader(in)); err == nil {
				t.Errorf("%s: %s accepted", key, val)
			}
		}
	}
}

// TestWorkloadSpecDefaults: omitted fields get the documented defaults.
func TestWorkloadSpecDefaults(t *testing.T) {
	specs, err := ParseSpecs(strings.NewReader("tenant a:\n  rate: 100\n  objects: x,y\n"))
	if err != nil {
		t.Fatal(err)
	}
	sp := specs[0]
	if sp.Weight != 1 || sp.SizeBytes != 64 || sp.Class != 0 {
		t.Fatalf("defaults: %+v", sp)
	}
	if _, err := sp.NewArrival(1); err != nil {
		t.Fatalf("default arrival: %v", err)
	}
	if keys, err := sp.NewKeys(1); err != nil || keys != nil {
		t.Fatalf("default keys should be round-robin (nil), got %v, %v", keys, err)
	}
}
