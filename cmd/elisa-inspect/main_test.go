package main

import (
	"strings"
	"testing"
)

// TestCheckFlagsRejectsIgnoredValues: each flag value that used to crash
// the dump, print an empty one, fail with an unrelated error, or print
// exactly the default output is a usage error naming its flag.
func TestCheckFlagsRejectsIgnoredValues(t *testing.T) {
	cases := []struct {
		flag                              string
		guests, objects, slotBudget, nflt int
	}{
		{"-guests", -2, 2, 0, 0},
		{"-guests", 0, 2, 0, 0},
		{"-objects", 2, 0, 0, 0},
		{"-slot-budget", 2, 2, -1, 0},
		{"-slot-budget", 2, 2, 511, 0},
		{"-faults", 2, 2, 0, -1},
	}
	for _, c := range cases {
		err := checkFlags(c.guests, c.objects, c.slotBudget, c.nflt)
		if err == nil || !strings.HasPrefix(err.Error(), c.flag+" ") {
			t.Errorf("%s: checkFlags error %v, want one naming %s", c.flag, err, c.flag)
		}
	}
	// The defaults, and the documented zeros, stay valid.
	if err := checkFlags(2, 2, 0, 0); err != nil {
		t.Fatalf("default flags rejected: %v", err)
	}
	if err := checkFlags(1, 1, 1, 3); err != nil {
		t.Fatalf("valid flags rejected: %v", err)
	}
}
