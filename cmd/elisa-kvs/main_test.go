package main

import (
	"strings"
	"testing"
)

// TestCheckFlagsRejectsIgnoredValues: -ops 0, which used to print a
// table of zeros and exit 0, and a client count outside [1,8] are usage
// errors naming their flag; the defaults stay valid.
func TestCheckFlagsRejectsIgnoredValues(t *testing.T) {
	cases := []struct {
		flag     string
		vms, ops int
	}{
		{"-ops", 4, 0},
		{"-ops", 4, -5},
		{"-vms", 0, 5000},
		{"-vms", 9, 5000},
	}
	for _, c := range cases {
		err := checkFlags(c.vms, c.ops)
		if err == nil || !strings.HasPrefix(err.Error(), c.flag+" ") {
			t.Errorf("%s: checkFlags error %v, want one naming %s", c.flag, err, c.flag)
		}
	}
	if err := checkFlags(4, 5000); err != nil {
		t.Fatalf("default flags rejected: %v", err)
	}
}
