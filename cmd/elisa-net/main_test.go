package main

import (
	"strings"
	"testing"
)

func TestCheckFlagsRejectsBadValues(t *testing.T) {
	cases := []struct {
		flag             string
		scenario, scheme string
		size, packets    int
		sweep            bool
		set              []string
	}{
		{"-scenario", "fwd", "elisa", 64, 100, false, nil},
		{"-scheme", "rx", "dpdk", 64, 100, false, nil},
		{"-size", "tx", "ivshmem", 0, 100, false, nil},
		{"-size", "vv", "sriov", -1, 100, false, nil},
		{"-size", "rx", "elisa", 1501, 100, false, nil},
		{"-packets", "rx", "elisa", 64, 0, false, nil},
		{"-size", "rx", "elisa", 256, 100, true, []string{"size"}},
		{"-scheme", "vv", "vmcall", 64, 100, true, []string{"scheme"}},
	}
	for _, c := range cases {
		set := map[string]bool{}
		for _, name := range c.set {
			set[name] = true
		}
		err := checkFlags(c.scenario, c.scheme, c.size, c.packets, c.sweep, set)
		if err == nil || !strings.HasPrefix(err.Error(), c.flag+" ") {
			t.Errorf("%+v: checkFlags error %v, want one naming %s", c, err, c.flag)
		}
	}
	for _, ok := range []struct {
		size  int
		sweep bool
		set   map[string]bool
	}{
		{64, false, nil},
		{1500, false, map[string]bool{"size": true, "scheme": true}},
		{64, true, map[string]bool{"scenario": true, "packets": true}},
	} {
		if err := checkFlags("rx", "elisa", ok.size, 10000, ok.sweep, ok.set); err != nil {
			t.Errorf("%+v rejected: %v", ok, err)
		}
	}
}
