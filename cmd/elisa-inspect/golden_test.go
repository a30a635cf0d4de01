package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestInspectGolden pins every deterministic mode's dump byte for byte:
// the default layout dump, -trace, -faults 3 and -causal all, each with
// the default flags otherwise. A change to the facade, the manager's
// bookkeeping or the causal log that moves a printed byte fails here;
// regenerate with `go test ./cmd/elisa-inspect -run Golden -update`
// only when the move is intended and explained.
func TestInspectGolden(t *testing.T) {
	cases := []struct {
		golden string
		run    func(w *bytes.Buffer) error
	}{
		{"plain.golden", func(w *bytes.Buffer) error { return run(w, 2, 2, 0, false, 0, 42) }},
		{"trace.golden", func(w *bytes.Buffer) error { return run(w, 2, 2, 0, true, 0, 42) }},
		{"faults3.golden", func(w *bytes.Buffer) error { return run(w, 2, 2, 0, false, 3, 42) }},
		{"causal_all.golden", func(w *bytes.Buffer) error { return runCausal(w, "all") }},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		if err := c.run(&buf); err != nil {
			t.Fatalf("%s: %v", c.golden, err)
		}
		path := filepath.Join("testdata", c.golden)
		if *update {
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with -update to cut the golden)", err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("%s drifted from golden; run with -update if intentional\n--- got ---\n%s\n--- want ---\n%s", c.golden, buf.Bytes(), want)
		}
	}
}
