package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSlugify(t *testing.T) {
	cases := []struct{ in, want string }{
		{"Overload & backpressure", "overload--backpressure"},
		{"The ELISA call path", "the-elisa-call-path"},
		{"ring_caller internals", "ring_caller-internals"},
		{"What's in a name?", "whats-in-a-name"},
		{"C0 / C1 / C2", "c0--c1--c2"},
	}
	for _, tc := range cases {
		if got := slugify(tc.in); got != tc.want {
			t.Errorf("slugify(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestAnchorSetFencesAndDuplicates(t *testing.T) {
	doc := "# Title\n" +
		"## Setup\n" +
		"```\n" +
		"# not a heading, just a shell comment\n" +
		"```\n" +
		"## Setup\n" +
		"## `Code` heading ##\n" +
		"## A [link](OTHER.md) heading\n"
	path := filepath.Join(t.TempDir(), "doc.md")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	anchors, err := anchorSet(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"title", "setup", "setup-1", "code-heading", "a-link-heading"} {
		if !anchors[want] {
			t.Errorf("anchor %q missing; have %v", want, anchors)
		}
	}
	if anchors["not-a-heading-just-a-shell-comment"] {
		t.Error("heading inside fenced block leaked into the anchor set")
	}
}

// TestLintCostModelDrift builds a miniature tree with a two-constant
// model and checks the three drift modes: clean, a documented value that
// disagrees with Default(), and a model constant the document omits.
func TestLintCostModelDrift(t *testing.T) {
	source := `package simtime
type CostModel struct{ VMExit, VMEntry, VMFunc, GateCode, Instruction, CacheLine, HypercallDispatch, NICFrameOverhead, NICLineRateBps Duration }
type Duration int64
// Default returns the test model.
func Default() CostModel {
	return CostModel{VMExit: 380, VMEntry: 294, VMFunc: 40, GateCode: 15, Instruction: 1, CacheLine: 1, HypercallDispatch: 25, NICFrameOverhead: 20, NICLineRateBps: 10_000_000_000}
}
`
	doc := "# Cost model\n\n" +
		"| Helper | Formula | Value | Used by |\n|---|---|---|---|\n" +
		"| `ELISARoundTrip()` | 4·VMFunc + 2·GateCode + 6·Instruction | **196 ns** | tests |\n" +
		"| `VMCallRoundTrip()` | exit + entry + dispatch | **699 ns** | tests |\n" +
		"| `CopyCost(n)` | per line | 1 ns / 64 B line | copies |\n" +
		"| `NICWireTime(size)` | wire | 67.2 ns at 64 B | nets |\n\n" +
		"| Constant | Value | Models | Charged at |\n|---|---|---|---|\n" +
		"| `VMExit` | 380 ns | exit | cpu |\n" +
		"| `VMEntry` | 294 ns | entry | cpu |\n" +
		"| `VMFunc` | 40 ns | switch | cpu |\n" +
		"| `GateCode` | 15 ns | gate | core |\n" +
		"| `Instruction` | 1 ns | alu | cpu |\n" +
		"| `CacheLine` | 1 ns | line | cpu |\n" +
		"| `HypercallDispatch` | 25 ns | dispatch | hv |\n" +
		"| `NICFrameOverhead` | 20 B | overhead | vnet |\n" +
		"| `NICLineRateBps` | 10 Gb/s | wire | vnet |\n"
	build := func(src, md string) string {
		dir := t.TempDir()
		if err := os.MkdirAll(filepath.Join(dir, "internal", "simtime"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "internal", "simtime", "cost.go"), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "COSTMODEL.md"), []byte(md), 0o644); err != nil {
			t.Fatal(err)
		}
		return dir
	}

	if findings, err := lintCostModel(build(source, doc)); err != nil || len(findings) != 0 {
		t.Fatalf("clean tree: findings %v, err %v", findings, err)
	}

	drifted := strings.Replace(source, "VMExit: 380", "VMExit: 400", 1)
	findings, err := lintCostModel(build(drifted, doc))
	if err != nil {
		t.Fatal(err)
	}
	// VMExit itself plus the derived VMCallRoundTrip anchor both move.
	if len(findings) != 2 {
		t.Fatalf("drifted tree: got %d findings, want 2: %v", len(findings), findings)
	}
	for _, w := range []string{"VMExit documented as 380 ns", "VMCallRoundTrip() documented as 699 ns"} {
		found := false
		for _, f := range findings {
			if strings.Contains(f, w) {
				found = true
			}
		}
		if !found {
			t.Errorf("no finding containing %q in %v", w, findings)
		}
	}

	missing := strings.Replace(doc, "| `GateCode` | 15 ns | gate | core |\n", "", 1)
	findings, err = lintCostModel(build(source, missing))
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 || !strings.Contains(findings[0], "GateCode") {
		t.Fatalf("omitted constant: got %v, want one GateCode finding", findings)
	}

	if findings, err := lintCostModel(t.TempDir()); err != nil || findings != nil {
		t.Fatalf("tree without COSTMODEL.md: findings %v, err %v", findings, err)
	}
}

func TestLintMarkdownLinksAnchors(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("TARGET.md", "# Alpha\n## Beta gamma\n")
	write("SOURCE.md", "See [ok](TARGET.md#beta-gamma), [self](#local), "+
		"[bad](TARGET.md#missing), [gone](#nope), and [lost](NOFILE.md#alpha).\n\n## Local\n")
	findings, err := lintMarkdownLinks(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 3 {
		t.Fatalf("got %d findings, want 3: %v", len(findings), findings)
	}
	wantSubstr := []string{`broken anchor "TARGET.md#missing"`, `broken anchor "#nope"`, `broken link "NOFILE.md#alpha"`}
	for _, w := range wantSubstr {
		found := false
		for _, f := range findings {
			if strings.Contains(f, w) {
				found = true
			}
		}
		if !found {
			t.Errorf("no finding containing %q in %v", w, findings)
		}
	}
}

// TestLintKnobTable builds a miniature tree — one package, one command,
// a README knob table — and checks that rows naming real fields (direct,
// dotted, promoted, through an alias) and real flags pass, while each
// kind of drift is one finding.
func TestLintKnobTable(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("internal/a/a.go", `package a
type Config struct {
	Classes  int
	Overload Sub
	*Embedded
}
type Sub struct{ BusyFrac float64 }
type Embedded struct{ Promoted int }
type Alias = Config
`)
	write("cmd/elisa-x/main.go", `package main
import "flag"
func main() {
	flag.Int("poll", 1, "")
	var b bool
	flag.BoolVar(&b, "on", false, "")
	flag.Parse()
}
`)
	write("README.md", "| Knob | Where | Means |\n|---|---|---|\n"+
		"| `Classes`, `Overload.BusyFrac`, `Promoted`, `Embedded` | `a.Config` | real fields |\n"+
		"| `-on` | `elisa-x` | a real flag |\n"+
		"| `Classes` | `Alias` | a field through an alias |\n"+
		"| `PollBudget` | `a.Sub`, `elisa-x -poll` | bad field, real flag |\n"+
		"| `Overload.Nope` | `a.Config` | bad path |\n"+
		"| `-poll` | `a.Config` | no command named |\n"+
		"| `-nope` | `elisa-x` | undefined flag |\n"+
		"| `X` | `a.Gone` | missing type |\n"+
		"| `-on` | `elisa-gone` | missing command |\n"+
		"\n| `Ignored` | `a.Config` | after the table ends |\n")
	findings, err := lintKnobTable(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"README.md:6: knob PollBudget is not an exported field",
		"README.md:7: knob Overload.Nope is not an exported field",
		"README.md:8: flag -poll is not defined",
		"README.md:9: flag -nope is not defined",
		"README.md:10: knob table names type Gone",
		"README.md:10: knob X is not an exported field",
		"README.md:11: knob table names command elisa-gone",
		"README.md:11: flag -on is not defined",
	}
	if len(findings) != len(want) {
		t.Fatalf("got %d findings, want %d: %v", len(findings), len(want), findings)
	}
	for _, w := range want {
		found := false
		for _, f := range findings {
			if strings.HasPrefix(f, w) {
				found = true
			}
		}
		if !found {
			t.Errorf("no finding starting %q in %v", w, findings)
		}
	}
	if findings, err := lintKnobTable(t.TempDir()); err != nil || findings != nil {
		t.Fatalf("tree without README.md: findings %v, err %v", findings, err)
	}
}
