// Command elisa-doclint is the repository's documentation gate. It
// enforces, with zero dependencies beyond the standard library:
//
//   - every package (including main packages) carries a package doc
//     comment;
//   - every exported top-level symbol — funcs, types, methods on
//     exported types, consts and vars — carries a doc comment (a doc
//     comment on a const/var/type group covers the whole group);
//   - every relative link in the repository's markdown files resolves
//     to a file that exists, and every intra-repo anchor (`#section`,
//     `FILE.md#section`) resolves to a heading in the target file (by
//     the GitHub heading-slug algorithm);
//   - every row of README.md's `| Knob | Where | Means |` table names
//     real code: each backticked field in the Knob column is an exported
//     field of a type the Where column names, and each `-flag` is
//     defined by a command the row names;
//   - every latency constant quoted in COSTMODEL.md's tables matches the
//     calibrated model in internal/simtime/cost.go — the values package
//     core charges and the perfgate kernels measure — including the two
//     derived Table 2 anchors, and no model constant is missing from the
//     document.
//
// Usage:
//
//	elisa-doclint              # lint the tree rooted at the working directory
//	elisa-doclint -root DIR    # lint another tree
//	elisa-doclint -go=false    # skip Go doc comments
//	elisa-doclint -md=false    # skip markdown links and the knob table
//	elisa-doclint -cost=false  # skip the COSTMODEL.md drift check
//
// Exit status is non-zero when any finding is reported, so CI can gate
// on it (see scripts/check-docs.sh and the docs job in ci.yml).
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"unicode"
)

func main() {
	root := flag.String("root", ".", "tree to lint")
	goLint := flag.Bool("go", true, "lint Go doc comments")
	mdLint := flag.Bool("md", true, "lint markdown links")
	costLint := flag.Bool("cost", true, "check COSTMODEL.md constants against internal/simtime")
	flag.Parse()

	var findings []string
	if *goLint {
		f, err := lintGoDocs(*root)
		if err != nil {
			fmt.Fprintf(os.Stderr, "elisa-doclint: %v\n", err)
			os.Exit(2)
		}
		findings = append(findings, f...)
	}
	if *mdLint {
		f, err := lintMarkdownLinks(*root)
		if err == nil {
			var k []string
			k, err = lintKnobTable(*root)
			f = append(f, k...)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "elisa-doclint: %v\n", err)
			os.Exit(2)
		}
		findings = append(findings, f...)
	}
	if *costLint {
		f, err := lintCostModel(*root)
		if err != nil {
			fmt.Fprintf(os.Stderr, "elisa-doclint: %v\n", err)
			os.Exit(2)
		}
		findings = append(findings, f...)
	}
	sort.Strings(findings)
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "elisa-doclint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// skipDir reports directories the walkers never descend into.
func skipDir(name string) bool {
	return name == ".git" || name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".")
}

// lintGoDocs walks every non-test Go file and reports undocumented
// packages and exported symbols.
func lintGoDocs(root string) ([]string, error) {
	// Gather package dirs.
	dirs := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && skipDir(d.Name()) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			dirs[filepath.Dir(path)] = true
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	var findings []string
	for dir := range dirs {
		f, err := lintPackageDir(root, dir)
		if err != nil {
			return nil, err
		}
		findings = append(findings, f...)
	}
	return findings, nil
}

// lintPackageDir parses one package directory and checks its doc
// comments.
func lintPackageDir(root, dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}

	var findings []string
	rel := func(p token.Pos) string {
		pos := fset.Position(p)
		r, err := filepath.Rel(root, pos.Filename)
		if err != nil {
			r = pos.Filename
		}
		return fmt.Sprintf("%s:%d", r, pos.Line)
	}

	for _, pkg := range pkgs {
		hasPkgDoc := false
		// Exported type names, so methods on them can be checked.
		exportedTypes := map[string]bool{}
		for _, file := range pkg.Files {
			if file.Doc != nil {
				hasPkgDoc = true
			}
			for _, decl := range file.Decls {
				if gd, ok := decl.(*ast.GenDecl); ok && gd.Tok == token.TYPE {
					for _, spec := range gd.Specs {
						if ts, ok := spec.(*ast.TypeSpec); ok && ts.Name.IsExported() {
							exportedTypes[ts.Name.Name] = true
						}
					}
				}
			}
		}
		if !hasPkgDoc {
			reldir, _ := filepath.Rel(root, dir)
			findings = append(findings, fmt.Sprintf("%s: package %s has no package doc comment", reldir, pkg.Name))
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				findings = append(findings, lintDecl(decl, exportedTypes, rel)...)
			}
		}
	}
	return findings, nil
}

// lintDecl reports the undocumented exported symbols of one top-level
// declaration.
func lintDecl(decl ast.Decl, exportedTypes map[string]bool, rel func(token.Pos) string) []string {
	var findings []string
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if !d.Name.IsExported() {
			return nil
		}
		if d.Recv != nil {
			// Methods count only when the receiver type is exported.
			if t := receiverTypeName(d.Recv); t != "" && !exportedTypes[t] {
				return nil
			}
		}
		if d.Doc == nil {
			kind := "func"
			name := d.Name.Name
			if d.Recv != nil {
				kind = "method"
				if t := receiverTypeName(d.Recv); t != "" {
					name = t + "." + name
				}
			}
			findings = append(findings, fmt.Sprintf("%s: exported %s %s has no doc comment", rel(d.Pos()), kind, name))
		}
	case *ast.GenDecl:
		if d.Doc != nil {
			return nil // a group doc covers every spec in the group
		}
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if s.Name.IsExported() && s.Doc == nil && s.Comment == nil {
					findings = append(findings, fmt.Sprintf("%s: exported type %s has no doc comment", rel(s.Pos()), s.Name.Name))
				}
			case *ast.ValueSpec:
				if s.Doc != nil || s.Comment != nil {
					continue
				}
				for _, n := range s.Names {
					if n.IsExported() {
						findings = append(findings, fmt.Sprintf("%s: exported %s %s has no doc comment", rel(s.Pos()), strings.ToLower(d.Tok.String()), n.Name))
					}
				}
			}
		}
	}
	return findings
}

// receiverTypeName extracts the bare type name of a method receiver.
func receiverTypeName(recv *ast.FieldList) string {
	if recv == nil || len(recv.List) == 0 {
		return ""
	}
	t := recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if idx, ok := t.(*ast.IndexExpr); ok { // generic receiver
		t = idx.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// costModelDoc and costModelSource are the two halves of the cost-model
// drift check: the markdown reference and the one Go file whose Default()
// literal is the source of truth for every simulated-time constant (the
// values internal/core charges and the internal/perfgate kernels measure).
const (
	costModelDoc    = "COSTMODEL.md"
	costModelSource = "internal/simtime/cost.go"
)

// parseCostDefaults parses the Default() composite literal in
// costModelSource and returns every field assigned an integer literal,
// by name. Underscored literals (10_000_000_000) parse like Go does.
func parseCostDefaults(path string) (map[string]float64, error) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, path, nil, 0)
	if err != nil {
		return nil, err
	}
	vals := map[string]float64{}
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Recv != nil || fd.Name.Name != "Default" {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			kv, ok := n.(*ast.KeyValueExpr)
			if !ok {
				return true
			}
			id, ok := kv.Key.(*ast.Ident)
			if !ok {
				return true
			}
			if bl, ok := kv.Value.(*ast.BasicLit); ok && bl.Kind == token.INT {
				if v, err := strconv.ParseFloat(strings.ReplaceAll(bl.Value, "_", ""), 64); err == nil {
					vals[id.Name] = v
				}
			}
			return true
		})
	}
	if len(vals) == 0 {
		return nil, fmt.Errorf("%s: no Default() literal found", path)
	}
	return vals, nil
}

// costCell matches the leading quantity of a Value cell: a number and
// its unit — nanoseconds for durations, Gb/s for the line rate, bare
// bytes for the frame overhead.
var costCell = regexp.MustCompile(`([0-9]+(?:\.[0-9]+)?)\s*(ns|Gb/s|B)\b`)

// costName extracts the backticked constant or helper name that opens a
// COSTMODEL.md table row.
var costName = regexp.MustCompile("`([A-Za-z][A-Za-z0-9_]*(?:\\([a-z]*\\))?)`")

// lintCostModel cross-checks every constant quoted in COSTMODEL.md's
// tables against the parsed Default() cost model: each documented value
// must equal the code's, the derived Table 2 anchors must match their
// formulas, and every model field must appear in the document. Nothing
// to do when the tree carries no COSTMODEL.md.
func lintCostModel(root string) ([]string, error) {
	docPath := filepath.Join(root, costModelDoc)
	data, err := os.ReadFile(docPath)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	vals, err := parseCostDefaults(filepath.Join(root, costModelSource))
	if err != nil {
		return nil, err
	}
	// The document also quotes the derived helpers; their truth is the
	// same formulas the CostModel methods compute (NICWireTime at the
	// 64-byte frame size the table uses).
	derived := map[string]float64{
		"ELISARoundTrip()":  4*vals["VMFunc"] + 2*vals["GateCode"] + 6*vals["Instruction"],
		"VMCallRoundTrip()": vals["VMExit"] + vals["VMEntry"] + vals["HypercallDispatch"],
		"CopyCost(n)":       vals["CacheLine"],
		"NICWireTime(size)": (64 + vals["NICFrameOverhead"]) * 8 * 1e9 / vals["NICLineRateBps"],
	}
	var findings []string
	seen := map[string]bool{}
	valueCol := -1
	for i, line := range strings.Split(string(data), "\n") {
		trimmed := strings.TrimSpace(line)
		if !strings.HasPrefix(trimmed, "|") {
			continue
		}
		cells := strings.Split(strings.Trim(trimmed, "|"), "|")
		for j := range cells {
			cells[j] = strings.TrimSpace(cells[j])
		}
		if header := indexOf(cells, "Value"); header >= 0 {
			valueCol = header
			continue
		}
		if valueCol < 0 || len(cells) <= valueCol || len(cells) == 0 {
			continue
		}
		m := costName.FindStringSubmatch(cells[0])
		if m == nil {
			continue
		}
		name := m[1]
		want, isConst := vals[name]
		if !isConst {
			var isDerived bool
			if want, isDerived = derived[name]; !isDerived {
				continue
			}
		}
		seen[name] = true
		cm := costCell.FindStringSubmatch(strings.ReplaceAll(cells[valueCol], "*", ""))
		if cm == nil {
			findings = append(findings, fmt.Sprintf("%s:%d: %s row has no parseable value %q",
				costModelDoc, i+1, name, cells[valueCol]))
			continue
		}
		got, _ := strconv.ParseFloat(cm[1], 64)
		if cm[2] == "Gb/s" {
			got *= 1e9
		}
		if diff := got - want; diff > 1e-6 || diff < -1e-6 {
			findings = append(findings, fmt.Sprintf("%s:%d: %s documented as %s %s but %s says %v",
				costModelDoc, i+1, name, cm[1], cm[2], costModelSource, want))
		}
	}
	for name := range vals {
		if !seen[name] {
			findings = append(findings, fmt.Sprintf("%s: model constant %s (%s) missing from the constant tables",
				costModelDoc, name, costModelSource))
		}
	}
	for name := range derived {
		if !seen[name] {
			findings = append(findings, fmt.Sprintf("%s: derived helper %s missing from the constant tables",
				costModelDoc, name))
		}
	}
	return findings, nil
}

// indexOf returns the index of want in cells, or -1.
func indexOf(cells []string, want string) int {
	for i, c := range cells {
		if c == want {
			return i
		}
	}
	return -1
}

// mdLink matches inline markdown links and images. Reference-style
// definitions are rare in this tree and left to the file-exists check
// of their inline form.
var mdLink = regexp.MustCompile(`!?\[[^\]]*\]\(([^)\s]+)(?:\s+"[^"]*")?\)`)

// quotedMaterial names markdown files that reproduce external documents
// verbatim (paper abstracts, exemplar snippets from other repositories).
// Their links point into trees that are not checked out here, so the
// link checker skips them.
var quotedMaterial = map[string]bool{
	"PAPER.md":    true,
	"PAPERS.md":   true,
	"SNIPPETS.md": true,
	"ISSUE.md":    true,
}

// mdHeadingLink rewrites inline links and images inside a heading to
// their bracket text, the way GitHub does before slugging.
var mdHeadingLink = regexp.MustCompile(`!?\[([^\]]*)\]\([^)]*\)`)

// slugify converts a heading's text to its GitHub anchor slug: lowered,
// punctuation stripped, spaces turned into hyphens. Letters, digits,
// hyphens, and underscores survive; everything else is dropped.
func slugify(heading string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(heading) {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r) || r == '-' || r == '_':
			b.WriteRune(r)
		case r == ' ':
			b.WriteByte('-')
		}
	}
	return b.String()
}

// anchorSet parses the markdown file at path into the set of heading
// anchors it defines. ATX headings inside fenced code blocks do not
// count, and duplicate slugs grow the -1/-2 suffixes GitHub appends.
func anchorSet(path string) (map[string]bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	anchors := map[string]bool{}
	counts := map[string]int{}
	inFence := false
	for _, line := range strings.Split(string(data), "\n") {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "```") || strings.HasPrefix(trimmed, "~~~") {
			inFence = !inFence
			continue
		}
		if inFence || !strings.HasPrefix(trimmed, "#") {
			continue
		}
		level := 0
		for level < len(trimmed) && trimmed[level] == '#' {
			level++
		}
		if level > 6 || level == len(trimmed) || trimmed[level] != ' ' {
			continue
		}
		text := strings.TrimSpace(strings.TrimRight(trimmed[level:], "#"))
		text = mdHeadingLink.ReplaceAllString(text, "$1")
		text = strings.NewReplacer("`", "", "*", "").Replace(text)
		slug := slugify(text)
		if n := counts[slug]; n > 0 {
			anchors[fmt.Sprintf("%s-%d", slug, n)] = true
		} else {
			anchors[slug] = true
		}
		counts[slug]++
	}
	return anchors, nil
}

// lintMarkdownLinks checks every relative link target in the tree's
// markdown files: the target file must exist, and when the link carries
// a fragment into a markdown file — its own (`#section`) or another's
// (`FILE.md#section`) — the fragment must name a real heading anchor.
func lintMarkdownLinks(root string) ([]string, error) {
	var findings []string
	anchorCache := map[string]map[string]bool{}
	anchorsOf := func(p string) map[string]bool {
		if a, ok := anchorCache[p]; ok {
			return a
		}
		a, err := anchorSet(p)
		if err != nil {
			a = nil // unreadable target: the Stat above already reported it
		}
		anchorCache[p] = a
		return a
	}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && skipDir(d.Name()) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(strings.ToLower(d.Name()), ".md") || quotedMaterial[d.Name()] {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		relFile, _ := filepath.Rel(root, path)
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range mdLink.FindAllStringSubmatch(line, -1) {
				target := m[1]
				if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
					continue
				}
				frag := ""
				if idx := strings.IndexByte(target, '#'); idx >= 0 {
					target, frag = target[:idx], target[idx+1:]
				}
				resolved := path // bare-fragment links point into this file
				if target != "" {
					resolved = filepath.Join(filepath.Dir(path), target)
					if _, err := os.Stat(resolved); err != nil {
						findings = append(findings, fmt.Sprintf("%s:%d: broken link %q", relFile, i+1, m[1]))
						continue
					}
				}
				if frag == "" || !strings.HasSuffix(strings.ToLower(resolved), ".md") {
					continue
				}
				if a := anchorsOf(resolved); a != nil && !a[frag] {
					findings = append(findings, fmt.Sprintf("%s:%d: broken anchor %q", relFile, i+1, m[1]))
				}
			}
		}
		return nil
	})
	return findings, err
}
