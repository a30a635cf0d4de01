package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"unicode"
)

// knobDoc is the markdown file whose `| Knob | Where | Means |` table
// lintKnobTable checks against the code.
const knobDoc = "README.md"

// backticked matches one backticked span of a table cell.
var backticked = regexp.MustCompile("`([^`]+)`")

// goIndex is the type declarations of every non-main package in the
// tree, by package name then type name, for resolving knob table rows.
type goIndex map[string]map[string]*ast.TypeSpec

// buildGoIndex parses every non-test, non-main Go package under root.
func buildGoIndex(root string) (goIndex, error) {
	ix := goIndex{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if path != root && skipDir(d.Name()) {
			return filepath.SkipDir
		}
		pkgs, err := parser.ParseDir(token.NewFileSet(), path, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			return err
		}
		for name, pkg := range pkgs {
			if name == "main" {
				continue
			}
			if ix[name] == nil {
				ix[name] = map[string]*ast.TypeSpec{}
			}
			for _, file := range pkg.Files {
				for _, decl := range file.Decls {
					if gd, ok := decl.(*ast.GenDecl); ok && gd.Tok == token.TYPE {
						for _, spec := range gd.Specs {
							ts := spec.(*ast.TypeSpec)
							ix[name][ts.Name.Name] = ts
						}
					}
				}
			}
		}
		return nil
	})
	return ix, err
}

// typeOf resolves a type expression written in package pkg to the
// (package, type name) it names, seeing through pointers. ok is false
// for unnamed types (maps, slices, funcs), which have no fields.
func typeOf(pkg string, e ast.Expr) (string, string, bool) {
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	switch t := e.(type) {
	case *ast.Ident:
		return pkg, t.Name, true
	case *ast.SelectorExpr:
		if x, ok := t.X.(*ast.Ident); ok {
			return x.Name, t.Sel.Name, true
		}
	}
	return "", "", false
}

// hasField reports whether the dotted field path resolves from type
// pkg.typ: each step an exported field (promoted through embedded
// structs included) whose type holds the next step. Aliases and defined
// types are followed to the struct they name.
func (ix goIndex) hasField(pkg, typ string, path []string) bool {
	ts := ix[pkg][typ]
	if ts == nil || !ast.IsExported(path[0]) {
		return false
	}
	st, ok := ts.Type.(*ast.StructType)
	if !ok {
		p, t, ok := typeOf(pkg, ts.Type)
		return ok && (p != pkg || t != typ) && ix.hasField(p, t, path)
	}
	for _, f := range st.Fields.List {
		fp, ft, named := typeOf(pkg, f.Type)
		names := f.Names
		if len(names) == 0 { // embedded: named by its type, fields promoted
			if named && ft != path[0] && ix.hasField(fp, ft, path) {
				return true
			}
			names = []*ast.Ident{ast.NewIdent(ft)}
		}
		for _, n := range names {
			if n.Name == path[0] {
				return len(path) == 1 || named && ix.hasField(fp, ft, path[1:])
			}
		}
	}
	return false
}

// packagesDeclaring returns every package declaring a type with this
// name. The knob table may name a type bare (`Manager.SetOverload`).
func (ix goIndex) packagesDeclaring(name string) []string {
	var pkgs []string
	for pkg, types := range ix {
		if types[name] != nil {
			pkgs = append(pkgs, pkg)
		}
	}
	return pkgs
}

// flagCall names the flag package functions that define a flag; the
// flag's name is the call's first string-literal argument.
var flagCall = map[string]bool{
	"Bool": true, "BoolVar": true, "Int": true, "IntVar": true, "Int64": true, "Int64Var": true,
	"Uint": true, "UintVar": true, "Uint64": true, "Uint64Var": true, "String": true, "StringVar": true,
	"Float64": true, "Float64Var": true, "Duration": true, "DurationVar": true, "Func": true,
	"BoolFunc": true, "Var": true, "TextVar": true,
}

// commandFlags returns the flags cmd/<name> defines, or nil when there
// is no such command.
func commandFlags(root, name string) (map[string]bool, error) {
	dir := filepath.Join(root, "cmd", name)
	if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
		return nil, nil
	}
	pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		return nil, err
	}
	flags := map[string]bool{}
	for _, pkg := range pkgs {
		ast.Inspect(pkg, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !flagCall[sel.Sel.Name] {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); !ok || x.Name != "flag" {
				return true
			}
			for _, arg := range call.Args {
				if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if s, err := strconv.Unquote(lit.Value); err == nil {
						flags[s] = true
					}
					break
				}
			}
			return true
		})
	}
	return flags, nil
}

// lintKnobTable checks knobDoc's `| Knob | Where | Means |` table
// against the code. In each row, every backticked field in the Knob
// column (`Classes`, or a path like `Overload.BusyFrac`) must be an
// exported field of a type the Where column names (`fleet.Config`), and
// every `-flag` must be defined by a command the row names (`elisa-top`,
// or `elisa-bench -parallel`). Types the row names must exist. Nothing
// to do when the tree carries no knobDoc.
func lintKnobTable(root string) ([]string, error) {
	data, err := os.ReadFile(filepath.Join(root, knobDoc))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var ix goIndex
	var findings []string
	inTable := false
	for i, line := range strings.Split(string(data), "\n") {
		trimmed := strings.TrimSpace(line)
		if !strings.HasPrefix(trimmed, "|") {
			inTable = false
			continue
		}
		cells := strings.Split(strings.Trim(trimmed, "|"), "|")
		for j := range cells {
			cells[j] = strings.TrimSpace(cells[j])
		}
		if len(cells) >= 3 && cells[0] == "Knob" && cells[1] == "Where" && cells[2] == "Means" {
			inTable = true
			continue
		}
		if !inTable || len(cells) < 3 || strings.Trim(cells[0], "-: ") == "" {
			continue
		}
		if ix == nil {
			if ix, err = buildGoIndex(root); err != nil {
				return nil, err
			}
		}
		at := fmt.Sprintf("%s:%d", knobDoc, i+1)
		f, err := lintKnobRow(root, ix, at, cells[0], cells[1])
		if err != nil {
			return nil, err
		}
		findings = append(findings, f...)
	}
	return findings, nil
}

// typeRef is one type a knob row names: pkg is "" when it is named bare.
type typeRef struct{ pkg, name string }

// lintKnobRow checks one knob table row; at locates it in findings.
func lintKnobRow(root string, ix goIndex, at, knobCell, whereCell string) ([]string, error) {
	var findings []string
	var types []typeRef
	var fields [][]string
	var flags, cmds []string
	classify := func(cell string, inWhere bool) {
		for _, m := range backticked.FindAllStringSubmatch(cell, -1) {
			for _, word := range strings.Fields(m[1]) {
				dot := strings.IndexByte(word, '.')
				switch {
				case strings.HasPrefix(word, "-"):
					flags = append(flags, strings.TrimPrefix(word, "-"))
				case strings.HasPrefix(word, "elisa-"):
					cmds = append(cmds, word)
				case dot > 0 && unicode.IsLower(rune(word[0])): // pkg.Type
					types = append(types, typeRef{word[:dot], word[dot+1:]})
				case inWhere && dot > 0: // Type.Member
					types = append(types, typeRef{"", word[:dot]})
				case inWhere:
					types = append(types, typeRef{"", word})
				default: // a field, or a field path
					fields = append(fields, strings.Split(word, "."))
				}
			}
		}
	}
	classify(knobCell, false)
	classify(whereCell, true)
	var resolved []typeRef
	for _, ty := range types {
		pkgs := []string{ty.pkg}
		if ty.pkg == "" {
			pkgs = ix.packagesDeclaring(ty.name)
		}
		n := len(resolved)
		for _, p := range pkgs {
			if ix[p][ty.name] != nil {
				resolved = append(resolved, typeRef{p, ty.name})
			}
		}
		if len(resolved) == n {
			findings = append(findings, fmt.Sprintf("%s: knob table names type %s, which does not exist", at, ty.name))
		}
	}
	types = resolved
	for _, path := range fields {
		found := false
		for _, ty := range types {
			if ix.hasField(ty.pkg, ty.name, path) {
				found = true
				break
			}
		}
		if !found {
			findings = append(findings, fmt.Sprintf("%s: knob %s is not an exported field of a type in the Where column",
				at, strings.Join(path, ".")))
		}
	}
	defined := map[string]bool{}
	for _, c := range cmds {
		cf, err := commandFlags(root, c)
		if err != nil {
			return nil, err
		}
		if cf == nil {
			findings = append(findings, fmt.Sprintf("%s: knob table names command %s, which does not exist", at, c))
		}
		for fl := range cf {
			defined[fl] = true
		}
	}
	for _, fl := range flags {
		if !defined[fl] {
			findings = append(findings, fmt.Sprintf("%s: flag -%s is not defined by a command the row names", at, fl))
		}
	}
	return findings, nil
}
