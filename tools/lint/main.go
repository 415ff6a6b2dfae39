// Command lint checks the module's production code by type, not by text;
// run it from the module root as "go run ./tools/lint". It type-checks
// the non-test files of the module and of the modules nested in it
// (perfbench/, read only as callers) and resolves each name to the object
// it denotes. twins and check describe the rules. allow.txt lists the
// exceptions, one "rule path name reason" per line, name being what the
// finding names; a line that matches nothing fails as stale. Additions
// need a review, not a reflex. A reason names a ROADMAP item by its
// title, never by its number: items are renumbered when the ROADMAP is
// re-anchored.
package main

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/constant"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"net/http"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
)

func main() {
	report, err := lint(".", "tools/lint/allow.txt")
	if err != nil {
		fmt.Fprintln(os.Stderr, "lint:", err)
		os.Exit(2)
	}
	if len(report) > 0 {
		fmt.Fprintln(os.Stderr, strings.Join(report, "\n"))
		os.Exit(1)
	}
	fmt.Println("lint: ok")
}

var (
	// rules lists each rule with the fix-it printed after its findings.
	rules = []struct{ name, fix string }{
		{"uncalled", "Delete each with the tests that only cover it, move a test oracle or hook into a _test.go file of its package, or (for a name kept on purpose) allow it."},
		{"twin", "Keep the entry point that takes every input, move the callers of the twin onto it and delete the twin, or (for a genuine exception) allow it."},
		{"knob", "Replace each with the constant it defaults to and delete the branch it selects, or (for a knob kept on purpose) allow it."},
		{"atomic", "Use a metrics.Counter or metrics.Gauge from the observatory registry, or (for a genuine non-metric atomic) allow it."},
		{"metrics", "Register the values as instruments or callback gauges in the observatory registry (/metrics serves its snapshot), or allow it."},
		{"stats", "Read the registered instruments from the registry, or (for numbers no registry holds) allow it."},
		{"flot", "internal/portal streams Flot (WriteFlot); internal/ogc/wps, internal/workflow and internal/core never encode a series with FlotJSON."},
		{"method", "internal/portal checks methods only in routes.go, from the route table."},
		{"scratch", "Run models through Run and fan out with sched.ForEach (no ScratchModel, NewScratch, RunInto, NewRunner or SetChunk)."},
		{"go", "Start goroutines only in the owners the allowlist names; fan out on the sched pool (sched.ForEach / sched.Map)."},
		{"header", "Spell each constant http.Header key as http.CanonicalHeaderKey does (X-Request-Id, Etag): Get canonicalizes its key, so a map write under another spelling is invisible to it, and a key spelt otherwise is copied on every call."},
	}
	modLine = regexp.MustCompile(`(?m)^module\s+"?([^\s"]+)`)
	knob    = regexp.MustCompile(`(Config|Options|Spec)$`)
	newWith = regexp.MustCompile(`^(New\w*)With[A-Z]\w*$`)
	scratch = regexp.MustCompile(`ScratchModel|NewScratch|RunInto|NewRunner|SetChunk`)
)

type pkg struct {
	path   string
	caller bool // in a nested module: read for its uses only
	files  []*ast.File
	types  *types.Package
	info   *types.Info
}

type linter struct {
	fset   *token.FileSet
	pkgs   []*pkg
	byPath map[string]*pkg
	std    types.Importer
	found  map[string][]finding // by rule
}

type finding struct{ key, text string } // key is "path name"

// lint checks the tree at root against the allowlist allow, a path
// relative to root, and returns the report: empty when the tree passes.
func lint(root, allow string) ([]string, error) {
	l := &linter{fset: token.NewFileSet(), byPath: map[string]*pkg{}, found: map[string][]finding{}}
	if err := l.load(root); err != nil {
		return nil, err
	}
	l.twins()
	l.check()
	return l.report(root, allow)
}

// load parses every package under root and type-checks each after the
// packages it imports.
func (l *linter) load(root string) error {
	modules := map[string]string{} // module dir → module path
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, p)
		rel = filepath.ToSlash(rel)
		if n := d.Name(); d.IsDir() && rel != "." && (n == "testdata" || n[0] == '.' || n[0] == '_') {
			return filepath.SkipDir
		}
		if mod, err := os.ReadFile(filepath.Join(p, "go.mod")); d.IsDir() && err == nil {
			modules[rel] = string(modLine.FindSubmatch(mod)[1])
		}
		if d.IsDir() || !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(filepath.Dir(p), d.Name()); !ok {
			return err
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(l.fset, rel, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		mod := path.Dir(rel)
		for _, ok := modules[mod]; !ok && mod != "."; _, ok = modules[mod] {
			mod = path.Dir(mod)
		}
		importPath := path.Join(modules[mod], strings.TrimPrefix(path.Dir(rel), mod))
		if l.byPath[importPath] == nil {
			l.byPath[importPath] = &pkg{path: importPath, caller: mod != "."}
			l.pkgs = append(l.pkgs, l.byPath[importPath])
		}
		l.byPath[importPath].files = append(l.byPath[importPath].files, f)
		return nil
	})
	if err != nil {
		return err
	}
	// cgo files need a C toolchain; their pure-Go variants declare the
	// same API.
	build.Default.CgoEnabled = false
	l.std = importer.ForCompiler(l.fset, "source", nil)
	for _, p := range l.pkgs {
		if _, err := l.Import(p.path); err != nil {
			return err
		}
	}
	return nil
}

// Import type-checks a package of the tree on its first import, and
// hands any other path to the standard library's source importer.
func (l *linter) Import(path string) (_ *types.Package, err error) {
	p := l.byPath[path]
	if p == nil {
		return l.std.Import(path)
	}
	if p.types == nil {
		p.info = &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
		p.types, err = (&types.Config{Importer: l}).Check(p.path, l.fset, p.files, p.info)
	}
	return p.types, err
}

func (l *linter) add(rule string, pos token.Pos, name, detail string) {
	at := l.fset.Position(pos)
	l.found[rule] = append(l.found[rule], finding{at.Filename + " " + name, fmt.Sprintf("%s:%d: %s: %s %s", at.Filename, at.Line, rule, name, detail)})
}

// twins: in a root-module package, an exported F beside FContext (in the
// package scope or one method set), or NewX beside NewXWith…. The
// finding names the shorter twin.
func (l *linter) twins() {
	for _, p := range l.pkgs {
		funcs := map[string]*types.Func{} // by Name or Type.Name
		for _, n := range p.types.Scope().Names() {
			switch obj := p.types.Scope().Lookup(n).(type) {
			case *types.Func:
				funcs[n] = obj
			case *types.TypeName:
				if nt, ok := obj.Type().(*types.Named); ok && !obj.IsAlias() {
					for i := 0; i < nt.NumMethods(); i++ {
						funcs[n+"."+nt.Method(i).Name()] = nt.Method(i)
					}
				}
			}
		}
		for name, fn := range funcs {
			for _, b := range []string{strings.TrimSuffix(name, "Context"), newWith.ReplaceAllString(name, "$1")} {
				if short := funcs[b]; short != nil && b != name && fn.Exported() && !p.caller {
					l.add("twin", short.Pos(), b, "beside "+name)
				}
			}
		}
	}
}

// check applies the other rules to the root module's files, naming each
// finding by the top-level declaration that holds it:
//   - uncalled: a function or method declared in internal/ that no code
//     uses, unless through it its receiver type satisfies an interface.
//   - knob: an exported field of an internal/ …Config, …Options or …Spec
//     struct that no file but its own sets, by keyed literal or
//     assignment.
//   - atomic, metrics, stats: outside internal/metrics, a use of
//     sync/atomic's Uint64 or Int64 (in internal/, cmd/ or evop.go), a
//     …Metrics struct, or a …Stats struct or Stats() method (there or in
//     examples/): operational numbers live in the metrics registry.
//   - flot: in internal/portal, a call of a …FlotJSON function or a
//     conversion to json.RawMessage; in internal/ogc/wps,
//     internal/workflow and internal/core, a call of a FlotJSON method.
//   - method: in internal/portal outside routes.go, a .Method compared
//     with == or !=, switched on, or inside a Contains call's arguments.
//   - scratch: an identifier matching scratch; go: a go statement in
//     internal/ or cmd/.
//   - header: a constant key, passed to an http.Header's Get, Set, Add,
//     Del or Values or indexing an http.Header, that differs from its
//     http.CanonicalHeaderKey.
func (l *linter) check() {
	used := map[types.Object]bool{}
	setIn := map[types.Object][]string{} // field → files that set it
	for _, p := range l.pkgs {
		for _, obj := range p.info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				used[fn.Origin()] = true
			}
		}
		for _, f := range p.files {
			set := func(e ast.Expr) {
				if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
					e = sel.Sel
				}
				if id, ok := e.(*ast.Ident); ok {
					if v, ok := p.info.Uses[id].(*types.Var); ok && v.IsField() {
						setIn[v.Origin()] = append(setIn[v.Origin()], l.fset.File(f.Pos()).Name())
					}
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if kv, ok := n.(*ast.KeyValueExpr); ok {
					set(kv.Key)
				} else if as, ok := n.(*ast.AssignStmt); ok {
					for _, e := range as.Lhs {
						set(e)
					}
				}
				return true
			})
		}
	}
	ifaces := l.interfaces()
	isMethod := func(e ast.Expr) bool {
		sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
		return ok && sel.Sel.Name == "Method"
	}
	headerKeys := []string{"Get", "Set", "Add", "Del", "Values"}
	for _, p := range l.pkgs {
		if p.caller {
			continue
		}
		for _, f := range p.files {
			name := l.fset.File(f.Pos()).Name()
			dir, internal := path.Dir(name), strings.HasPrefix(name, "internal/")
			atomics := (internal || strings.HasPrefix(name, "cmd/") || name == "evop.go") && dir != "internal/metrics"
			registry := atomics || strings.HasPrefix(name, "examples/")
			portal := dir == "internal/portal" && path.Base(name) != "routes.go"
			declared(f, p.info, func(decl string, node ast.Node) {
				at := func(rule string, n ast.Node, detail string) { l.add(rule, n.Pos(), decl, detail) }
				// headerKey reports key if it is a constant key of the
				// http.Header h that is not in canonical form.
				headerKey := func(h, key ast.Expr) {
					if types.TypeString(p.info.TypeOf(h), nil) != "net/http.Header" {
						return
					}
					if v := p.info.Types[key].Value; v != nil && v.Kind() == constant.String {
						if k := constant.StringVal(v); k != http.CanonicalHeaderKey(k) {
							at("header", key, fmt.Sprintf("keys a header %q, not %q", k, http.CanonicalHeaderKey(k)))
						}
					}
				}
				ast.Inspect(node, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.FuncDecl:
						if fn := p.info.Defs[n.Name].(*types.Func); internal && n.Name.Name != "init" && n.Name.Name != "main" && !used[fn] && !satisfies(fn, ifaces) {
							at("uncalled", n.Name, "has no caller outside tests")
						}
						if n.Recv != nil && n.Name.Name == "Stats" && n.Type.Params.NumFields() == 0 && registry {
							at("stats", n.Name, "is a Stats accessor")
						}
					case *ast.TypeSpec:
						st, ok := n.Type.(*ast.StructType)
						if ok && registry && strings.HasSuffix(n.Name.Name, "Metrics") {
							at("metrics", n, "is a hand-built metrics struct")
						} else if ok && registry && strings.HasSuffix(n.Name.Name, "Stats") {
							at("stats", n, "is a Stats snapshot")
						}
						if !ok || !internal || !knob.MatchString(n.Name.Name) {
							break
						}
						for _, field := range st.Fields.List {
							for _, id := range field.Names {
								if id.IsExported() && !slices.ContainsFunc(setIn[p.info.Defs[id]], func(file string) bool { return file != name }) {
									l.add("knob", id.Pos(), n.Name.Name+"."+id.Name, "is set only in its declaring file")
								}
							}
						}
					case *ast.Ident:
						if tn, ok := p.info.Uses[n].(*types.TypeName); ok && atomics && tn.Pkg() != nil && tn.Pkg().Path() == "sync/atomic" && (tn.Name() == "Uint64" || tn.Name() == "Int64") {
							at("atomic", n, "uses atomic."+tn.Name())
						}
						if scratch.MatchString(n.Name) {
							at("scratch", n, "names "+n.Name)
						}
					case *ast.CallExpr:
						callee := ""
						switch fn := ast.Unparen(n.Fun).(type) {
						case *ast.Ident:
							callee = fn.Name
						case *ast.SelectorExpr:
							callee = fn.Sel.Name
							if callee == "FlotJSON" && (dir == "internal/ogc/wps" || dir == "internal/workflow" || dir == "internal/core") {
								at("flot", n, "calls FlotJSON")
							}
							if slices.Contains(headerKeys, callee) && len(n.Args) > 0 {
								headerKey(fn.X, n.Args[0])
							}
						}
						if tv := p.info.Types[n.Fun]; portal && (strings.HasSuffix(callee, "FlotJSON") || tv.IsType() && types.TypeString(tv.Type, nil) == "encoding/json.RawMessage") {
							at("flot", n, "calls "+callee)
						}
						for _, a := range n.Args {
							ast.Inspect(a, func(m ast.Node) bool {
								if e, ok := m.(ast.Expr); ok && portal && callee == "Contains" && isMethod(e) {
									at("method", m, "passes .Method to Contains")
								}
								return true
							})
						}
					case *ast.IndexExpr:
						headerKey(n.X, n.Index)
					case *ast.BinaryExpr:
						if portal && (n.Op == token.EQL || n.Op == token.NEQ) && (isMethod(n.X) || isMethod(n.Y)) {
							at("method", n, "compares .Method")
						}
					case *ast.SwitchStmt:
						if portal && n.Tag != nil && isMethod(n.Tag) {
							at("method", n, "switches on .Method")
						}
					case *ast.GoStmt:
						if internal || strings.HasPrefix(name, "cmd/") {
							at("go", n, "starts a goroutine")
						}
					}
					return true
				})
			})
		}
	}
}

// interfaces indexes by method name the interfaces that the loaded
// packages and their imports declare, and those the checked code
// mentions.
func (l *linter) interfaces() map[string][]*types.Interface {
	byName := map[string][]*types.Interface{}
	seen := map[*types.Interface]bool{}
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && !seen[it] && it.IsMethodSet() {
			seen[it] = true
			for i := 0; i < it.NumMethods(); i++ {
				byName[it.Method(i).Name()] = append(byName[it.Method(i).Name()], it)
			}
		}
	}
	visited := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if visited[p] {
			return
		}
		visited[p] = true
		for _, n := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(n).(*types.TypeName); ok {
				if nt, ok := tn.Type().(*types.Named); !ok || nt.TypeParams().Len() == 0 {
					add(tn.Type())
				}
			}
		}
		for _, q := range p.Imports() {
			visit(q)
		}
	}
	for _, p := range l.pkgs {
		visit(p.types)
		for _, tv := range p.info.Types {
			if tv.Type != nil {
				add(tv.Type)
			}
		}
	}
	return byName
}

// recvType is fn's receiver type without its pointer, or nil.
func recvType(fn *types.Func) types.Type {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	if p, ok := recv.Type().(*types.Pointer); ok {
		return p.Elem()
	}
	return recv.Type()
}

// satisfies reports whether fn is a method through which a pointer to its
// receiver type (whose method set holds the value's) implements an
// interface of ifaces.
func satisfies(fn *types.Func, ifaces map[string][]*types.Interface) bool {
	t := recvType(fn)
	for _, it := range ifaces[fn.Name()] {
		if t != nil && types.Implements(types.NewPointer(t), it) {
			return true
		}
	}
	return false
}

// declared calls fn with each top-level declaration of f and the name
// its findings carry: Name or Type.Name for a function, else the spec's
// first name.
func declared(f *ast.File, info *types.Info, fn func(name string, n ast.Node)) {
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			name := d.Name.Name
			if t, ok := recvType(info.Defs[d.Name].(*types.Func)).(*types.Named); ok {
				name = t.Obj().Name() + "." + name
			}
			fn(name, d)
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					fn(s.Name.Name, s)
				case *ast.ValueSpec:
					fn(s.Names[0].Name, s)
				}
			}
		}
	}
}

// report lists, rule by rule, the findings no line of the allowlist
// allows, each rule's fix-it after its findings, then the stale lines.
func (l *linter) report(root, allow string) ([]string, error) {
	src, err := os.ReadFile(filepath.Join(root, allow))
	if err != nil {
		return nil, err
	}
	lineOf, hit := map[string]int{}, map[string]bool{}
	var keys, out []string
	for i, line := range strings.Split(string(src), "\n") {
		w := strings.Fields(line)
		if len(w) == 0 || strings.HasPrefix(w[0], "#") {
			continue
		}
		if len(w) < 4 {
			return nil, fmt.Errorf("%s:%d: want \"rule path name reason\"", allow, i+1)
		}
		key := strings.Join(w[:3], " ")
		lineOf[key] = i + 1
		keys = append(keys, key)
	}
	for _, rule := range rules {
		var bad []string
		for _, f := range l.found[rule.name] {
			if _, ok := lineOf[rule.name+" "+f.key]; ok {
				hit[rule.name+" "+f.key] = true
			} else {
				bad = append(bad, f.text)
			}
		}
		if len(bad) > 0 {
			sort.Strings(bad)
			out = append(append(out, bad...), fmt.Sprintf("  %s To allow, add \"%s path name reason\" to %s.", rule.fix, rule.name, allow))
		}
	}
	for _, key := range keys {
		if !hit[key] {
			out = append(out, fmt.Sprintf("%s:%d: stale: %q matches nothing; delete the line.", allow, lineOf[key], key))
		}
	}
	return out, nil
}
