package mqdp_test

import (
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var updateReach = flag.Bool("update", false, "rewrite testdata/test_only_exports.golden from the current tree")

// TestOnlyTestsReachExports lists what only tests reach: exported
// functions and exported methods of exported types that no non-test file
// references, and exported, untagged struct fields of exported types that
// no non-test file writes
// (by keyed or positional literal, assignment, inc/dec or &x.F). It
// type-checks the non-test files of every package of the module and of
// bench/; the root mqdp package and bench/ are roots, so their own
// exports are not listed, but their references count. Embedded fields are
// structure, not settings, and are skipped. Interface implementations and
// decoded fields show up too; the golden records them as accepted, and a
// change to the list must be deliberate: rerun with -update.
func TestOnlyTestsReachExports(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module from source; skipped in -short")
	}
	pkgs := goList(t, ".")
	for path, p := range goList(t, "bench") {
		pkgs[path] = p
	}
	l := &loader{
		fset: token.NewFileSet(),
		pkgs: pkgs,
		info: &types.Info{
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Types:      map[ast.Expr]types.TypeAndValue{},
		},
	}
	l.std = importer.ForCompiler(l.fset, "source", nil).(types.ImporterFrom)
	paths := make([]string, 0, len(pkgs))
	for path := range pkgs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if _, err := l.load(path); err != nil {
			t.Fatal(err)
		}
	}

	root := func(path string) bool { return path == "mqdp" || path == "mqdp/bench" }
	used := map[types.Object]bool{}
	for _, obj := range l.info.Uses {
		used[origin(obj)] = true
	}
	written := l.fieldWrites()
	var got []string
	for _, path := range paths {
		if root(path) {
			continue
		}
		for _, f := range pkgs[path].files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					fn := l.info.Defs[d.Name].(*types.Func)
					if fn.Exported() && recvExported(fn) && !used[fn] {
						got = append(got, "func "+qualified(fn))
					}
				case *ast.GenDecl:
					got = append(got, l.unwrittenFields(d, written)...)
				}
			}
		}
	}
	sort.Strings(got)

	golden := filepath.Join("testdata", "test_only_exports.golden")
	text := strings.Join(got, "\n") + "\n"
	if *updateReach {
		if err := os.WriteFile(golden, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	added, removed := lineDiff(strings.Split(string(want), "\n"), got)
	for _, x := range added {
		t.Errorf("now reached only by tests: %s (rerun with -update if deliberate)", x)
	}
	for _, x := range removed {
		t.Errorf("now reached by non-test code or gone: %s (rerun with -update)", x)
	}
}

// listedPkg is one package from go list with its parsed non-test files.
type listedPkg struct {
	dir   string
	names []string
	files []*ast.File
	types *types.Package
}

// goList lists the packages of the module rooted at dir.
func goList(t *testing.T, dir string) map[string]*listedPkg {
	t.Helper()
	cmd := exec.Command("go", "list", "-f", `{{.ImportPath}}{{"\t"}}{{.Dir}}{{"\t"}}{{join .GoFiles " "}}`, "./...")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v", dir, err)
	}
	pkgs := map[string]*listedPkg{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Split(line, "\t")
		pkgs[f[0]] = &listedPkg{dir: f[1], names: strings.Fields(f[2])}
	}
	return pkgs
}

// loader type-checks module packages from their own files, on demand and
// in dependency order, and everything else from the standard library's
// source. One Info collects the whole module.
type loader struct {
	fset *token.FileSet
	pkgs map[string]*listedPkg
	std  types.ImporterFrom
	info *types.Info
}

func (l *loader) Import(path string) (*types.Package, error) { return l.ImportFrom(path, "", 0) }

func (l *loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if _, ok := l.pkgs[path]; ok {
		return l.load(path)
	}
	return l.std.ImportFrom(path, dir, mode)
}

func (l *loader) load(path string) (*types.Package, error) {
	p := l.pkgs[path]
	if p.types != nil {
		return p.types, nil
	}
	for _, name := range p.names {
		f, err := parser.ParseFile(l.fset, filepath.Join(p.dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, p.files, l.info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	p.types = pkg
	return pkg, nil
}

// fieldWrites collects every struct field some non-test file sets.
func (l *loader) fieldWrites() map[*types.Var]bool {
	written := map[*types.Var]bool{}
	mark := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			if s := l.info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
				written[origin(s.Obj()).(*types.Var)] = true
			}
		}
	}
	for _, p := range l.pkgs {
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						mark(lhs)
					}
				case *ast.IncDecStmt:
					mark(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						mark(n.X)
					}
				case *ast.CompositeLit:
					t := l.info.Types[n].Type
					if p, ok := t.Underlying().(*types.Pointer); ok { // elided &T in []*T{{...}}
						t = p.Elem()
					}
					st, ok := t.Underlying().(*types.Struct)
					if !ok {
						break
					}
					for i, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if v, ok := l.info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
								written[origin(v).(*types.Var)] = true
							}
						} else {
							written[origin(st.Field(i)).(*types.Var)] = true
						}
					}
				}
				return true
			})
		}
	}
	return written
}

// unwrittenFields reports the exported, untagged, non-embedded fields of
// the exported struct types declared in d that nothing writes.
func (l *loader) unwrittenFields(d *ast.GenDecl, written map[*types.Var]bool) []string {
	var out []string
	for _, spec := range d.Specs {
		ts, ok := spec.(*ast.TypeSpec)
		if !ok || !ts.Name.IsExported() {
			continue
		}
		tn := l.info.Defs[ts.Name]
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			fv := st.Field(i)
			if fv.Exported() && !fv.Embedded() && st.Tag(i) == "" && !written[fv] {
				out = append(out, "field "+qualified(tn)+"."+fv.Name())
			}
		}
	}
	return out
}

// origin maps an instantiated generic function or field to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// recvType is the named type a method is declared on, nil for a function.
func recvType(fn *types.Func) *types.TypeName {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(interface{ Obj() *types.TypeName }).Obj()
}

// recvExported reports whether fn is a function or a method of an
// exported type; other packages reach any other method only through an
// interface.
func recvExported(fn *types.Func) bool {
	tn := recvType(fn)
	return tn == nil || tn.Exported()
}

// qualified names obj as module-relative package path, receiver type and
// name, e.g. internal/resilience.TokenBucket.SetClock.
func qualified(obj types.Object) string {
	name := obj.Name()
	if fn, ok := obj.(*types.Func); ok {
		if tn := recvType(fn); tn != nil {
			name = tn.Name() + "." + name
		}
	}
	return strings.TrimPrefix(obj.Pkg().Path(), "mqdp/") + "." + name
}

// lineDiff returns the lines of got missing from want and the reverse,
// ignoring blank lines.
func lineDiff(want, got []string) (added, removed []string) {
	in := func(xs []string) map[string]bool {
		m := map[string]bool{}
		for _, x := range xs {
			if x = strings.TrimSpace(x); x != "" {
				m[x] = true
			}
		}
		return m
	}
	w, g := in(want), in(got)
	for _, x := range got {
		if !w[x] {
			added = append(added, x)
		}
	}
	for _, x := range want {
		if x = strings.TrimSpace(x); x != "" && !g[x] {
			removed = append(removed, x)
		}
	}
	return added, removed
}
