package barneshut

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestSurface fails when a declaration under internal/ is reached by no
// program and is not on testdata/surface.allow, and when an allowlist
// entry is reached again or no longer exists, so the list only shrinks.
// What a program reaches is computed by surfaceDead.
func TestSurface(t *testing.T) {
	dead, decls, tests := surfaceDead(t, ".")
	allow := readSurfaceAllow(t, "testdata/surface.allow")
	deadSet := make(map[string]bool, len(dead))
	for _, d := range dead {
		deadSet[d] = true
	}
	// A declaration's name is its package's path, a dot, and the rest.
	pkgOf := func(d string) string { return d[:strings.IndexByte(d, '.')] }
	for _, d := range dead {
		_, listed := allow[d]
		_, pkgListed := allow[pkgOf(d)]
		if !listed && !pkgListed {
			t.Errorf("%s is reached by no program: delete it, or move it into a _test.go file, or list it in testdata/surface.allow", d)
		}
	}
	for entry, test := range allow {
		if !tests[test] {
			t.Errorf("surface.allow: %s names %s, which is no test in the module", entry, test)
		}
		if strings.Contains(entry, ".") {
			switch {
			case !decls[entry]:
				t.Errorf("surface.allow: %s no longer exists: take it off the list", entry)
			case !deadSet[entry]:
				t.Errorf("surface.allow: %s is reached by a program now: take it off the list", entry)
			}
			continue
		}
		n := 0
		for d := range decls {
			if pkgOf(d) == entry {
				n++
				if !deadSet[d] {
					t.Errorf("surface.allow: %s is listed whole, but a program reaches %s", entry, d)
				}
			}
		}
		if n == 0 {
			t.Errorf("surface.allow: package %s no longer exists: take it off the list", entry)
		}
	}
}

// TestSurfaceFindsOnlyTheDead runs the analysis over a small module that
// holds one dead func, one method reached only through an interface and
// one func reached only from a var initializer: a root set that lost any
// of those roots, or an analysis that reports nothing, fails here.
func TestSurfaceFindsOnlyTheDead(t *testing.T) {
	dead, decls, _ := surfaceDead(t, "testdata/surfacemod")
	if want := []string{"internal/lib.Dead"}; fmt.Sprint(dead) != fmt.Sprint(want) {
		t.Errorf("dead = %v, want %v", dead, want)
	}
	for _, d := range []string{"internal/lib.Impl.Describe", "internal/lib.register", "internal/lib.Dead"} {
		if !decls[d] {
			t.Errorf("the analysis did not see %s", d)
		}
	}
}

// readSurfaceAllow reads the allowlist: one "<decl> <test> <why>" line
// per entry, where <decl> is a declaration ("internal/tree.Tree.AccelAt")
// or a whole package ("internal/wiregolden") and <test> a test that uses
// it. It maps each entry to its test.
func readSurfaceAllow(t *testing.T, path string) map[string]string {
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	allow := make(map[string]string)
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		s := strings.TrimSpace(sc.Text())
		if s == "" || s[0] == '#' {
			continue
		}
		fs := strings.Fields(s)
		if len(fs) < 3 {
			t.Fatalf("%s:%d: want \"<decl> <test> <why>\", got %q", path, line, s)
		}
		if _, dup := allow[fs[0]]; dup {
			t.Fatalf("%s:%d: %s is listed twice", path, line, fs[0])
		}
		allow[fs[0]] = fs[1]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return allow
}

// listedPkg is the part of `go list -json` the analysis reads.
type listedPkg struct {
	ImportPath, Dir, Name     string
	Export                    string
	Standard                  bool
	GoFiles                   []string
	TestGoFiles, XTestGoFiles []string
	Module                    *struct{ Path string }
}

// surfaceDead type-checks the module at dir with the standard library's
// go/types (standard packages from their export data) and returns, sorted, the
// declarations under its internal/ directory that no program reaches;
// with them it returns every declaration the analysis saw there and the
// name of every Test, Fuzz, Benchmark and Example function in the
// module. A declaration is a package-level func, type, const or var, or
// a method, named "internal/<pkg>.<Name>" or "internal/<pkg>.<Type>.<Method>".
//
// The roots are every main and init func, the initializer of every
// package-level var, the root package's exported API, and every method
// that implements a method of an interface declared in the module or in
// a standard package it imports, or written as an interface literal in
// the module. From the roots, a declaration reaches every declaration
// its source names; a declaration also reaches its own type.
func surfaceDead(t *testing.T, dir string) (dead []string, decls, tests map[string]bool) {
	t.Helper()
	cmd := exec.Command("go", "list", "-deps", "-export", "-json", "./...")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOWORK=off")
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	var pkgs []listedPkg
	export := make(map[string]string)
	for d := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listedPkg
		if err := d.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		if p.Standard {
			export[p.ImportPath] = p.Export
		} else if p.Module != nil {
			pkgs = append(pkgs, p)
		}
	}
	if len(pkgs) == 0 {
		t.Fatal("go list found no package of the module")
	}
	modPath := pkgs[0].Module.Path

	// Standard packages come from the compiler's export data, which go
	// list -export found in the build cache: type-checking them from
	// source takes six times as long, and under -race over 15 s.
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if export[path] == "" {
			return nil, fmt.Errorf("go list -export gave no export data for %s", path)
		}
		return os.Open(export[path])
	})
	imp := &surfaceImporter{mod: make(map[string]*types.Package), std: std.(types.ImporterFrom)}
	conf := types.Config{Importer: imp}

	type node struct {
		name  string
		edges []*node
		seen  bool
	}
	nodes := make(map[types.Object]*node)
	var roots []*node
	var named []*types.TypeName
	var ifaces []*types.Interface
	type unit struct {
		info  *types.Info
		files []*ast.File
		pkg   *types.Package
		rel   string
	}
	var units []unit
	tests = make(map[string]bool)

	for _, p := range pkgs {
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		for _, name := range append(append([]string(nil), p.TestGoFiles...), p.XTestGoFiles...) {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && testFunc.MatchString(fd.Name.Name) {
					tests[fd.Name.Name] = true
				}
			}
		}
		info := &types.Info{
			Defs:  make(map[*ast.Ident]types.Object),
			Uses:  make(map[*ast.Ident]types.Object),
			Types: make(map[ast.Expr]types.TypeAndValue),
		}
		pkg, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			t.Fatalf("type-checking %s: %v", p.ImportPath, err)
		}
		imp.mod[p.ImportPath] = pkg
		rel := strings.TrimPrefix(strings.TrimPrefix(p.ImportPath, modPath), "/")
		if rel == "" {
			rel = "."
		}
		units = append(units, unit{info, files, pkg, rel})

		for _, tv := range info.Types {
			if it, ok := tv.Type.(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces = append(ifaces, it)
			}
		}
		for _, f := range files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					obj := info.Defs[d.Name].(*types.Func)
					n := &node{name: rel + "." + d.Name.Name}
					if recv := obj.Type().(*types.Signature).Recv(); recv != nil {
						n.name = rel + "." + recvName(recv.Type()) + "." + d.Name.Name
					}
					nodes[obj] = n
					if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && p.Name == "main") {
						roots = append(roots, n)
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							obj := info.Defs[s.Name].(*types.TypeName)
							nodes[obj] = &node{name: rel + "." + s.Name.Name}
							named = append(named, obj)
						case *ast.ValueSpec:
							for _, id := range s.Names {
								if obj := info.Defs[id]; obj != nil {
									nodes[obj] = &node{name: rel + "." + id.Name}
								}
							}
						}
					}
				}
			}
		}
	}

	// Edges: every name a declaration's source uses, and its type.
	use := func(info *types.Info, from *node, root ast.Node) {
		ast.Inspect(root, func(x ast.Node) bool {
			id, ok := x.(*ast.Ident)
			if !ok {
				return true
			}
			obj := info.Uses[id]
			switch o := obj.(type) {
			case *types.Func:
				obj = o.Origin()
			case *types.Var:
				obj = o.Origin()
			}
			if to := nodes[obj]; to != nil {
				from.edges = append(from.edges, to)
			}
			return true
		})
	}
	for obj, n := range nodes {
		if tn, ok := obj.Type().(*types.Named); ok && nodes[tn.Obj()] != nil {
			n.edges = append(n.edges, nodes[tn.Obj()])
		}
	}
	for _, u := range units {
		for _, f := range u.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					use(u.info, nodes[u.info.Defs[d.Name]], d)
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							use(u.info, nodes[u.info.Defs[s.Name]], s)
						case *ast.ValueSpec:
							if d.Tok == token.VAR && len(s.Values) > 0 {
								init := &node{name: u.rel + " var initializer"}
								roots = append(roots, init)
								use(u.info, init, s)
							}
							for _, id := range s.Names {
								if n := nodes[u.info.Defs[id]]; n != nil {
									use(u.info, n, s)
								}
							}
						}
					}
				}
			}
		}
		if u.rel == "." {
			for _, name := range u.pkg.Scope().Names() {
				obj := u.pkg.Scope().Lookup(name)
				if !obj.Exported() {
					continue
				}
				roots = append(roots, nodes[obj])
				if tn, ok := obj.(*types.TypeName); ok {
					if nt, ok := tn.Type().(*types.Named); ok {
						for i := 0; i < nt.NumMethods(); i++ {
							if m := nt.Method(i); m.Exported() {
								roots = append(roots, nodes[m])
							}
						}
					}
				}
			}
		}
	}

	// Interface roots: a method that implements an interface's method is
	// reached through the interface wherever the type flows.
	seenPkg := make(map[*types.Package]bool)
	var walk func(*types.Package)
	walk = func(p *types.Package) {
		if seenPkg[p] {
			return
		}
		seenPkg[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					if nt, ok := tn.Type().(*types.Named); !ok || nt.TypeParams().Len() == 0 {
						ifaces = append(ifaces, it)
					}
				}
			}
		}
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	for _, u := range units {
		walk(u.pkg)
	}
	ifaces = append(ifaces, bodyIfaces(t)...)
	for _, tn := range named {
		nt, ok := tn.Type().(*types.Named)
		if !ok || nt.TypeParams().Len() > 0 {
			continue
		}
		ptr := types.NewPointer(nt)
		ms := types.NewMethodSet(ptr)
		if ms.Len() == 0 {
			continue
		}
		names := make(map[string]bool, ms.Len())
		for i := 0; i < ms.Len(); i++ {
			names[ms.At(i).Obj().Name()] = true
		}
	next:
		for _, it := range ifaces {
			for i := 0; i < it.NumMethods(); i++ {
				if !names[it.Method(i).Name()] {
					continue next
				}
			}
			if !types.Implements(ptr, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				obj, _, _ := types.LookupFieldOrMethod(ptr, false, m.Pkg(), m.Name())
				if n := nodes[obj]; n != nil {
					roots = append(roots, n)
				}
			}
		}
	}

	for len(roots) > 0 {
		n := roots[len(roots)-1]
		roots = roots[:len(roots)-1]
		if n == nil || n.seen {
			continue
		}
		n.seen = true
		roots = append(roots, n.edges...)
	}
	decls = make(map[string]bool)
	for obj, n := range nodes {
		if !strings.HasPrefix(n.name, "internal/") || obj.Name() == "_" || obj.Name() == "init" {
			continue
		}
		decls[n.name] = true
		if !n.seen {
			dead = append(dead, n.name)
		}
	}
	sort.Strings(dead)
	return dead, decls, tests
}

// bodyIfaces returns interfaces the standard library asserts that no
// package scope declares: the predeclared error, and those errors.Is,
// errors.As and errors.Unwrap assert inside their bodies.
func bodyIfaces(t *testing.T) []*types.Interface {
	const src = `package errs
type (
	err       interface{ Error() string }
	unwrap    interface{ Unwrap() error }
	unwrapAll interface{ Unwrap() []error }
	is        interface{ Is(error) bool }
	as        interface{ As(any) bool }
)`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "errs.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := new(types.Config).Check("errs", fset, []*ast.File{f}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var out []*types.Interface
	for _, name := range pkg.Scope().Names() {
		out = append(out, pkg.Scope().Lookup(name).Type().Underlying().(*types.Interface))
	}
	return out
}

// testFunc matches the names go test runs.
var testFunc = regexp.MustCompile(`^(Test|Fuzz|Benchmark|Example)([^a-z]|$)`)

// recvName is the name of a method's receiver type, without a pointer.
func recvName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named).Obj().Name()
}

// surfaceImporter hands the type checker the module's packages it has
// already checked and reads standard packages from source.
type surfaceImporter struct {
	mod map[string]*types.Package
	std types.ImporterFrom
}

func (m *surfaceImporter) Import(path string) (*types.Package, error) {
	return m.ImportFrom(path, "", 0)
}

func (m *surfaceImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if p := m.mod[path]; p != nil {
		return p, nil
	}
	return m.std.ImportFrom(path, dir, mode)
}
