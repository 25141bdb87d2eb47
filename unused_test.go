package sprintgame

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// keptUnreferenced names the exported functions and methods under
// internal/ that may have no caller in non-test code, with the reason.
// Each is called implicitly through an interface no named type spells
// out, or is a reference implementation that tests compare other code
// against, or is a test constructor.
var keptUnreferenced = map[string]string{
	"cluster.RackError.Unwrap":        "called by errors.Is and errors.As",
	"dist.Simpson":                    "reference quadrature for the PDF tests",
	"dist.MustDiscrete":               "test constructor",
	"markov.MustNew":                  "test constructor",
	"markov.Chain.StationaryPower":    "reference for Stationary",
	"markov.Chain.OccupancyFractions": "reference for Stationary",
	"thermal.Package.Simulate":        "reference for the analytic cool time and sprint budget",
	"thermal.Package.Ambient":         "reference for the analytic cool time and sprint budget",
}

// TestNoUnreferencedExports fails when an exported function or method
// declared under internal/ is referenced by no non-test Go code in this
// module or in the bench/ module. Such code is library surface nothing
// runs: delete it, or, if tests must keep it as a reference, add it to
// keptUnreferenced with the reason.
//
// References are resolved with go/types, so a method is matched by its
// receiver, not by its name. A method that satisfies a named interface
// (error, fmt.Stringer, json.Marshaler, heap.Interface, ...) counts as
// referenced, since the interface's callers reach it.
func TestNoUnreferencedExports(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and the standard library from source")
	}
	ld := newSourceLoader()
	dirs, err := goPackageDirs(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range dirs {
		if _, err := ld.load(dir); err != nil {
			t.Fatalf("type-check %s: %v", dir, err)
		}
	}

	used := map[types.Object]bool{}
	for id, obj := range ld.info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
		}
		if decl := ld.declOf[obj]; decl != nil && decl.Pos() <= id.Pos() && id.Pos() < decl.End() {
			continue // recursion is not a caller
		}
		used[obj] = true
	}
	ifaces := ld.namedInterfaces()

	var unreferenced []string
	kept := map[string]bool{}
	for obj, decl := range ld.declOf {
		fn := obj.(*types.Func)
		name := qualifiedName(fn, decl)
		if used[obj] {
			continue
		}
		if _, ok := keptUnreferenced[name]; ok {
			kept[name] = true
			continue
		}
		if decl.Recv != nil && satisfiesNamedInterface(fn, ifaces) {
			continue
		}
		unreferenced = append(unreferenced, name)
	}
	sort.Strings(unreferenced)
	if len(unreferenced) > 0 {
		t.Errorf("%d exported functions under internal/ have no caller in non-test code:\n\t%s",
			len(unreferenced), strings.Join(unreferenced, "\n\t"))
	}
	for name := range keptUnreferenced {
		if !kept[name] {
			t.Errorf("keptUnreferenced names %s, which is not declared or has a caller", name)
		}
	}
}

// qualifiedName spells fn as pkg.Func or pkg.Recv.Method.
func qualifiedName(fn *types.Func, decl *ast.FuncDecl) string {
	pkg := fn.Pkg().Name()
	if decl.Recv == nil {
		return pkg + "." + fn.Name()
	}
	recv := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	return pkg + "." + recv.(*types.Named).Obj().Name() + "." + fn.Name()
}

// satisfiesNamedInterface reports whether fn's receiver type, or a
// pointer to it, implements a named interface that has a method of fn's
// name.
func satisfiesNamedInterface(fn *types.Func, ifaces []*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	ptr := types.NewPointer(recv)
	for _, iface := range ifaces {
		for i := 0; i < iface.NumMethods(); i++ {
			if iface.Method(i).Name() == fn.Name() && (types.Implements(recv, iface) || types.Implements(ptr, iface)) {
				return true
			}
		}
	}
	return false
}

// goPackageDirs lists every directory under root, the bench/ module
// included, that holds non-test Go files.
func goPackageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
			return filepath.SkipDir
		}
		matches, _ := filepath.Glob(filepath.Join(path, "*.go"))
		for _, m := range matches {
			if !strings.HasSuffix(m, "_test.go") {
				dirs = append(dirs, path)
				break
			}
		}
		return nil
	})
	return dirs, err
}

// sourceLoader type-checks this module's packages (and bench/'s) from
// their non-test files, and the standard library from GOROOT source.
type sourceLoader struct {
	fset   *token.FileSet
	std    types.Importer
	info   *types.Info
	pkgs   map[string]*types.Package // by directory
	declOf map[types.Object]*ast.FuncDecl
}

func newSourceLoader() *sourceLoader {
	fset := token.NewFileSet()
	return &sourceLoader{
		fset:   fset,
		std:    importer.ForCompiler(fset, "source", nil),
		info:   &types.Info{Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{}},
		pkgs:   map[string]*types.Package{},
		declOf: map[types.Object]*ast.FuncDecl{},
	}
}

// Import resolves the module's import paths to directories and sends
// everything else to the standard-library source importer.
func (ld *sourceLoader) Import(path string) (*types.Package, error) {
	if path == "sprintgame" || strings.HasPrefix(path, "sprintgame/") {
		return ld.load(filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, "sprintgame"), "/")))
	}
	return ld.std.Import(path)
}

func (ld *sourceLoader) load(dir string) (*types.Package, error) {
	dir = filepath.Clean(dir)
	if pkg := ld.pkgs[dir]; pkg != nil {
		return pkg, nil
	}
	matches, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range matches {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, filepath.Base(name)); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(ld.fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	path := "sprintgame"
	if dir != "." {
		path += "/" + filepath.ToSlash(dir)
	}
	conf := types.Config{Importer: ld}
	pkg, err := conf.Check(path, ld.fset, files, ld.info)
	if err != nil {
		return nil, err
	}
	ld.pkgs[dir] = pkg
	if strings.HasPrefix(path, "sprintgame/internal/") {
		for _, f := range files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				ld.declOf[ld.info.Defs[fd.Name]] = fd
			}
		}
	}
	return pkg, nil
}

// namedInterfaces collects every named interface type declared at
// package level in the loaded packages and the packages they import.
func (ld *sourceLoader) namedInterfaces() []*types.Interface {
	var out []*types.Interface
	seen := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if iface, ok := tn.Type().Underlying().(*types.Interface); ok && iface.NumMethods() > 0 {
				out = append(out, iface)
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, p := range ld.pkgs {
		visit(p)
	}
	out = append(out, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	return out
}
