package conformance

import (
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
	"sync"
	"testing"
)

// loaded is the one type-checked view of this module and bench/ that
// the cold-code gates read: every non-test package of both, each
// checked once from source in dependency order. A package's imports
// from either module are the very *types.Package checked before it,
// so an object has one identity wherever it is used; the standard
// library comes from go list's export data.
type loaded struct {
	fset *token.FileSet
	imp  types.Importer
	pkgs []*checkedPackage // dependencies before dependents
}

// checkedPackage is one package's non-test files and what the type
// checker recorded over them.
type checkedPackage struct {
	path  string
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

var (
	loadOnce sync.Once
	loadRes  *loaded
	loadErr  error
)

// loadModules returns the shared load, building it on first use: one
// `go list -export -deps` per module, one type-check per package.
func loadModules(t *testing.T) *loaded {
	t.Helper()
	loadOnce.Do(func() {
		root, err := filepath.Abs(filepath.Join("..", ".."))
		if err != nil {
			loadErr = err
			return
		}
		loadRes, loadErr = loadDirs(root, filepath.Join(root, "bench"))
	})
	if loadErr != nil {
		t.Fatal(loadErr)
	}
	return loadRes
}

func loadDirs(dirs ...string) (*loaded, error) {
	var pkgs []listedPackage
	exports := map[string]string{}
	for _, dir := range dirs {
		listed, err := goListExport(dir)
		if err != nil {
			return nil, err
		}
		for _, p := range listed {
			if _, ok := exports[p.ImportPath]; !ok && p.Export != "" {
				exports[p.ImportPath] = p.Export
			}
			if !p.DepOnly {
				pkgs = append(pkgs, p)
			}
		}
	}
	l := newLoaded(func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})
	for _, p := range pkgs {
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(l.fset, filepath.Join(p.Dir, name), nil, 0)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		if err := l.check(p.ImportPath, files); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// newLoaded returns an empty load whose standard-library imports read
// the export data lookup opens.
func newLoaded(lookup importer.Lookup) *loaded {
	l := &loaded{fset: token.NewFileSet()}
	l.imp = sourceFirst{l, importer.ForCompiler(l.fset, "gc", lookup)}
	return l
}

// check type-checks one package's files against the packages checked
// before it and appends it to the load.
func (l *loaded) check(path string, files []*ast.File) error {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: l.imp}
	pkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return fmt.Errorf("type-check %s: %v", path, err)
	}
	l.pkgs = append(l.pkgs, &checkedPackage{path: path, files: files, pkg: pkg, info: info})
	return nil
}

// sourceFirst imports a package the load has checked from source as
// that package, and any other from export data.
type sourceFirst struct {
	l        *loaded
	exported types.Importer
}

func (s sourceFirst) Import(path string) (*types.Package, error) {
	for _, p := range s.l.pkgs {
		if p.path == path {
			return p.pkg, nil
		}
	}
	return s.exported.Import(path)
}

// listedPackage is the part of `go list -json` the gates read.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	DepOnly    bool
}

// goListExport lists the packages of the module in dir and their
// dependencies, each with the path of its compiled export data.
func goListExport(dir string) ([]listedPackage, error) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(goTool, "list", "-export", "-deps", "-json=ImportPath,Dir,GoFiles,Export,DepOnly", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}
