package conformance

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/types"
	"io"
	"slices"
	"sort"
	"strings"
	"testing"
)

// exportsAllowed are the exported identifiers that may have no
// non-test consumer, keyed as the gate names them. Each reason says
// which of three kinds the entry is: a test seam, a test's oracle, or
// an operator path README documents.
var exportsAllowed = map[string]string{
	"core.Driver.Stats":       "test oracle: core's driver tests read every counter the walk keeps",
	"core.Driver.Outstanding": "test oracle: core's driver tests and pafs's linearity test read a chain's in-flight count",
}

// exportReasonKinds are the prefixes an exportsAllowed reason may take.
var exportReasonKinds = []string{"test seam: ", "test oracle: ", "operator path: "}

// stdInterfaces are standard-library interfaces whose methods the
// library calls on a value handed to it (log.Printf calls String,
// json.Marshal calls MarshalJSON): a method that implements one is
// consumed though no code here calls it by name.
var stdInterfaces = [][2]string{
	{"fmt", "Stringer"},
	{"encoding/json", "Marshaler"},
	{"encoding", "TextMarshaler"},
	{"net", "Conn"},
	{"io", "Reader"},
	{"io", "Writer"},
	{"container/heap", "Interface"},
}

// TestEveryExportHasAConsumer is the exported-identifier half of the
// cold-code rule: every exported function, method, type, var and
// const of internal/'s non-test code is used by some non-test code,
// here or in bench/, other than its own declaration. A method also
// counts as used when its type implements an interface method of the
// same name that non-test code calls, or one of stdInterfaces.
// internal/conformance is exempt: its exports are the fixtures of its
// own suite.
func TestEveryExportHasAConsumer(t *testing.T) {
	if len(exportsAllowed) > 5 {
		t.Errorf("exportsAllowed has %d entries; at most 5", len(exportsAllowed))
	}
	for key, why := range exportsAllowed {
		if !hasKind(why) {
			t.Errorf("exportsAllowed[%q]: reason %q is not one of %q", key, why, exportReasonKinds)
		}
	}
	l := loadModules(t)
	n, cold := unconsumedExports(l, func(path string) bool {
		return strings.HasPrefix(path, "repro/internal/") && path != "repro/internal/conformance"
	})
	var unexcused []string
	for _, key := range cold {
		if exportsAllowed[key] == "" {
			unexcused = append(unexcused, key)
		}
	}
	t.Logf("%d exported identifiers, %d without a non-test consumer, %d of them allowed", n, len(cold), len(cold)-len(unexcused))
	if len(unexcused) > 0 {
		t.Errorf("%d exported identifiers that no non-test code uses (delete each, with the state only it reads):\n  %s",
			len(unexcused), strings.Join(unexcused, "\n  "))
	}
	for key := range exportsAllowed {
		if i := sort.SearchStrings(cold, key); i == len(cold) || cold[i] != key {
			t.Errorf("exportsAllowed[%q] excuses an identifier in use, or none: delete the entry", key)
		}
	}
}

func hasKind(why string) bool {
	for _, k := range exportReasonKinds {
		if strings.HasPrefix(why, k) && len(why) > len(k) {
			return true
		}
	}
	return false
}

// unconsumedExports returns how many exported identifiers the packages
// declares selects declare, and the sorted keys ("pkg.Name" or
// "pkg.Type.Method") of those without a consumer in l.
func unconsumedExports(l *loaded, declares func(path string) bool) (int, []string) {
	// declared maps each exported object to its key: the package-level
	// names, and the methods of each package-level named type.
	declared := map[types.Object]string{}
	for _, p := range l.pkgs {
		if !declares(p.path) {
			continue
		}
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() {
				declared[obj] = p.pkg.Name() + "." + name
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() {
					declared[m] = p.pkg.Name() + "." + name + "." + m.Name()
				}
			}
			if iface, ok := named.Underlying().(*types.Interface); ok {
				for i := 0; i < iface.NumExplicitMethods(); i++ {
					if m := iface.ExplicitMethod(i); m.Exported() {
						declared[m] = p.pkg.Name() + "." + name + "." + m.Name()
					}
				}
			}
		}
	}

	// used holds every object some non-test code names outside its own
	// declaration; a method's receiver does not name its type.
	used := map[types.Object]bool{}
	for _, p := range l.pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					own := map[types.Object]bool{p.info.Defs[d.Name]: true}
					markUses(p.info, d.Type, own, used)
					if d.Body != nil {
						markUses(p.info, d.Body, own, used)
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						markUses(p.info, s, ownNames(p.info, s), used)
					}
				}
			}
		}
	}

	// called holds the interfaces whose methods non-test code calls by
	// name, each with the names called; the standard library's calls
	// on a handed-over value are stdInterfaces.
	called := map[*types.Interface]map[string]bool{}
	for obj := range used {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil {
			continue
		}
		if iface, ok := recv.Type().Underlying().(*types.Interface); ok {
			if called[iface] == nil {
				called[iface] = map[string]bool{}
			}
			called[iface][fn.Name()] = true
		}
	}
	for _, si := range stdInterfaces {
		pkg, err := l.imp.Import(si[0])
		if err != nil {
			continue // nothing here depends on the package, so nothing hands it a value
		}
		iface := pkg.Scope().Lookup(si[1]).Type().Underlying().(*types.Interface)
		called[iface] = map[string]bool{}
		for i := 0; i < iface.NumMethods(); i++ {
			called[iface][iface.Method(i).Name()] = true
		}
	}
	errIface := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	called[errIface] = map[string]bool{"Error": true}

	// A method is credited through an interface when some named type
	// here, or a pointer to it, implements the interface and has the
	// method in its method set, promoted through an embedded field or
	// its own.
	for _, p := range l.pkgs {
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			t := tn.Type()
			if types.IsInterface(t) {
				continue
			}
			for iface, names := range called {
				if !types.Implements(t, iface) && !types.Implements(types.NewPointer(t), iface) {
					continue
				}
				for name := range names {
					if m, _, _ := types.LookupFieldOrMethod(t, true, p.pkg, name); m != nil {
						used[m.(*types.Func).Origin()] = true
					}
				}
			}
		}
	}

	var cold []string
	for obj, key := range declared {
		if !used[obj] {
			cold = append(cold, key)
		}
	}
	sort.Strings(cold)
	return len(declared), cold
}

// ownNames returns the objects a var, const or type spec declares.
func ownNames(info *types.Info, s ast.Spec) map[types.Object]bool {
	own := map[types.Object]bool{}
	switch s := s.(type) {
	case *ast.ValueSpec:
		for _, id := range s.Names {
			own[info.Defs[id]] = true
		}
	case *ast.TypeSpec:
		own[info.Defs[s.Name]] = true
	}
	return own
}

// markUses adds to used every object an identifier under n refers to,
// less the objects n itself declares.
func markUses(info *types.Info, n ast.Node, own, used map[types.Object]bool) {
	ast.Inspect(n, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
		}
		if obj != nil && !own[obj] {
			used[obj] = true
		}
		return true
	})
}

// TestExportCreditRule pins the gate's rule on a small in-memory
// module: a method reached only through an interface method that
// non-test code calls is consumed, and so is one the universe's error
// interface reaches; an exported function only a _test.go file reads,
// a function only its own body calls and a type only its own methods
// name are not.
func TestExportCreditRule(t *testing.T) {
	pkgs := []struct {
		path  string
		files map[string]string
	}{{
		path: "ex/a",
		files: map[string]string{
			"a.go": `package a

type Shape interface{ Area() int }

type Square struct{ n int }

func (s Square) Area() int { return s.n * s.n }
func (s Square) Side() int { return s.n }

func NewSquare(n int) Square { return Square{n} }

func Total(ss []Shape) int {
	t := 0
	for _, s := range ss {
		t += s.Area()
	}
	return t
}

type Err struct{}

func (Err) Error() string { return "err" }

func Check() error { return Err{} }

func Helper() int { return 1 }

func Recur(n int) int {
	if n == 0 {
		return 0
	}
	return Recur(n - 1)
}

type Lonely struct{}

func (Lonely) Name() string { return "lonely" }
`,
			"a_test.go": `package a

var _ = Helper()
`,
		},
	}, {
		path: "ex/b",
		files: map[string]string{
			"b.go": `package b

import "ex/a"

func Use() (int, error) { return a.Total([]a.Shape{a.NewSquare(2)}), a.Check() }
`,
		},
	}}
	l := newLoaded(func(path string) (io.ReadCloser, error) {
		return nil, fmt.Errorf("no export data for %q", path)
	})
	for _, p := range pkgs {
		var files []*ast.File
		for name, src := range p.files {
			if strings.HasSuffix(name, "_test.go") {
				continue // go list's GoFiles leaves test files out
			}
			f, err := parser.ParseFile(l.fset, name, src, 0)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		if err := l.check(p.path, files); err != nil {
			t.Fatal(err)
		}
	}
	n, cold := unconsumedExports(l, func(path string) bool { return path == "ex/a" })
	want := []string{"a.Helper", "a.Lonely", "a.Lonely.Name", "a.Recur", "a.Square.Side"}
	if n != 14 || !slices.Equal(cold, want) {
		t.Errorf("%d exported identifiers, cold %q; want 14, cold %q", n, cold, want)
	}
}
