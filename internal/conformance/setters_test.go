package conformance

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// settersAllowed are the fields of settings structs that may go
// unset outside their own package, each with its reason. A key ending
// in a type name covers every field of that type.
var settersAllowed = map[string]string{
	"machine.Config":       "the paper's Table 1, held as data",
	"cluster.Config.Clock": "the fake-clock seam for tests",
}

// TestEverySettingHasASetter is the exported-identifier half of the
// cold-code rule for settings: every exported field of an exported
// *Config, *Opts, *Options or *Server struct under internal/ (a
// server's exported fields are its settings) is set by the
// non-test code of some other package, here or in bench/ — a field
// nobody else sets has one value in use and is a constant. It reads
// the type-checked load (loadModules), so a field is credited only to
// the struct it belongs to, not to every struct with a field of the
// same name.
func TestEverySettingHasASetter(t *testing.T) {
	l := loadModules(t)

	// fields lists each settings struct's exported fields by key
	// ("pkg.Type"); set holds "pkg.Type.Field" for every field some
	// other package's non-test code sets.
	fields := map[string][]string{}
	set := map[string]bool{}
	for _, p := range l.pkgs {
		if strings.HasPrefix(p.path, "repro/internal/") {
			for key, names := range settingsStructs(p.pkg) {
				fields[key] = names
			}
		}
		for _, f := range p.files {
			for _, ref := range settersIn(f, p.info) {
				if ref.pkg != p.path {
					set[ref.key] = true
				}
			}
		}
	}

	keys := make([]string, 0, len(fields))
	for key := range fields {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	var unset []string
	excused := map[string]bool{} // allow-list entries in use
	for _, key := range keys {
		n := 0
		for _, name := range fields[key] {
			fk := key + "." + name
			switch {
			case set[fk]:
				n++
			case settersAllowed[fk] != "":
				excused[fk] = true
			case settersAllowed[key] != "":
				excused[key] = true
			default:
				unset = append(unset, fk)
			}
		}
		t.Logf("%-28s %2d fields, %2d set by another package", key, len(fields[key]), n)
	}
	if len(unset) > 0 {
		t.Errorf("%d settings fields that no other package's non-test code sets (make each a constant or a parameter):\n  %s",
			len(unset), strings.Join(unset, "\n  "))
	}
	for key := range settersAllowed {
		if !excused[key] {
			t.Errorf("settersAllowed[%q] excuses no unset field: delete the entry", key)
		}
	}
}

// settingsStructs returns pkg's exported structs named *Config, *Opts,
// *Options or *Server, keyed "pkg.Type", each with its exported field
// names.
func settingsStructs(pkg *types.Package) map[string][]string {
	out := map[string][]string{}
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || !tn.Exported() || tn.IsAlias() {
			continue
		}
		if !strings.HasSuffix(name, "Config") && !strings.HasSuffix(name, "Opts") &&
			!strings.HasSuffix(name, "Options") && !strings.HasSuffix(name, "Server") {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		var names []string
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); f.Exported() {
				names = append(names, f.Name())
			}
		}
		out[pkg.Name()+"."+name] = names
	}
	return out
}

// fieldRef names one field of a named struct: the defining package's
// import path, and "pkg.Type.Field".
type fieldRef struct{ pkg, key string }

// settersIn returns every struct field f sets: the keys of its
// composite literals, and each field selected along the path of an
// assignment, an increment or an address taken (flag.IntVar(&c.N, ...)
// sets c.N; c.A.B = v sets both A and B).
func settersIn(f *ast.File, info *types.Info) []fieldRef {
	var refs []fieldRef
	lvalue := func(e ast.Expr) {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.SelectorExpr:
				if ref, ok := selectedField(info, x); ok {
					refs = append(refs, ref)
				}
				e = x.X
			default:
				return
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE {
				for _, lhs := range n.Lhs {
					lvalue(lhs)
				}
			}
		case *ast.IncDecStmt:
			lvalue(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				lvalue(n.X)
			}
		case *ast.CompositeLit:
			named := namedOf(info.Types[n].Type)
			if named == nil {
				break
			}
			st, ok := named.Underlying().(*types.Struct)
			if !ok {
				break
			}
			for i, elt := range n.Elts {
				name := st.Field(i).Name()
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					name = kv.Key.(*ast.Ident).Name
				}
				refs = append(refs, refOf(named, name))
			}
		}
		return true
	})
	return refs
}

// selectedField resolves x.f to the struct that declares f, walking
// through any embedded fields the selection traverses.
func selectedField(info *types.Info, sel *ast.SelectorExpr) (fieldRef, bool) {
	s := info.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal {
		return fieldRef{}, false
	}
	t := s.Recv()
	path := s.Index()
	for _, i := range path[:len(path)-1] {
		t = types.Unalias(deref(t)).Underlying().(*types.Struct).Field(i).Type()
	}
	named := namedOf(t)
	if named == nil || named.Obj().Pkg() == nil {
		return fieldRef{}, false
	}
	return refOf(named, s.Obj().Name()), true
}

func refOf(named *types.Named, field string) fieldRef {
	pkg := named.Obj().Pkg()
	return fieldRef{pkg: pkg.Path(), key: pkg.Name() + "." + named.Obj().Name() + "." + field}
}

// namedOf returns the named type t is, or points to, or nil.
func namedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	named, _ := types.Unalias(deref(t)).(*types.Named)
	return named
}

func deref(t types.Type) types.Type {
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}
