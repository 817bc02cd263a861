package conformance

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// docsRead are the documents whose code names TestDocsNameOnlyWhatExists
// resolves, relative to the module root. ROADMAP.md and CHANGES.md are
// logs, and bench/'s documents are checked with the benchmark.
var docsRead = []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"}

// TestDocsNameOnlyWhatExists is the converse of
// TestEveryExportHasAConsumer: every code name a document puts in
// backticks names something that exists. Over the same load, with
// unexported names and the test files' functions included, it
// resolves each span of these forms (a call's arguments or an index
// after the name are ignored):
//   - pkg.Name, pkg.Name.Member: a package of this module or one of
//     the standard packages it imports, a package-level name in it, and
//     a field or method of that name's type;
//   - Type.Member: a type declared in this module, and a field or
//     method of it; a camel-case or capitalised first part that is no
//     type is reported, a lower-case one (a variable: `e.After`) is not
//     checked;
//   - pkg:TestName, pkg:TestPrefix*, TestName, TestPrefix*: a test,
//     benchmark or fuzz function of the test files of package pkg, or
//     of any package;
//   - a bare camel-case or capitalised name (`flushLocked`,
//     `Numbering`): declared somewhere in the module, test files
//     included.
//
// A name the code spells in a string literal exists too: a label
// (`peer.dial`), a key the program prints (`ownerHW`), a subtest. A
// name with an underscore is a metric or an algorithm in the paper's
// notation (`core.driver_step_ns`, `Ln_Agr_OBA`), not checked.
//
// History may name what no longer exists only in a sentence that says
// so: "gone in PR N", or a `git show <rev>:path` that has it.
func TestDocsNameOnlyWhatExists(t *testing.T) {
	l := loadModules(t)
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	r, err := newResolver(l, root)
	if err != nil {
		t.Fatal(err)
	}
	spans := 0
	var missing []string
	for _, doc := range docsRead {
		text, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range codeSpans(string(text)) {
			spans++
			if why := r.resolve(s.code); why != "" && !historical(s.sentence) {
				missing = append(missing, doc+":"+strconv.Itoa(s.line)+": `"+s.code+"`: "+why)
			}
		}
	}
	t.Logf("%d code spans in %s", spans, strings.Join(docsRead, ", "))
	if len(missing) > 0 {
		t.Errorf("%d code names in the documents name nothing that exists (fix the text, or say \"gone in PR N\" in the sentence):\n  %s",
			len(missing), strings.Join(missing, "\n  "))
	}
}

// TestDocsNameRule pins the gate's rule on a small document over the
// real load: testdata/docsrule.md, whose first section's spans all
// resolve or are excused as history, and whose last section's spans
// none do. The names live there, not in Go, because a name a string
// literal spells exists.
func TestDocsNameRule(t *testing.T) {
	l := loadModules(t)
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	r, err := newResolver(l, root)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := os.ReadFile(filepath.Join("testdata", "docsrule.md"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(doc), "\n")
	last := slices.Index(lines, "# Names that do not") + 1 // the section's first line, counted from 1
	if last == 0 {
		t.Fatal("testdata/docsrule.md has no section of names that do not resolve")
	}
	n := map[bool]int{} // spans by whether they should fail
	for _, s := range codeSpans(string(doc)) {
		wantMissing := s.line > last
		n[wantMissing]++
		why := r.resolve(s.code)
		if missing := why != "" && !historical(s.sentence); missing != wantMissing {
			t.Errorf("line %d: `%s` unresolved = %v (%q), want %v", s.line, s.code, missing, why, wantMissing)
		}
	}
	if n[false] == 0 || n[true] == 0 {
		t.Errorf("%d spans that resolve and %d that do not; want some of each", n[false], n[true])
	}
}

// A codeSpan is one backticked span outside fenced blocks, with the
// sentence around it.
type codeSpan struct {
	code, sentence string
	line           int
}

var (
	spanRE = regexp.MustCompile("`([^`\n]+)`")
	// A sentence ends at a full stop, question or exclamation mark
	// followed by white space, outside code spans, or at a blank line,
	// a list item or a table row.
	sentenceEndRE = regexp.MustCompile(`[.?!](\s|$)|\n\s*\n|\n\s*[-*|] |\n\s*\d+\. `)
	historyRE     = regexp.MustCompile("(?i)gone in PR \\d+|`git show [^`]+:[^`]+`")
)

// codeSpans returns the document's code spans, fenced blocks left out.
func codeSpans(doc string) []codeSpan {
	lines := strings.Split(doc, "\n")
	fenced := false
	for i, line := range lines {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			lines[i] = ""
		} else if fenced {
			lines[i] = ""
		}
	}
	text := strings.Join(lines, "\n")
	// Sentence boundaries are looked for with the spans blanked, so a
	// dot inside `sim.Engine` ends nothing.
	masked := []byte(text)
	for _, m := range spanRE.FindAllStringIndex(text, -1) {
		for i := m[0]; i < m[1]; i++ {
			if masked[i] != '\n' {
				masked[i] = 'x'
			}
		}
	}
	ends := []int{0}
	for _, m := range sentenceEndRE.FindAllIndex(masked, -1) {
		ends = append(ends, m[0]+1)
	}
	ends = append(ends, len(text))
	var out []codeSpan
	for _, m := range spanRE.FindAllStringSubmatchIndex(text, -1) {
		i := sort.SearchInts(ends, m[0]+1) // the first end after the span starts
		out = append(out, codeSpan{
			code:     text[m[2]:m[3]],
			sentence: text[ends[i-1]:ends[i]],
			line:     1 + strings.Count(text[:m[0]], "\n"),
		})
	}
	return out
}

func historical(sentence string) bool { return historyRE.MatchString(sentence) }

// resolver answers whether a code name exists in the load.
type resolver struct {
	pkgs     map[string][]*types.Package // by name: this module's and the standard ones it imports
	types    map[string][]types.Type     // this module's named types by name, unexported included
	declared map[string]bool             // every name declared anywhere, test files included
	labels   map[string]bool             // the dotted names string literals spell
	tests    map[string]map[string]bool  // package name -> its Test/Benchmark/Fuzz functions
}

func newResolver(l *loaded, root string) (*resolver, error) {
	r := &resolver{
		pkgs:     map[string][]*types.Package{},
		types:    map[string][]types.Type{},
		declared: map[string]bool{},
		labels:   map[string]bool{},
		tests:    map[string]map[string]bool{},
	}
	addLabels := func(n ast.Node) bool {
		if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
			if v, err := strconv.Unquote(lit.Value); err == nil {
				for _, name := range labelRE.FindAllString(v, -1) {
					r.labels[name] = true
				}
			}
		}
		return true
	}
	addPkg := func(p *types.Package) {
		for _, q := range r.pkgs[p.Name()] {
			if q == p {
				return
			}
		}
		r.pkgs[p.Name()] = append(r.pkgs[p.Name()], p)
	}
	for _, p := range l.pkgs {
		addPkg(p.pkg)
		for _, imp := range p.pkg.Imports() {
			addPkg(imp)
		}
		for _, f := range p.files {
			ast.Inspect(f, addLabels)
		}
		for id, obj := range p.info.Defs {
			r.declared[id.Name] = true
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
				r.types[tn.Name()] = append(r.types[tn.Name()], tn.Type())
			}
		}
	}
	// Test files are parsed, not type-checked: what they contribute is
	// their declarations' names.
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := strings.TrimSuffix(f.Name.Name, "_test")
		if r.tests[pkg] == nil {
			r.tests[pkg] = map[string]bool{}
		}
		ast.Inspect(f, addLabels)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				r.declared[n.Name.Name] = true
				if n.Recv == nil && testFuncRE.MatchString(n.Name.Name) {
					r.tests[pkg][n.Name.Name] = true
				}
			case *ast.TypeSpec:
				r.declared[n.Name.Name] = true
			case *ast.ValueSpec:
				for _, id := range n.Names {
					r.declared[id.Name] = true
				}
			case *ast.Field:
				for _, id := range n.Names {
					r.declared[id.Name] = true
				}
			}
			return true
		})
		return nil
	})
	return r, err
}

var (
	testFuncRE = regexp.MustCompile(`^(Test|Benchmark|Fuzz)([A-Z_]|$)`)
	labelRE    = regexp.MustCompile(`[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*`)
	// headRE is the code name a span starts with: what follows it (a
	// call's arguments, an index, an operator) is not resolved.
	headRE = regexp.MustCompile(`^[*&]*(\[\])?([A-Za-z_][A-Za-z0-9_]*(?:[.:][A-Za-z_][A-Za-z0-9_]*)*\*?)`)
	// codeLikeRE is a name that can only be code: camel case, or
	// capitalised with a lower-case letter after.
	codeLikeRE = regexp.MustCompile(`[a-z0-9][A-Z]|^[A-Z][A-Za-z0-9]*[a-z]`)
	// fileExts are the last parts of dotted names that are files.
	fileExts = map[string]bool{"go": true, "md": true, "json": true, "jsonl": true, "yml": true,
		"yaml": true, "mod": true, "sum": true, "sh": true, "txt": true, "out": true, "csv": true, "test": true}
)

// resolve returns why the code name at the head of span names nothing
// that exists, or "" when it does or is not a form the gate checks.
func (r *resolver) resolve(span string) string {
	m := headRE.FindStringSubmatch(span)
	if m == nil {
		return ""
	}
	head := m[2]
	if rest := span[len(m[0]):]; strings.HasPrefix(rest, "/") || strings.HasPrefix(rest, "-") {
		return "" // a path or a flag
	}
	if pkg, name, ok := strings.Cut(head, ":"); ok {
		tests, known := r.tests[pkg]
		if !known || strings.Contains(name, ".") {
			return ""
		}
		if !r.hasTest(tests, name) {
			return "package " + pkg + " has no test " + name
		}
		return ""
	}
	if strings.HasSuffix(head, "*") {
		if strings.Contains(head, ".") || !testFuncRE.MatchString(head) {
			return ""
		}
		for _, tests := range r.tests {
			if r.hasTest(tests, head) {
				return ""
			}
		}
		return "no test function matches"
	}
	if r.labels[head] || (strings.Contains(head, "_") && !testFuncRE.MatchString(head)) {
		return ""
	}
	parts := strings.Split(head, ".")
	if len(parts) == 1 {
		name := parts[0]
		if testFuncRE.MatchString(name) {
			for _, tests := range r.tests {
				if tests[name] {
					return ""
				}
			}
			return "no such test function"
		}
		if codeLikeRE.MatchString(name) && !r.declared[name] {
			return "declared nowhere"
		}
		return ""
	}
	if fileExts[parts[len(parts)-1]] {
		return ""
	}
	if pkgs := r.pkgs[parts[0]]; len(pkgs) > 0 {
		for _, p := range pkgs {
			if obj := p.Scope().Lookup(parts[1]); obj != nil && members(obj.Type(), parts[2:]) {
				return ""
			}
		}
		return "not declared in package " + parts[0]
	}
	if ts := r.types[parts[0]]; len(ts) > 0 {
		for _, t := range ts {
			if members(t, parts[1:]) {
				return ""
			}
		}
		return "no such field or method"
	}
	if codeLikeRE.MatchString(parts[0]) {
		return "no type " + parts[0]
	}
	return ""
}

// hasTest reports whether tests has name, or a function name begins
// with it less a trailing *.
func (r *resolver) hasTest(tests map[string]bool, name string) bool {
	if prefix, ok := strings.CutSuffix(name, "*"); ok {
		for fn := range tests {
			if strings.HasPrefix(fn, prefix) {
				return true
			}
		}
		return false
	}
	return tests[name]
}

// members reports whether each name in turn is a field or method of
// the previous one's type, starting at t.
func members(t types.Type, names []string) bool {
	for _, name := range names {
		var pkg *types.Package
		if n, ok := types.Unalias(deref(t)).(*types.Named); ok {
			pkg = n.Obj().Pkg()
		}
		obj, _, _ := types.LookupFieldOrMethod(t, true, pkg, name)
		if obj == nil {
			return false
		}
		t = obj.Type()
	}
	return true
}
