package prism

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"unicode"

	"repro/internal/server"
)

// metricsDocRow matches the first cell of a METRICS.md table row:
// "| `name` | type | ...". Prose mentions of metrics are not rows and
// are ignored.
var metricsDocRow = regexp.MustCompile("(?m)^\\| `([a-z0-9_.]+)`")

// TestMetricsDocsComplete keeps METRICS.md and the registry in lockstep:
// every documented metric must be exported by some store shape
// (exportedSeries), and every exported metric must be documented.
func TestMetricsDocsComplete(t *testing.T) {
	doc, err := os.ReadFile("METRICS.md")
	if err != nil {
		t.Fatalf("METRICS.md: %v", err)
	}
	documented := map[string]bool{}
	for _, m := range metricsDocRow.FindAllStringSubmatch(string(doc), -1) {
		documented[m[1]] = true
	}
	if len(documented) < 40 {
		t.Fatalf("only %d metrics documented in METRICS.md; table format changed?", len(documented))
	}

	exported := exportedSeries(t)
	for n := range documented {
		if !exported[n] {
			t.Errorf("METRICS.md documents %q but no store configuration exports it", n)
		}
	}
	for n := range exported {
		if !documented[n] {
			t.Errorf("registry exports %q but METRICS.md does not document it", n)
		}
	}
}

// exportedSeries returns every series name some store shape exports: the
// default configuration, the DisableCombining ablation (which swaps the
// tcq.* family for ta.*), a sharded store (the shard.* router family), a
// replicated store (the shard.replica_* and repair.* families), a
// range-placed store (the shard.placement_*/range_scans and migrate.*
// families), and a store with a RESP server attached (which contributes
// the server.* family).
func exportedSeries(t *testing.T) map[string]bool {
	t.Helper()
	exported := map[string]bool{}
	for _, opt := range []Options{{}, {DisableCombining: true}, {Shards: 2}, {Shards: 3, Replicas: 2},
		{Shards: 3, Placement: "range", SplitKeys: [][]byte{[]byte("g"), []byte("q")}}} {
		st, err := Open(opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range st.Metrics().Names() {
			exported[n] = true
		}
		st.Close()
	}
	st, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	server.New(st, server.Config{}) // registers server.* without serving
	for _, n := range st.Metrics().Names() {
		exported[n] = true
	}
	st.Close()
	return exported
}

// seriesRegistrars are the files that register series; a name they hold
// is a definition, not a read.
var seriesRegistrars = map[string]bool{
	"internal/core/metrics.go":   true,
	"internal/shard/metrics.go":  true,
	"internal/server/metrics.go": true,
	"docs_test.go":               true,
}

// TestEverySeriesIsRead fails for an exported series that nothing reads:
// its name, double-quoted, must appear in some Go file other than the
// registrars — a test that asserts its value, benchmark/'s counters, an
// experiment, an example or a command. A series only METRICS.md describes
// is deleted, not documented.
func TestEverySeriesIsRead(t *testing.T) {
	var src strings.Builder
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || seriesRegistrars[filepath.ToSlash(path)] {
			return nil
		}
		b, err := os.ReadFile(path)
		src.Write(b)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	var unread []string
	for n := range exportedSeries(t) {
		if !strings.Contains(src.String(), `"`+n+`"`) {
			unread = append(unread, n)
		}
	}
	sort.Strings(unread)
	if len(unread) > 0 {
		t.Errorf("%d exported series have no reader outside the registrars; assert their values in a test or delete them:\n%s",
			len(unread), strings.Join(unread, "\n"))
	}
}

// optionStructs are the public configs TestEveryOptionIsSet audits.
var optionStructs = []struct{ pkg, name string }{
	{"repro/internal/core", "Options"},
	{"repro/internal/server", "Config"},
	{"repro/internal/bench", "RunConfig"},
	{"repro/internal/ycsb", "Config"},
}

// TestEveryOptionIsSet fails for an exported field of a public config
// that no non-test Go file in the repository sets — benchmark/, cmd/ and
// examples/ included — through a composite-literal key, an assignment,
// an increment, a &x.F binding (a flag) or a range clause. It
// type-checks the tree from source, so a field is matched by identity,
// not by name. A knob only defaults and tests set is a constant, not an
// option.
func TestEveryOptionIsSet(t *testing.T) {
	tree := loadTree(t)

	// A write in a method of the field's own struct is its default, not a
	// caller setting it.
	set := map[*types.Var]bool{}
	for _, f := range tree.files {
		for _, d := range f.Decls {
			var own *types.Struct
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
				recv := fd.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if id, ok := recv.(*ast.Ident); ok {
					own, _ = tree.info.Uses[id].Type().Underlying().(*types.Struct)
				}
			}
			mark := func(e ast.Expr) {
				if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
					e = sel.Sel
				}
				id, _ := e.(*ast.Ident)
				v, ok := tree.info.Uses[id].(*types.Var)
				if !ok || !v.IsField() {
					return
				}
				for i := 0; own != nil && i < own.NumFields(); i++ {
					if own.Field(i) == v {
						return
					}
				}
				set[v] = true
			}
			ast.Inspect(d, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.KeyValueExpr:
					mark(n.Key)
				case *ast.AssignStmt:
					for _, l := range n.Lhs {
						mark(l)
					}
				case *ast.IncDecStmt:
					mark(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						mark(n.X)
					}
				case *ast.RangeStmt:
					if n.Tok == token.ASSIGN {
						mark(n.Key)
						mark(n.Value)
					}
				}
				return true
			})
		}
	}

	var unset []string
	for _, o := range optionStructs {
		st := tree.pkgs[o.pkg].Scope().Lookup(o.name).Type().Underlying().(*types.Struct)
		for i := range st.NumFields() {
			if f := st.Field(i); f.Exported() && !set[f] {
				unset = append(unset, fmt.Sprintf("%s.%s.%s", path.Base(o.pkg), o.name, f.Name()))
			}
		}
	}
	if len(unset) > 0 {
		t.Errorf("%d exported config fields are set by no non-test file; make each the constant it always is, or give it a caller:\n%s",
			len(unset), strings.Join(unset, "\n"))
	}
}

// harnessExports are the exports only tests call that stay exported,
// because tests outside their own package drive them; each reason names
// the packages whose tests do.
var harnessExports = []struct{ name, reason string }{
	{"core.Store.CheckInvariants", "the fsck that core's and shard's stress and property tests end in"},
	{"core.CheckReport.OK", "how core's and shard's tests read CheckInvariants"},
	{"core.Store.NVM", "core's, shard's and bench's tests price a read from the NVM device's config"},
	{"core.Store.TombstoneCount", "core's and shard's replication tests count live tombstones"},
	{"nvm.Device.Config", "nvm's, pwb's, core's, shard's and bench's tests read the device's latencies"},
	{"pwb.Buffer.Head", "pwb's tests, and core's reclaim and stall tests, read the append cursor"},
	{"pwb.Buffer.Tail", "pwb's tests and core's reclaim tests read the release cursor"},
	{"pwb.Buffer.GlobalOff", "pwb's tests, and core's stall test, turn a ring cursor into an HSIT offset"},
	{"valuestore.Writer.Abort", "valuestore's tests, and core's that fill the devices with held chunks, give a claimed chunk back"},
	{"engine.KV.Delete", "bench's TestEnginesMatchReferenceModel deletes through it on every engine; engine's tests too"},
	{"engine.AsyncKV.DeleteAsync", "bench's TestEnginesMatchReferenceModel drives it on every async engine; engine's tests too"},
	{"engine.Completion.Value", "internal/model reads every async result through it in bench's TestEnginesMatchReferenceModel; engine's tests too"},
}

// TestEveryExportIsCalled fails for an exported function or method,
// interface methods included, that no non-test Go file in the repository
// calls — directly, or through an interface method it implements that
// some non-test file calls. String, Error, Read and Write count as
// called: the standard library calls them. The method sets of the types
// prism.go aliases are the library's API, and internal/model only tests
// import; both are exempt. An export only its own package's tests call is
// unexported; one that other packages' tests need is listed in
// harnessExports. An entry that gains a caller, or names nothing, fails.
func TestEveryExportIsCalled(t *testing.T) {
	tree := loadTree(t)
	name := func(f *types.Func) string {
		recv := f.Type().(*types.Signature).Recv()
		if recv == nil {
			return path.Base(f.Pkg().Path()) + "." + f.Name()
		}
		rt := recv.Type()
		if p, ok := rt.(*types.Pointer); ok {
			rt = p.Elem()
		}
		return fmt.Sprintf("%s.%s.%s", path.Base(f.Pkg().Path()), rt.(*types.Named).Obj().Name(), f.Name())
	}

	exempt := map[*types.Func]bool{}
	for _, n := range tree.pkgs["repro"].Scope().Names() {
		if o, ok := tree.pkgs["repro"].Scope().Lookup(n).(*types.TypeName); ok && o.IsAlias() {
			if nt, ok := types.Unalias(o.Type()).(*types.Named); ok {
				for i := range nt.NumMethods() {
					exempt[nt.Method(i)] = true
				}
			}
		}
	}
	exports := map[string]*types.Func{}
	var named []*types.Named
	for _, p := range tree.pkgs {
		for _, n := range p.Scope().Names() {
			var fns []*types.Func
			switch o := p.Scope().Lookup(n).(type) {
			case *types.Func:
				fns = append(fns, o)
			case *types.TypeName:
				nt, ok := o.Type().(*types.Named)
				if !ok || o.IsAlias() {
					continue
				}
				named = append(named, nt)
				for i := range nt.NumMethods() {
					fns = append(fns, nt.Method(i))
				}
				if it, ok := nt.Underlying().(*types.Interface); ok {
					for i := range it.NumExplicitMethods() {
						fns = append(fns, it.ExplicitMethod(i))
					}
				}
			}
			for _, fn := range fns {
				if fn.Exported() && !exempt[fn] && p.Path() != "repro/internal/model" {
					exports[name(fn)] = fn
				}
			}
		}
	}

	// A use outside the function's own body is a call: a method value
	// handed to a callback is called by whoever holds it.
	called := map[*types.Func]bool{}
	for _, f := range tree.files {
		for _, d := range f.Decls {
			var self types.Object
			if fd, ok := d.(*ast.FuncDecl); ok {
				self = tree.info.Defs[fd.Name]
			}
			ast.Inspect(d, func(n ast.Node) bool {
				id, _ := n.(*ast.Ident)
				if fn, ok := tree.info.Uses[id].(*types.Func); ok && fn != self {
					called[fn.Origin()] = true
				}
				return true
			})
		}
	}
	for _, h := range harnessExports {
		switch fn := exports[h.name]; {
		case fn == nil:
			t.Errorf("harnessExports lists %s, which names no audited function or method", h.name)
		case called[fn]:
			t.Errorf("harnessExports lists %s, which a non-test file calls: drop the entry", h.name)
		default:
			called[fn] = true
		}
	}
	// A method is called when an interface method it implements is.
	var viaIface []*types.Func
	for fn := range called {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
			viaIface = append(viaIface, fn)
		}
	}
	for _, im := range viaIface {
		it := im.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
		for _, nt := range named {
			if ptr := types.NewPointer(nt); nt.TypeParams().Len() == 0 && !types.IsInterface(nt) && types.Implements(ptr, it) {
				m, _, _ := types.LookupFieldOrMethod(ptr, false, im.Pkg(), im.Name())
				called[m.(*types.Func).Origin()] = true
			}
		}
	}

	var uncalled []string
	for n, fn := range exports {
		switch fn.Name() {
		case "String", "Error", "Read", "Write":
			continue
		}
		if !called[fn] {
			uncalled = append(uncalled, n)
		}
	}
	sort.Strings(uncalled)
	if len(uncalled) > 0 {
		t.Errorf("%d exported functions and methods are called by no non-test file; delete each, unexport it, or list it in harnessExports:\n%s",
			len(uncalled), strings.Join(uncalled, "\n"))
	}
}

// TestNoAPINewerThanGoMod fails on a use, in any Go file of the
// repository, tests included, of a standard-library function, method,
// type, constant, variable or field added after go.mod's go line: a newer
// toolchain builds, vets and tests it, and only one of the go line's
// version rejects it. What each
// release added is the toolchain's own record, $GOROOT/api/go1.N.txt.
func TestNoAPINewerThanGoMod(t *testing.T) {
	tree := loadTree(t)
	mod, err := os.ReadFile("go.mod")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?m)^go 1\.(\d+)`).FindSubmatch(mod)
	if m == nil {
		t.Fatal("go.mod has no go 1.N line")
	}
	minor, _ := strconv.Atoi(string(m[1]))
	out, err := exec.Command("go", "env", "GOROOT").Output()
	if err != nil {
		t.Fatal(err)
	}
	newer := map[string]string{} // apiKey -> the release that added it
	for n := minor + 1; ; n++ {
		b, err := os.ReadFile(filepath.Join(strings.TrimSpace(string(out)), "api", fmt.Sprintf("go1.%d.txt", n)))
		if errors.Is(err, fs.ErrNotExist) {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(b), "\n") {
			if k := apiKey(line); k != "" {
				newer[k] = fmt.Sprintf("go1.%d", n)
			}
		}
	}

	// The test files too: each package's in-package tests with its own
	// files, and its external tests, checked apart from the tree with type
	// errors ignored — an in-package test importing a package that imports
	// its own sees two copies of it — since a standard-library use still
	// resolves.
	tests := &types.Info{Uses: map[*ast.Ident]types.Object{}, Selections: map[*ast.SelectorExpr]*types.Selection{}}
	for path := range tree.pkgs {
		bp, err := build.Default.ImportDir("."+strings.TrimPrefix(path, "repro"), 0)
		if err != nil {
			t.Fatal(err)
		}
		groups := [][]string{bp.XTestGoFiles}
		if len(bp.TestGoFiles) > 0 {
			groups = append(groups, append(bp.TestGoFiles, bp.GoFiles...))
		}
		for _, names := range groups {
			var files []*ast.File
			for _, name := range names {
				f, err := parser.ParseFile(tree.fset, filepath.Join(bp.Dir, name), nil, parser.SkipObjectResolution)
				if err != nil {
					t.Fatal(err)
				}
				files = append(files, f)
			}
			if len(files) > 0 {
				conf := types.Config{Importer: tree, Error: func(error) {}}
				conf.Check(path, tree.fset, files, tests)
			}
		}
	}

	found := map[string]bool{}
	use := func(pos token.Pos, pkg *types.Package, name ...string) {
		if pkg == nil || strings.HasPrefix(pkg.Path(), "repro") {
			return
		}
		k := pkg.Path() + "." + strings.Join(name, ".")
		if rel, ok := newer[k]; ok {
			found[fmt.Sprintf("%s: %s, added in %s", tree.fset.Position(pos), k, rel)] = true
		}
	}
	for _, info := range []*types.Info{tree.info, tests} {
		for id, o := range info.Uses {
			switch o := o.(type) {
			case *types.Func:
				if recv := o.Type().(*types.Signature).Recv(); recv != nil {
					if nt := namedOf(recv.Type()); nt != nil {
						use(id.Pos(), o.Pkg(), nt.Obj().Name(), o.Name())
					}
				} else {
					use(id.Pos(), o.Pkg(), o.Name())
				}
			case *types.TypeName, *types.Const, *types.Var:
				if o.Pkg() != nil && o.Parent() == o.Pkg().Scope() {
					use(id.Pos(), o.Pkg(), o.Name())
				}
			}
		}
		for sel, s := range info.Selections {
			if nt := namedOf(s.Recv()); s.Kind() == types.FieldVal && nt != nil {
				use(sel.Sel.Pos(), s.Obj().Pkg(), nt.Obj().Name(), s.Obj().Name())
			}
		}
	}
	var lines []string
	for f := range found {
		lines = append(lines, f)
	}
	sort.Strings(lines)
	if len(lines) > 0 {
		t.Errorf("go.mod says go 1.%d; these uses need a newer standard library:\n%s", minor, strings.Join(lines, "\n"))
	}
}

// namedOf is the named type t is, or points to; nil for any other type.
func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	nt, _ := types.Unalias(t).(*types.Named)
	return nt
}

// apiKey is the key TestNoAPINewerThanGoMod looks a use up by for one line
// of an api/go1.N.txt file: "path.Name" for a function, type, constant or
// variable, "path.Type.Name" for a method, a struct field or an interface
// method; "" for any other line.
func apiKey(line string) string {
	rest, ok := strings.CutPrefix(line, "pkg ")
	if !ok {
		return ""
	}
	pkg, decl, ok := strings.Cut(rest, ", ")
	if !ok {
		return ""
	}
	pkg, _, _ = strings.Cut(pkg, " ") // "syscall (linux-386)"
	kind, decl, _ := strings.Cut(decl, " ")
	ident := func(s string) string {
		end := strings.IndexFunc(s, func(r rune) bool { return r != '_' && !unicode.IsLetter(r) && !unicode.IsDigit(r) })
		if end < 0 {
			return s
		}
		return s[:end]
	}
	switch kind {
	case "func", "const", "var":
		return pkg + "." + ident(decl)
	case "method": // (*T[$0]) Name(...)
		recv, name, _ := strings.Cut(decl, ") ")
		return pkg + "." + ident(strings.TrimLeft(recv, "(*")) + "." + ident(name)
	case "type": // T[...] struct, or a member: T struct, Field ...
		name := ident(decl)
		depth := 0
		for i, r := range decl {
			switch r {
			case '[', '(', '{':
				depth++
			case ']', ')', '}':
				depth--
			case ',':
				if depth == 0 {
					return pkg + "." + name + "." + ident(strings.TrimSpace(decl[i+1:]))
				}
			}
		}
		return pkg + "." + name
	}
	return ""
}

// sourceTree is the repository type-checked once for the audits that
// read it.
var sourceTree struct {
	once sync.Once
	ti   *treeImporter
	err  error
}

// loadTree type-checks every package of the repository from its non-test
// files — benchmark/, cmd/ and examples/ included — recording every
// definition and use.
func loadTree(t *testing.T) *treeImporter {
	t.Helper()
	sourceTree.once.Do(func() {
		ti := &treeImporter{
			fset: token.NewFileSet(),
			info: &types.Info{
				Defs:       map[*ast.Ident]types.Object{},
				Uses:       map[*ast.Ident]types.Object{},
				Selections: map[*ast.SelectorExpr]*types.Selection{},
			},
			pkgs: map[string]*types.Package{},
		}
		ti.std = importer.ForCompiler(ti.fset, "source", nil)
		sourceTree.ti, sourceTree.err = ti, filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			_, err = ti.Import(importPath(path))
			if errors.As(err, new(*build.NoGoError)) {
				return nil
			}
			return err
		})
	})
	if sourceTree.err != nil {
		t.Fatal(sourceTree.err)
	}
	return sourceTree.ti
}

// importPath is the import path of the package in dir, a path relative to
// the repository root; benchmark/ is its own module, repro/benchmark.
func importPath(dir string) string {
	if dir == "." {
		return "repro"
	}
	return "repro/" + filepath.ToSlash(dir)
}

// treeImporter type-checks the repository's packages from their non-test
// files, once each, recording every use into info; the standard library
// comes from std.
type treeImporter struct {
	fset  *token.FileSet
	info  *types.Info
	pkgs  map[string]*types.Package
	files []*ast.File
	std   types.Importer
}

func (ti *treeImporter) Import(path string) (*types.Package, error) {
	if p, ok := ti.pkgs[path]; ok {
		return p, nil
	}
	dir, ok := strings.CutPrefix(path, "repro")
	if !ok || dir != "" && dir[0] != '/' {
		return ti.std.Import(path)
	}
	bp, err := build.Default.ImportDir("."+dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(ti.fset, filepath.Join(bp.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: ti}
	p, err := conf.Check(path, ti.fset, files, ti.info)
	if err != nil {
		return nil, err
	}
	ti.pkgs[path], ti.files = p, append(ti.files, files...)
	return p, nil
}

// TestReadmeMentionsMetrics keeps the README's observability section
// pointing at the reference doc.
func TestReadmeMentionsMetrics(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatalf("README.md: %v", err)
	}
	for _, want := range []string{"METRICS.md", "-metrics", "Metrics()"} {
		if !regexp.MustCompile(regexp.QuoteMeta(want)).Match(readme) {
			t.Errorf("README.md does not mention %q", want)
		}
	}
}

// roadmapItemByNumber matches a ROADMAP item cited by its number: "item
// 3", "items 1 and 2", "ROADMAP #7", "ROADMAP item 4".
var roadmapItemByNumber = regexp.MustCompile(`(?i)\bitems?\s+\(?[0-9]|\broadmap:?\s+(item\s+)?#?[0-9]`)

// TestDocsCiteRoadmapItemsByTitle: the docs that describe the present cite
// a ROADMAP item by its title, because the numbers change at every
// re-anchor. CHANGES.md is history and is not checked.
func TestDocsCiteRoadmapItemsByTitle(t *testing.T) {
	for _, f := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "METRICS.md", ".claude/skills/verify/SKILL.md"} {
		doc, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, at := range roadmapItemByNumber.FindAllIndex(doc, -1) {
			line := 1 + strings.Count(string(doc[:at[0]]), "\n")
			t.Errorf("%s:%d cites a ROADMAP item by number (%q): cite it by title", f, line, doc[at[0]:at[1]])
		}
	}
}

// docBudgets caps, in bytes, the docs every session reads before it writes
// code. A change may lower a budget but never raise it: one that needs
// more words removes as many elsewhere — from CHANGES.md by compressing
// older entries.
var docBudgets = []struct {
	file  string
	bytes int64
}{
	{"DESIGN.md", 92665},
	{"EXPERIMENTS.md", 50750},
	{"README.md", 29555},
	{".claude/skills/verify/SKILL.md", 29793},
	{"CHANGES.md", 152977},
	{"METRICS.md", 25898},
}

// TestDocsByteBudget holds each of those docs to its budget.
func TestDocsByteBudget(t *testing.T) {
	for _, d := range docBudgets {
		fi, err := os.Stat(d.file)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() > d.bytes {
			t.Errorf("%s is %d bytes, over its budget of %d: remove as many bytes as it gained", d.file, fi.Size(), d.bytes)
		}
	}
}
