package jaws

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// The closed surface (DESIGN.md §3): internal/ is importable only by this
// module and benchmark/, so whether a name has a caller is decidable.
// TestClosedSurface decides it: every exported function, method, type,
// constant and variable under internal/ (outside internal/oracle, the
// reference harness) must be reachable from non-test code — cmd/,
// examples/, this facade, benchmark/ — and every field of an internal
// *Config type must be set by non-test code outside the package that
// declares it. A type the facade aliases is rooted, but its fields and
// methods meet the same rule as any other. The harness is not a root: a
// name only it reaches is kept for a reference, not for the program.
// surfaceAllow is the short list of names kept without a caller, and
// harnessOnly the list of those only the harness calls, one reason each.
var surfaceAllow = map[string]string{
	"jaws/internal/cluster.Config.Replicas":   "replica failover, which the chaos tests (internal/fault) and failover_test.go certify; ROADMAP 7(a)'s request router over replicas is its planned setter",
	"jaws/internal/system.Config.SampleGhost": "read, not set, by benchmark/assembly.go's copy of the assembler; settled when benchmark/ builds through system.Open (ROADMAP 1a(i)) or jawsd sets it (20(a))",
	"jaws/internal/system.Config.Parallelism": "inert (the engine evaluates every batch on one goroutine), kept only because benchmark/assembly.go reads it into engine.Config.Parallelism, also inert; ROADMAP 1a(i) deletes both",
}

// harnessOnly lists the production names only internal/oracle reaches,
// each with the reason a reference needs it of the production type.
var harnessOnly = map[string]string{
	"jaws/internal/jobgraph.Graph.GatingNumber": "G(q), §IV.B's gating level, which oracle.GatingPair holds to oracle.ModelGraph's after every op; the engine asks Dispatchable instead",
	"jaws/internal/jobgraph.Graph.Partners":     "a query's co-scheduled partners, compared with oracle.ModelGraph's by oracle.GatingPair; the engine asks BlockedBy instead",
	"jaws/internal/jobgraph.Graph.Schedulable":  "the QUEUE set, compared with oracle.ModelGraph's by oracle.GatingPair; the engine gates query by query through Dispatchable",
	"jaws/internal/jobgraph.Graph.Finished":     "whether every registered query is DONE, compared with oracle.ModelGraph's by oracle.GatingPair; the engine counts its own completions",
	"jaws/internal/jobgraph.Graph.Prune":        "the engine never prunes (ROADMAP 3(c)); oracle.GatingPair drives Prune so that it stays certified against oracle.ModelGraph until it does",
	"jaws/internal/system.System.Cache":         "oracle.Run records decisions against the assembled cache's residency; the program reaches the cache through the engine System.Run builds",
}

func TestClosedSurface(t *testing.T) {
	l, err := repoModule()
	if err != nil {
		t.Fatal(err)
	}
	got, err := closedSurface(l)
	if err != nil {
		t.Fatal(err)
	}
	flagged := map[string]bool{}
	for _, f := range got {
		flagged[f.sym] = true
		_, allowed := surfaceAllow[f.sym]
		_, forHarness := harnessOnly[f.sym]
		if !allowed && !(forHarness && f.harness) {
			t.Errorf("%s: %s %s", f.pos, f.sym, f.why)
		}
	}
	for list, m := range map[string]map[string]string{"surfaceAllow": surfaceAllow, "harnessOnly": harnessOnly} {
		for sym, reason := range m {
			if !flagged[sym] {
				t.Errorf("%s[%q] is stale: the name is reached now or gone", list, sym)
			}
			if reason == "" {
				t.Errorf("%s[%q] gives no reason", list, sym)
			}
		}
	}
	if len(surfaceAllow) > 4 {
		t.Errorf("surfaceAllow has %d entries, the budget is 4", len(surfaceAllow))
	}
}

// TestClosedSurfaceMiniModule holds the analysis to a module small enough
// to read: one dead export, one never-set field of a Config the facade
// aliases and one export only the harness calls, which it must flag (the
// last as the harness's), beside the two shapes it must not — an
// interface implementation reached only through an embedding type, a
// generic method used only through an instantiation.
func TestClosedSurfaceMiniModule(t *testing.T) {
	l, err := loadModule(filepath.Join("testdata", "surface"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := closedSurface(l)
	if err != nil {
		t.Fatal(err)
	}
	var syms []string
	for _, f := range got {
		sym := fmt.Sprintf("%s:%d %s", filepath.Base(f.pos.Filename), f.pos.Line, f.sym)
		if f.harness {
			sym += " (harness)"
		}
		syms = append(syms, sym)
	}
	want := []string{"a.go:6 mini/internal/a.Dead", "a.go:30 mini/internal/a.Config.Size", "a.go:34 mini/internal/a.Reference (harness)"}
	if !slices.Equal(syms, want) {
		t.Fatalf("flagged\n  %s\nwant\n  %s", strings.Join(syms, "\n  "), strings.Join(want, "\n  "))
	}
}

type surfaceFinding struct {
	pos token.Position
	sym string
	why string
	// harness is set when internal/oracle, the reference harness, reaches
	// the name: it has a caller, but not in the program.
	harness bool
}

type surfacePkg struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// surfaceStd is the stdlib source importer, shared so net/http and its
// dependencies are type-checked once per test binary.
var (
	surfaceFset = token.NewFileSet()
	surfaceStd  = importer.ForCompiler(surfaceFset, "source", nil)
)

// surfaceLoader type-checks the module's non-test files from source:
// module packages itself, everything else through surfaceStd.
type surfaceLoader struct {
	mod  string
	root string
	pkgs map[string]*surfacePkg
}

func (l *surfaceLoader) Import(path string) (*types.Package, error) {
	if path != l.mod && !strings.HasPrefix(path, l.mod+"/") {
		return surfaceStd.Import(path)
	}
	p, err := l.load(path)
	if err != nil {
		return nil, err
	}
	return p.pkg, nil
}

func (l *surfaceLoader) load(path string) (*surfacePkg, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir := filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, l.mod), "/")))
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	p := &surfacePkg{info: &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(surfaceFset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	p.pkg, err = (&types.Config{Importer: l}).Check(path, surfaceFset, p.files, p.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p, nil
}

// surfaceCanon maps a use to the declared object: a method or field of an
// instantiated generic type to the one on the generic type.
func surfaceCanon(o types.Object) types.Object {
	switch o := o.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return o
}

// repoModule is this module's load, shared by the closed-surface check and
// the assembly and reporting rules (rules_test.go): type-checking it takes
// seconds, so a test binary pays for it once.
var repoModule = sync.OnceValues(func() (*surfaceLoader, error) { return loadModule(".") })

// loadModule type-checks the non-test files of every package of the module
// rooted at root, benchmark/ included when present.
func loadModule(root string) (*surfaceLoader, error) {
	mod, err := surfaceModulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	l := &surfaceLoader{mod: mod, root: root, pkgs: map[string]*surfacePkg{}}
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if n := d.Name(); p != root && (n == "testdata" || n[0] == '.' || n[0] == '_') {
			return filepath.SkipDir
		}
		rel, _ := filepath.Rel(root, p)
		path := mod
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		if _, err = l.load(path); err != nil {
			if _, none := err.(*build.NoGoError); none {
				return nil // a directory without Go files
			}
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return l, nil
}

// closedSurface analyses a loaded module and returns the unreached exports
// and never-set Config fields of its internal packages, sorted by position.
func closedSurface(l *surfaceLoader) ([]surfaceFinding, error) {
	mod := l.mod
	harness := func(pkg *types.Package) bool {
		return strings.HasPrefix(pkg.Path()+"/", mod+"/internal/oracle/")
	}
	checked := func(pkg *types.Package) bool {
		return pkg != nil && strings.HasPrefix(pkg.Path(), mod+"/internal/") && !harness(pkg)
	}
	inModule := func(o types.Object) bool {
		return o != nil && o.Pkg() != nil && l.pkgs[o.Pkg().Path()] != nil
	}

	// The reference graph: declaration → the module objects it names.
	// Declarations of packages outside internal/, init functions and blank
	// variables are the roots. So the facade's aliases root the types they
	// alias, but not those types' fields and methods: they need callers of
	// their own. The harness's declarations start a walk of their own,
	// which names what only the harness reaches.
	refs := map[types.Object][]types.Object{}
	var roots, harnessRoots []types.Object
	set := map[types.Object]bool{} // Config fields assigned outside their package
	var ifaces []*types.Interface
	var named []*types.TypeName
	for _, p := range l.pkgs {
		for _, tv := range p.info.Types {
			if it, ok := tv.Type.(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces = append(ifaces, it)
			}
		}
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					ifaces = append(ifaces, it)
				} else {
					named = append(named, tn)
				}
			}
		}
		own := &roots
		if harness(p.pkg) {
			own = &harnessRoots
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				var owners []types.Object
				collect := func(n ast.Node) {
					var used []types.Object
					ast.Inspect(n, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							if o := surfaceCanon(p.info.Uses[id]); inModule(o) {
								used = append(used, o)
							}
						}
						return true
					})
					if len(owners) == 0 {
						*own = append(*own, used...)
					}
					for _, o := range owners {
						refs[o] = append(refs[o], used...)
						if !checked(p.pkg) {
							*own = append(*own, o)
						}
					}
				}
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Name.Name != "init" || d.Recv != nil {
						owners = []types.Object{p.info.Defs[d.Name]}
					}
					collect(d)
				case *ast.GenDecl:
					for _, s := range d.Specs {
						owners = nil
						switch s := s.(type) {
						case *ast.TypeSpec:
							owners = []types.Object{p.info.Defs[s.Name]}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								if n.Name != "_" {
									owners = append(owners, p.info.Defs[n])
								}
							}
						}
						collect(s)
					}
				}
			}
			surfaceFieldSets(f, p, set)
		}
	}

	// A type that implements an interface — declared in the module, or
	// one of the stdlib's the module hands values to — gives that
	// interface's methods a caller, through embedding too.
	for _, ref := range [][2]string{{"fmt", "Stringer"}, {"sort", "Interface"}, {"io", "Reader"}, {"io", "Writer"},
		{"encoding", "TextMarshaler"}, {"encoding", "TextUnmarshaler"}, {"flag", "Value"}, {"net/http", "Handler"}} {
		pkg, err := surfaceStd.Import(ref[0])
		if err != nil {
			return nil, err
		}
		ifaces = append(ifaces, pkg.Scope().Lookup(ref[1]).Type().Underlying().(*types.Interface))
	}
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	for _, tn := range named {
		ptr := types.NewPointer(tn.Type())
		ms := types.NewMethodSet(ptr)
		for _, it := range ifaces {
			if !types.Implements(ptr, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				if sel := ms.Lookup(m.Pkg(), m.Name()); sel != nil && inModule(sel.Obj()) {
					refs[tn] = append(refs[tn], surfaceCanon(sel.Obj()))
				}
			}
		}
	}

	walk := func(roots []types.Object) map[types.Object]bool {
		reached := map[types.Object]bool{}
		for len(roots) > 0 {
			o := roots[len(roots)-1]
			roots = roots[:len(roots)-1]
			if !reached[o] {
				reached[o] = true
				roots = append(roots, refs[o]...)
			}
		}
		return reached
	}
	reached, fromHarness := walk(roots), walk(harnessRoots)

	var out []surfaceFinding
	flag := func(o types.Object, sym, why string) {
		f := surfaceFinding{pos: surfaceFset.Position(o.Pos()), sym: sym, why: why, harness: fromHarness[o]}
		if f.harness {
			f.why += " (only the reference harness, internal/oracle, does)"
		}
		out = append(out, f)
	}
	for _, p := range l.pkgs {
		if !checked(p.pkg) {
			continue
		}
		for _, name := range p.pkg.Scope().Names() {
			o := p.pkg.Scope().Lookup(name)
			if o.Exported() && !reached[o] {
				flag(o, p.pkg.Path()+"."+name, "is exported and no non-test code references it")
			}
			tn, ok := o.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			nt := tn.Type().(*types.Named)
			for i := 0; i < nt.NumMethods(); i++ {
				if m := nt.Method(i); m.Exported() && !reached[m] {
					flag(m, p.pkg.Path()+"."+name+"."+m.Name(), "is an exported method no non-test code calls and no interface needs")
				}
			}
			if st, ok := nt.Underlying().(*types.Struct); ok && strings.HasSuffix(name, "Config") {
				for i := 0; i < st.NumFields(); i++ {
					if f := st.Field(i); f.Exported() && !set[f] {
						flag(f, p.pkg.Path()+"."+name+"."+f.Name(), "is a Config field no non-test code outside its package sets: make it the constant it is")
					}
				}
			}
		}
	}
	sortFindings(out)
	return out, nil
}

// sortFindings orders findings by file and line.
func sortFindings(out []surfaceFinding) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].pos, out[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
}

// surfaceFieldSets records the struct fields file f assigns — a keyed or
// positional composite literal, an assignment, ++/--, or an address taken
// (a flag binding) — when the field's type is declared in another package.
func surfaceFieldSets(f *ast.File, p *surfacePkg, set map[types.Object]bool) {
	mark := func(e ast.Expr) {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
				continue
			case *ast.SelectorExpr:
				if v, ok := surfaceCanon(p.info.Uses[x.Sel]).(*types.Var); ok && v.IsField() && v.Pkg() != p.pkg {
					set[v] = true
				}
				e = x.X
				continue
			}
			return
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			t := p.info.Types[n].Type
			if t == nil {
				break
			}
			st, ok := t.Underlying().(*types.Struct)
			if !ok {
				break
			}
			for i, e := range n.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						if v, ok := surfaceCanon(p.info.Uses[id]).(*types.Var); ok && v.Pkg() != p.pkg {
							set[v] = true
						}
					}
				} else if i < st.NumFields() && st.Field(i).Pkg() != p.pkg {
					set[st.Field(i)] = true
				}
			}
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
		}
		return true
	})
}

func surfaceModulePath(gomod string) (string, error) {
	f, err := os.Open(gomod)
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}
