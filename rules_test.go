package jaws

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// Two design rules, decided on the module TestClosedSurface loads: one
// assembler (DESIGN.md §3) and one reporting tier (DESIGN.md §20). Both
// read non-test code only; benchmark/ is its own module, with its own
// wiring under a drift test and its own harness statistics, and stays out
// of both.

// reportingBinaries are cmd/'s binaries.
var reportingBinaries = []string{"jaws", "jawsbench", "jawsd", "jawsload", "jawsreport"}

// TestOneAssembler: outside internal/system no code turns a description
// into a store, cache, scheduler, engine or fault injector by calling the
// layers' constructors; build through system.Open / NewScheduler /
// EngineConfig.
func TestOneAssembler(t *testing.T) {
	l, err := repoModule()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range assemblyRule(l) {
		t.Errorf("%s: %s %s", f.pos, f.sym, f.why)
	}
}

// TestOneReportingTier: one histogram type (obs.Histogram) and no second
// statistics type, one decoder of trace events (obs.ScanTrace), one order
// statistic (obs.Quantile) and the binaries reportingBinaries lists.
func TestOneReportingTier(t *testing.T) {
	l, err := repoModule()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range reportingRule(l, reportingBinaries) {
		t.Errorf("%s: %s %s", f.pos, f.sym, f.why)
	}
}

// experimentsBudget caps EXPERIMENTS.md, which grows by accretion. It holds
// the paper's figures and one section per mechanism — method, latest
// figure, pins, what was dropped; a change's before-and-after numbers go to
// its CHANGES.md entry.
const experimentsBudget = 60_000

// TestDocumentBudgets fails when EXPERIMENTS.md outgrows its budget.
func TestDocumentBudgets(t *testing.T) {
	fi, err := os.Stat("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() > experimentsBudget {
		t.Errorf("EXPERIMENTS.md is %d B, over its %d B budget: it reports findings by mechanism, not by change; "+
			"per-change before-and-after numbers belong in CHANGES.md, and a mechanism's section keeps only its latest figure",
			fi.Size(), experimentsBudget)
	}
}

// TestRulesMiniModule plants one offender per rule in testdata/rules and
// requires each to be named at its file and line, and nothing else: not
// the allowed shapes beside them (engine.New on an EngineConfig result,
// directly and through an adjusted local; StandardTarget's scheduler;
// internal/oracle's and internal/obs' own decoding; benchmark/'s store).
func TestRulesMiniModule(t *testing.T) {
	l, err := loadModule(filepath.Join("testdata", "rules"))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range append(assemblyRule(l), reportingRule(l, []string{"tool"})...) {
		rel, _ := filepath.Rel(l.root, f.pos.Filename)
		got = append(got, fmt.Sprintf("%s:%d %s", filepath.ToSlash(rel), f.pos.Line, f.sym))
	}
	want := []string{
		"internal/run/run.go:11 rules/internal/engine.New",
		"internal/run/run.go:28 rules/internal/store.Open",
		"cmd/extra/main.go:2 rules/cmd/extra",
		"cmd/tool/main.go:18 rules/cmd/tool.percentile",
		"internal/stats/stats.go:5 rules/internal/stats.Histogram",
		"internal/stats/trace.go:13 encoding/json.Unmarshal",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("flagged\n  %s\nwant\n  %s", strings.Join(got, "\n  "), strings.Join(want, "\n  "))
	}
}

// rulePkgs returns the loaded packages in path order, benchmark/ and the
// given module-relative subtrees left out.
func rulePkgs(l *surfaceLoader, skip ...string) []*surfacePkg {
	skip = append(skip, "benchmark")
	var out []*surfacePkg
	for path, p := range l.pkgs {
		if !slices.ContainsFunc(skip, func(s string) bool { return under(l, path, s) }) {
			out = append(out, p)
		}
	}
	slices.SortFunc(out, func(a, b *surfacePkg) int { return strings.Compare(a.pkg.Path(), b.pkg.Path()) })
	return out
}

// under reports whether a package path lies in the module-relative
// subtree rel.
func under(l *surfaceLoader, path, rel string) bool {
	return path == l.mod+"/"+rel || strings.HasPrefix(path, l.mod+"/"+rel+"/")
}

// objPath names a package-level object: pkg.Name.
func objPath(o types.Object) string { return o.Pkg().Path() + "." + o.Name() }

// assemblyRule returns every use of a layer constructor — store.Open and
// the exported New* of cache, sched, engine and fault — outside
// internal/system and the layer's own package. Two shapes are allowed by design: oracle.StandardTarget
// building schedulers (the production side of the differential
// comparison, which sweeps parameters a node description cannot name), and
// engine.New on the config (*system.System).EngineConfig returned, passed
// directly or through a local that nothing else is assigned to (the
// caller adjusts its fields: the ablation study's scheduler handle, the
// oracle's recorder).
func assemblyRule(l *surfaceLoader) []surfaceFinding {
	in := func(o types.Object, rel string) bool { return o.Pkg() != nil && o.Pkg().Path() == l.mod+"/"+rel }
	ctor := func(o types.Object) bool {
		f, ok := o.(*types.Func)
		if !ok || f.Type().(*types.Signature).Recv() != nil {
			return false
		}
		if in(f, "internal/store") {
			return f.Name() == "Open"
		}
		return f.Exported() && strings.HasPrefix(f.Name(), "New") &&
			(in(f, "internal/cache") || in(f, "internal/sched") || in(f, "internal/engine") || in(f, "internal/fault"))
	}
	var out []surfaceFinding
	for _, p := range rulePkgs(l, "internal/system") {
		obj := func(id *ast.Ident) types.Object {
			if o := p.info.Defs[id]; o != nil {
				return o
			}
			return p.info.Uses[id]
		}
		isEngineConfig := func(e ast.Expr) bool {
			call, ok := ast.Unparen(e).(*ast.CallExpr)
			if !ok {
				return false
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return false
			}
			f, ok := p.info.Uses[sel.Sel].(*types.Func)
			return ok && f.Name() == "EngineConfig" && in(f, "internal/system") && f.Type().(*types.Signature).Recv() != nil
		}
		// fromEC: locals assigned an EngineConfig result; other: locals
		// assigned (or declared with) anything else.
		fromEC, other := map[types.Object]bool{}, map[types.Object]bool{}
		assign := func(lhs, rhs []ast.Expr) {
			for i, e := range lhs {
				id, ok := ast.Unparen(e).(*ast.Ident)
				if !ok {
					continue // a field or element: adjusting the config is allowed
				}
				if o := obj(id); o != nil {
					if len(lhs) == len(rhs) && isEngineConfig(rhs[i]) {
						fromEC[o] = true
					} else {
						other[o] = true
					}
				}
			}
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					assign(n.Lhs, n.Rhs)
				case *ast.ValueSpec:
					names := make([]ast.Expr, len(n.Names))
					for i, id := range n.Names {
						names[i] = id
					}
					assign(names, n.Values)
				case *ast.RangeStmt:
					assign([]ast.Expr{n.Key, n.Value}, nil)
				}
				return true
			})
		}
		allowedArg := func(e ast.Expr) bool {
			if id, ok := ast.Unparen(e).(*ast.Ident); ok {
				o := p.info.Uses[id]
				return fromEC[o] && !other[o]
			}
			return isEngineConfig(e)
		}

		for _, f := range p.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				standardTarget := ok && fd.Recv == nil && fd.Name.Name == "StandardTarget" && p.pkg.Path() == l.mod+"/internal/oracle"
				handled := map[*ast.Ident]bool{} // engine.New calls, allowed or reported
				ast.Inspect(d, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.CallExpr:
						fun := ast.Unparen(n.Fun)
						if sel, ok := fun.(*ast.SelectorExpr); ok {
							fun = sel.Sel
						}
						id, ok := fun.(*ast.Ident)
						if !ok {
							break
						}
						if o := p.info.Uses[id]; ctor(o) && o.Pkg() != p.pkg && in(o, "internal/engine") && o.Name() == "New" {
							handled[id] = true
							if len(n.Args) != 1 || !allowedArg(n.Args[0]) {
								out = append(out, surfaceFinding{pos: surfaceFset.Position(id.Pos()), sym: objPath(o),
									why: "takes a config that is not (*system.System).EngineConfig's result"})
							}
						}
					case *ast.Ident:
						o := p.info.Uses[n]
						if !ctor(o) || o.Pkg() == p.pkg || handled[n] || (standardTarget && in(o, "internal/sched")) {
							break
						}
						out = append(out, surfaceFinding{pos: surfaceFset.Position(n.Pos()), sym: objPath(o),
							why: "is called outside internal/system: build through system.Open / NewScheduler / EngineConfig"})
					}
					return true
				})
			}
		}
	}
	sortFindings(out)
	return out
}

// reportingRule returns the second copies of the reporting tier's one-of-
// each, outside internal/oracle (whose reference models restate
// production arithmetic on purpose): a Histogram type other than
// internal/obs', a Summary or EWMA type, a JSON or line decoder in a file
// that handles obs.Event outside internal/obs, a percentile function
// called in cmd/, and a package under cmd/ that binaries does not list (a
// listed binary that is gone is reported too).
func reportingRule(l *surfaceLoader, binaries []string) []surfaceFinding {
	obsPath := l.mod + "/internal/obs"
	var out []surfaceFinding
	flag := func(pos token.Pos, sym, why string) {
		out = append(out, surfaceFinding{pos: surfaceFset.Position(pos), sym: sym, why: why})
	}
	seen := map[string]bool{}
	for _, p := range rulePkgs(l, "internal/oracle") {
		path := p.pkg.Path()
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			switch {
			case !ok:
			case name == "Histogram" && path != obsPath:
				flag(tn.Pos(), objPath(tn), "is a second histogram type: count into obs.Histogram")
			case name == "Summary" || name == "EWMA":
				flag(tn.Pos(), objPath(tn), "is a second statistics type: count into obs.Histogram, smooth with sched's ewma")
			}
		}
		cmd, isCmd := strings.CutPrefix(path, l.mod+"/cmd/")
		if isCmd {
			bin, _, _ := strings.Cut(cmd, "/")
			seen[bin] = true
			if !slices.Contains(binaries, bin) {
				flag(p.files[0].Package, path, "is not one of cmd/'s binaries "+strings.Join(binaries, ", "))
			}
		}
		for _, f := range p.files {
			handlesEvents := path != obsPath && namesObsEvent(p, f, obsPath)
			ast.Inspect(f, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				fn, ok := p.info.Uses[id].(*types.Func)
				if !ok || fn.Pkg() == nil {
					return true
				}
				switch q := objPath(fn); {
				case handlesEvents && (q == "encoding/json.Unmarshal" || q == "encoding/json.NewDecoder" || q == "bufio.NewScanner"):
					flag(id.Pos(), q, "decodes trace events outside internal/obs: read the trace with obs.ScanTrace")
				case isCmd && fn.Pkg().Path() != obsPath && strings.Contains(strings.ToLower(fn.Name()), "percentile"):
					flag(id.Pos(), q, "computes a percentile by hand in cmd/: use obs.Quantile")
				}
				return true
			})
		}
	}
	for _, bin := range binaries {
		if !seen[bin] {
			out = append(out, surfaceFinding{pos: token.Position{Filename: filepath.Join(l.root, "cmd", bin)}, sym: l.mod + "/cmd/" + bin, why: "is listed as a binary and is gone"})
		}
	}
	sortFindings(out)
	return out
}

// namesObsEvent reports whether file f of package p names obs.Event.
func namesObsEvent(p *surfacePkg, f *ast.File, obsPath string) bool {
	found := false
	ast.Inspect(f, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			tn, ok := p.info.Uses[id].(*types.TypeName)
			found = ok && tn.Name() == "Event" && tn.Pkg() != nil && tn.Pkg().Path() == obsPath
		}
		return !found
	})
	return found
}
