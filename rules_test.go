package jaws

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// Two design rules, decided on the module TestClosedSurface loads: one
// assembler (DESIGN.md §2) and one reporting tier (DESIGN.md §9). Both
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

// documentBudgets caps the two documents that grow by accretion. Each
// describes mechanisms: EXPERIMENTS.md the paper's figures and, per
// mechanism, its method, latest figure, pins and what was dropped;
// DESIGN.md, per mechanism, what the code does, why, and what pins it. A
// change's story and its before-and-after numbers go to CHANGES.md.
var documentBudgets = []struct {
	file   string
	budget int64
	holds  string
}{
	{"EXPERIMENTS.md", 60_000, "it reports findings by mechanism, not by change; per-change before-and-after numbers belong in CHANGES.md, and a mechanism's section keeps only its latest figure"},
	{"DESIGN.md", 80_000, "it describes each mechanism once, not how it came to be; history belongs in CHANGES.md and figures in EXPERIMENTS.md"},
}

// TestDocumentBudgets fails when a document outgrows its budget.
func TestDocumentBudgets(t *testing.T) {
	for _, d := range documentBudgets {
		fi, err := os.Stat(d.file)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() > d.budget {
			t.Errorf("%s is %d B, over its %d B budget: %s", d.file, fi.Size(), d.budget, d.holds)
		}
	}
}

var (
	// designRef is a pointer into DESIGN.md from another file: "DESIGN.md
	// §N", more sections as ", §M", and a "Title" after the last, which
	// may run across comment lines.
	designRef = regexp.MustCompile(`DESIGN\.md\s+§(\d+)((?:,\s*§\d+)*)(?:,?(?:\s|//|#)+"([^"]+)")?`)
	// sectionRef is a cross-reference inside DESIGN.md. The paper's own
	// sections are Roman (§IV, §V.B) and do not match.
	sectionRef  = regexp.MustCompile(`§(\d+)(?:,?\s+"([^"]+)")?`)
	sectionNum  = regexp.MustCompile(`§(\d+)`)
	testDecl    = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	testName    = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z]\w*`)
	makeTarget  = regexp.MustCompile(`(?m)^([\w.-]+):`)
	codeSpan    = regexp.MustCompile("`[^`]+`")
	makeCmd     = regexp.MustCompile(`^make\s+((?:[\w.-]+=\S*\s*|[a-z][\w-]*\s*)+)`)
	repoFile    = regexp.MustCompile(`^[A-Za-z0-9.][\w./-]*\.(?:go|json|sh|yml|golden)$`)
	prMention   = regexp.MustCompile(`\bPRs? ?\d`)
	commentMark = regexp.MustCompile(`\s*(?://|#)*\s+`)
)

// TestDesignReferences holds DESIGN.md and every pointer into it to one
// numbering. It fails on a "DESIGN.md §N" in any file but DESIGN.md and
// CHANGES.md (whose old numbers are history) that names no "## N."
// heading, or whose "Title" names no "### Title" under it; on a §N inside
// DESIGN.md that does not resolve the same way; on a test, benchmark or
// fuzz target DESIGN.md names that no _test.go declares; on a make target
// it names that the Makefile lacks; on a file it names that does not
// exist; and on a mention of a PR, whose story belongs in CHANGES.md.
func TestDesignReferences(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	// sections maps a "## N." heading to its "### " subheadings.
	sections := map[string]map[string]bool{}
	cur := ""
	for _, line := range strings.Split(string(design), "\n") {
		if h, ok := strings.CutPrefix(line, "## "); ok {
			cur, _, _ = strings.Cut(h, ".")
			sections[cur] = map[string]bool{}
		} else if h, ok := strings.CutPrefix(line, "### "); ok && cur != "" {
			sections[cur][strings.TrimSpace(h)] = true
		}
	}
	at := func(file string, text []byte, off int, format string, args ...any) {
		t.Errorf("%s:%d: %s", file, 1+strings.Count(string(text[:off]), "\n"), fmt.Sprintf(format, args...))
	}
	resolve := func(file string, text []byte, off int, n, title string) {
		subs, ok := sections[n]
		switch {
		case !ok:
			at(file, text, off, "§%s names no \"## %s.\" heading of DESIGN.md", n, n)
		case title != "":
			if title = strings.TrimSpace(commentMark.ReplaceAllString(title, " ")); !subs[title] {
				at(file, text, off, "§%s %q names no \"### %s\" under DESIGN.md's \"## %s.\"", n, title, title, n)
			}
		}
	}

	// Pointers from every other file; the files, and the tests declared.
	files, bases, tests := map[string]bool{}, map[string]bool{}, map[string]bool{}
	err = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", ".bench_build", "bench-artifacts", "bench-wall-artifacts", "e2e-artifacts":
				return filepath.SkipDir
			}
			return nil
		}
		p = filepath.ToSlash(p)
		files[p], bases[path.Base(p)] = true, true
		if p == "DESIGN.md" || p == "CHANGES.md" || !d.Type().IsRegular() {
			return nil
		}
		if info, err := d.Info(); err != nil || info.Size() > 4<<20 {
			return err
		}
		text, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if strings.HasSuffix(p, "_test.go") {
			for _, m := range testDecl.FindAllSubmatch(text, -1) {
				tests[string(m[1])] = true
			}
		}
		for _, m := range designRef.FindAllSubmatchIndex(text, -1) {
			nums := []string{string(text[m[2]:m[3]])}
			for _, more := range sectionNum.FindAllSubmatch(text[m[4]:m[5]], -1) {
				nums = append(nums, string(more[1]))
			}
			for i, n := range nums {
				title := ""
				if i == len(nums)-1 && m[6] >= 0 {
					title = string(text[m[6]:m[7]])
				}
				resolve(p, text, m[0], n, title)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Cross-references and names inside DESIGN.md.
	for _, m := range sectionRef.FindAllSubmatchIndex(design, -1) {
		title := ""
		if m[4] >= 0 {
			title = string(design[m[4]:m[5]])
		}
		resolve("DESIGN.md", design, m[0], string(design[m[2]:m[3]]), title)
	}
	for _, m := range testName.FindAllIndex(design, -1) {
		if name := string(design[m[0]:m[1]]); !tests[name] {
			at("DESIGN.md", design, m[0], "%s is declared in no _test.go", name)
		}
	}
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range makeTarget.FindAllSubmatch(makefile, -1) {
		targets[string(m[1])] = true
	}
	for _, m := range codeSpan.FindAllIndex(design, -1) {
		span := string(design[m[0]+1 : m[1]-1])
		if mk := makeCmd.FindStringSubmatch(span); mk != nil {
			for _, tgt := range strings.Fields(mk[1]) {
				if !strings.Contains(tgt, "=") && !targets[tgt] {
					at("DESIGN.md", design, m[0], "make %s: no such Makefile target", tgt)
				}
			}
		}
		for _, f := range strings.Fields(span) {
			// A path names a file from the root or from internal/; a bare
			// name, a file anywhere.
			f = strings.Trim(f, ",;:()")
			if repoFile.MatchString(f) && !files[f] && !files["internal/"+f] && (strings.Contains(f, "/") || !bases[f]) {
				at("DESIGN.md", design, m[0], "%s: no such file", f)
			}
		}
	}
	for _, m := range prMention.FindAllIndex(design, -1) {
		at("DESIGN.md", design, m[0], "names a PR: a change's story belongs in CHANGES.md")
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
