// Package lint is a self-contained static-analysis framework enforcing the
// repository's determinism, cancellation and numeric-safety invariants
// (see docs/LINT.md). It deliberately mirrors the shape of
// golang.org/x/tools/go/analysis — Analyzer, Pass, positional diagnostics,
// testdata fixtures with `// want` expectations — but is built purely on
// the standard library (go/parser, go/types and `go list -export`), so the
// module keeps its zero-dependency property.
//
// The analyzers encode rules that previously lived in comments and
// reviewer memory:
//
//   - detrand:     no global math/rand streams or wall-clock-seeded sources
//     in the stochastic kernels (checkpoint/resume would diverge)
//   - ctxflow:     exported iterating entrypoints accept context.Context and
//     never drop it through an unguarded context.Background()
//   - floateq:     no raw ==/!= between floating-point values in the
//     energy/power/schedule math; use model.ApproxEqual
//   - guardgo:     goroutines in the synthesis layers carry a panic barrier
//   - exhaustenum: switches over domain enums are exhaustive or carry an
//     explicit default
//   - hotalloc:    functions annotated //mm:noalloc (the evaluation hot
//     path) contain no allocation sites, transitively through same-package
//     calls; reviewed sites carry //mm:alloc-ok <reason>
//   - locksafe:    mutex discipline in the service layers — no copies,
//     double-locks, leaked locks on early returns, or locks held across
//     blocking operations
//   - fsyncdisc:   only internal/durable renames or links files; every
//     other writer goes through its fsync-ordered helpers
//
// A finding can be suppressed where it is a reviewed false positive:
//
//	//mmlint:ignore <analyzer>[,<analyzer>...] <reason>
//
// placed on the offending line or on the line directly above it.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Analyzer is one named invariant check.
type Analyzer struct {
	// Name identifies the analyzer in reports and ignore directives.
	Name string
	// Doc is a one-paragraph description of the rule and its rationale.
	Doc string
	// Packages, when non-nil, restricts the analyzer to packages whose
	// import path matches; nil applies it to every analyzed package.
	Packages *regexp.Regexp
	// Run reports findings for one package through pass.Reportf.
	Run func(*Pass) error
}

// Pass carries one package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// ModulePath is the module the analyzed packages belong to; analyzers
	// use it to restrict themselves to in-module types.
	ModulePath string

	report func(Diagnostic)
}

// Reportf records one finding at the given position.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding of one analyzer.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{Detrand, Ctxflow, Floateq, Guardgo, Exhaustenum, Hotalloc, Locksafe, Fsyncdisc}
}

// ByName resolves a comma-separated subset of analyzer names.
func ByName(names string) ([]*Analyzer, error) {
	var out []*Analyzer
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		found := false
		for _, a := range All() {
			if a.Name == name {
				out = append(out, a)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown analyzer %q (known: %s)", name, knownNames())
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no analyzers selected (known: %s)", knownNames())
	}
	return out, nil
}

func knownNames() string {
	var names []string
	for _, a := range All() {
		names = append(names, a.Name)
	}
	return strings.Join(names, ", ")
}

// Run applies the analyzers to the packages, filters suppressed findings
// and returns the remainder sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		ignores := collectIgnores(pkg)
		for _, a := range analyzers {
			if a.Packages != nil && !a.Packages.MatchString(pkg.Path) {
				continue
			}
			pass := &Pass{
				Analyzer:   a,
				Fset:       pkg.Fset,
				Files:      pkg.Files,
				Pkg:        pkg.Types,
				Info:       pkg.Info,
				ModulePath: pkg.Module,
				report: func(d Diagnostic) {
					if !ignores.suppressed(d) {
						diags = append(diags, d)
					}
				},
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", pkg.Path, a.Name, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// ignoreKey addresses one suppression: a file line suppressing one analyzer.
type ignoreKey struct {
	file     string
	line     int
	analyzer string
}

type ignoreSet map[ignoreKey]bool

// suppressed reports whether the diagnostic's line (or the line above it)
// carries a matching //mmlint:ignore directive.
func (s ignoreSet) suppressed(d Diagnostic) bool {
	return s[ignoreKey{d.Pos.Filename, d.Pos.Line, d.Analyzer}] ||
		s[ignoreKey{d.Pos.Filename, d.Pos.Line - 1, d.Analyzer}]
}

var ignoreRe = regexp.MustCompile(`^//\s*mmlint:ignore\s+([\w,-]+)`)

func collectIgnores(pkg *Package) ignoreSet {
	set := make(ignoreSet)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := ignoreRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, name := range strings.Split(m[1], ",") {
					set[ignoreKey{pos.Filename, pos.Line, name}] = true
				}
			}
		}
	}
	return set
}

// --- shared AST/type helpers used by several analyzers ---

// isPkgFunc reports whether the call's function is the selector
// <pkgpath>.<name>, resolving the package through the type info (so
// aliased imports are handled).
func isPkgFunc(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	return selectorPkgPath(info, sel) == pkgPath
}

// selectorPkgPath returns the import path of the package a selector's base
// identifier refers to, or "" when the base is not a package name.
func selectorPkgPath(info *types.Info, sel *ast.SelectorExpr) string {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return ""
	}
	return pn.Imported().Path()
}

// isContextType reports whether t is (an alias of) context.Context.
func isContextType(t types.Type) bool {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// containsTimeNow reports whether any call to time.Now appears under n.
func containsTimeNow(info *types.Info, n ast.Node) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isPkgFunc(info, call, "time", "Now") {
			found = true
		}
		return !found
	})
	return found
}
