package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
)

// Detrand forbids non-reproducible randomness in the stochastic kernels.
//
// The GA/scheduling/DVS loop is only checkpoint/resumable because every
// random draw flows through an injected *rand.Rand backed by the
// serialisable runctl.Source: the checkpoint stores the stream position and
// a resumed run replays the exact stream of the uninterrupted one
// (docs/RUNCTL.md). A single call to a math/rand top-level function draws
// from the shared global stream whose position is invisible to the
// checkpoint, and a time-seeded source makes two runs with equal seeds
// diverge. Both silently break the resume ≡ uninterrupted guarantee and
// the determinism regression test.
//
// Map iteration order is a third hidden random source: floating-point
// addition is not associative, so a float accumulated across a `range`
// over a map (`x += v` or `x = x + v`) can round differently on every
// run. Accumulators declared inside the loop body are per-iteration and
// exempt.
var Detrand = &Analyzer{
	Name: "detrand",
	Doc: "forbid the global math/rand stream and wall-clock-seeded sources " +
		"in the stochastic synthesis kernels; randomness must be a *rand.Rand " +
		"threaded from the caller (ultimately runctl's serialisable source); " +
		"and forbid float sums accumulated in map-iteration order",
	Packages: regexp.MustCompile(`(^|/)internal/(synth|ga|sched|dvs|sim|gen)($|/)`),
	Run:      runDetrand,
}

// detrandAllowed are the math/rand top-level functions that construct
// explicitly-seeded state rather than drawing from the global stream.
var detrandAllowed = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
}

func runDetrand(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if rs, ok := n.(*ast.RangeStmt); ok {
				checkMapFloatSum(pass, rs)
				return true
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkgPath := selectorPkgPath(pass.Info, sel)
			name := sel.Sel.Name

			// Any source constructor fed from the wall clock is
			// non-reproducible, whichever package provides it.
			if name == "NewSource" || name == "New" {
				for _, arg := range call.Args {
					if containsTimeNow(pass.Info, arg) {
						pass.Reportf(call.Pos(),
							"time-seeded random source: seeds must come from configuration so equal seeds replay equal streams")
						return true
					}
				}
			}

			if pkgPath == "math/rand" && !detrandAllowed[name] {
				pass.Reportf(call.Pos(),
					"global math/rand.%s draws from the process-wide stream and breaks checkpoint/resume determinism; thread a *rand.Rand instead", name)
			}
			return true
		})
	}
	return nil
}

// checkMapFloatSum flags float accumulations whose order follows the
// iteration of a range over a map.
func checkMapFloatSum(pass *Pass, rs *ast.RangeStmt) {
	t := pass.Info.TypeOf(rs.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 || !isFloat(pass.Info.TypeOf(as.Lhs[0])) {
			return true
		}
		lhs := as.Lhs[0]
		switch as.Tok {
		case token.ADD_ASSIGN:
		case token.ASSIGN:
			sum, ok := ast.Unparen(as.Rhs[0]).(*ast.BinaryExpr)
			if !ok || sum.Op != token.ADD || !sameExpr(lhs, sum.X) && !sameExpr(lhs, sum.Y) {
				return true
			}
		default:
			return true
		}
		if declaredWithin(pass.Info, lhs, rs) {
			return true
		}
		pass.Reportf(as.Pos(),
			"float sum accumulated in map-iteration order rounds differently from run to run; iterate in a fixed order (sorted keys or a slice)")
		return true
	})
}

// sameExpr reports whether two expressions print identically.
func sameExpr(a, b ast.Expr) bool {
	return types.ExprString(ast.Unparen(a)) == types.ExprString(ast.Unparen(b))
}

// declaredWithin reports whether the variable at the root of e (x in x,
// x.f, x[i], *x) is declared inside the range statement, making it a
// per-iteration value rather than a cross-iteration accumulator.
func declaredWithin(info *types.Info, e ast.Expr, rs *ast.RangeStmt) bool {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.Ident:
			obj := info.ObjectOf(x)
			return obj != nil && obj.Pos() >= rs.Pos() && obj.Pos() < rs.End()
		default:
			return false
		}
	}
}
