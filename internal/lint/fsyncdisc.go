package lint

import (
	"go/ast"
	"regexp"
)

// Fsyncdisc keeps every rename and link inside internal/durable.
//
// A crash-safe write needs four steps in order: write a temp file, fsync
// it, rename or link it into place, fsync the parent directory. Dropping
// any step silently weakens the guarantee, so the steps live in one place —
// durable.WriteFileAtomic and durable.Publish, whose journal tests prove
// the order. The rule is therefore one line: outside internal/durable/...,
// a call to os.Rename or os.Link, or to any two-argument callee named
// Rename or Link (the durable.FS methods and their like), is a finding.
// A reviewed exception is suppressed with //mmlint:ignore fsyncdisc <reason>.
var Fsyncdisc = &Analyzer{
	Name: "fsyncdisc",
	Doc: "only internal/durable may rename or link files; everything else " +
		"writes through durable.WriteFileAtomic or durable.Publish",
	Run: runFsyncdisc,
}

// durablePkg matches the packages allowed to rename and link.
var durablePkg = regexp.MustCompile(`(^|/)internal/durable($|/)`)

func runFsyncdisc(pass *Pass) error {
	if durablePkg.MatchString(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 2 {
				return true
			}
			if name := calleeName(call); name == "Rename" || name == "Link" {
				pass.Reportf(call.Pos(),
					"%s outside internal/durable; use durable.WriteFileAtomic or durable.Publish, which fsync the file before and the directory after", name)
			}
			return true
		})
	}
	return nil
}

// calleeName returns the bare name of the called function or method
// ("" for indirect calls).
func calleeName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}
