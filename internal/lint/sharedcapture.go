package lint

import (
	"go/ast"
	"go/types"
)

// sharedCaptureAnalyzer keeps goroutines from writing shared state in
// deterministic packages. One goroutine owns all simulation state; a
// goroutine closure that writes through a captured variable — a plain
// assignment, a compound assignment, ++/--, or a store through a
// captured struct or slice — is both a data race under -race and a
// source of schedule-dependent results. Deliberate disjoint-index writes
// can be justified with //mlfs:allow sharedcapture.
var sharedCaptureAnalyzer = &Analyzer{
	Name:              "sharedcapture",
	Doc:               "goroutine closures in deterministic packages writing variables captured from the enclosing function",
	DeterministicOnly: true,
	Run:               runSharedCapture,
}

func runSharedCapture(p *Pass) {
	info := p.Pkg.Info
	forEachFunc(p.Pkg, func(fd *ast.FuncDecl) {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			fl, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit)
			if !ok {
				return true
			}
			checkCapturedWrites(p, info, fl)
			return true
		})
	})
}

func checkCapturedWrites(p *Pass, info *types.Info, fl *ast.FuncLit) {
	report := func(pos ast.Node, target ast.Expr, obj types.Object) {
		p.Reportf(pos.Pos(), "goroutine closure writes %s captured from the enclosing function: goroutines must not write shared state; move the write to the owning goroutine or use an atomic", types.ExprString(target))
	}
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		switch stmt := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range stmt.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && info.Defs[id] != nil {
					continue // := defining a new variable inside the closure
				}
				if obj := rootIdentObj(info, lhs); declaredOutside(obj, fl) {
					report(stmt, lhs, obj)
				}
			}
		case *ast.IncDecStmt:
			if obj := rootIdentObj(info, stmt.X); declaredOutside(obj, fl) {
				report(stmt, stmt.X, obj)
			}
		}
		return true
	})
}
