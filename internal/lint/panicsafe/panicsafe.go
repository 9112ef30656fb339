// Package panicsafe pins the module's failure-containment contract from
// DESIGN.md: a panic anywhere in a run — workload construction, the
// simulation, verification — must unwind uncaught to the harness's single
// designated recovery boundary (harness.contain), where it becomes a
// typed *RunError and an attributable error row. A recover() anywhere
// else either swallows a failure the grid should have contained (losing
// the stack, the classification and the quarantine step) or creates a
// second containment point that can disagree with the first.
//
// The only sanctioned exceptions are goroutine relays: a worker that
// recovers a panic solely to re-raise it on the submitting goroutine
// (so it still reaches the boundary) waives its recover with
// `//numaws:recover-ok <reason>`, and so does a coroutine teardown guard
// that swallows only its own unwind sentinel and re-raises every other
// panic.
//
// Scope: every package in the module; _test.go files are exempt
// wholesale (tests recover deliberately to assert that code panics).
package panicsafe

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
)

// Analyzer is the containment-boundary checker.
var Analyzer = &analysis.Analyzer{
	Name: "panicsafe",
	Doc: "recover() appears only at the harness's designated containment boundary; " +
		"goroutine relays waive with //numaws:recover-ok <reason>",
	Run: run,
}

// boundaries names the designated containment functions, by defining
// package path and top-level function name. A recover anywhere inside
// one (including its deferred closures) is the sanctioned form.
var boundaries = map[string]map[string]bool{
	"repro/internal/harness": {"contain": true},
}

func run(pass *analysis.Pass) error {
	if !analysis.InModule(pass.Pkg.Path()) {
		return nil
	}
	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		sup := analysis.NewSuppressions(pass.Fset, file)
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if isBoundary(pass.Pkg.Path(), fd) {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || !isRecover(pass, call) {
					return true
				}
				ok, hasReason := sup.Suppressed("recover-ok", call.Pos())
				if ok && hasReason {
					return true
				}
				if ok {
					pass.Reportf(call.Pos(), "numaws:recover-ok suppression is missing its mandatory reason")
					return true
				}
				pass.Reportf(call.Pos(),
					"recover() in %s: panics unwind to the harness's containment boundary (contain), "+
						"which classifies them into typed error rows — a relay that re-raises waives with "+
						"//numaws:recover-ok <reason>",
					fd.Name.Name)
				return true
			})
		}
	}
	return nil
}

// isBoundary reports whether fd is one of the designated containment
// functions. The boundary's recover sits inside a deferred closure, so
// the whole body of the named top-level function is sanctioned.
func isBoundary(pkgPath string, fd *ast.FuncDecl) bool {
	if fd.Recv != nil {
		return false
	}
	names, ok := boundaries[pkgPath]
	return ok && names[fd.Name.Name]
}

// isRecover reports whether call invokes the recover builtin. recover is
// never package-qualified, so only a plain identifier can resolve to it;
// a user-defined recover() shadows the builtin and resolves to a
// *types.Func instead.
func isRecover(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok && b.Name() == "recover"
}
