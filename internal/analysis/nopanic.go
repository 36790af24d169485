package analysis

import "go/ast"

// runNoPanic forbids panic in library (non-main, non-test) code. A store
// embedded in a server must degrade, not crash: conditions reachable from
// corrupt media or device faults must surface as typed errors (ErrCorrupt,
// ErrOutOfRange). The //dstore:invariant annotation marks the deliberate
// exceptions — guards on conditions only a programming error can produce
// (compile-time-constant indices, configuration validated at construction) —
// and each annotated function is expected to say why in its comment.
func runNoPanic(p *pass) {
	p.funcs(func(pkg *Package, fd *ast.FuncDecl) {
		if hasAnnotation(fd, "invariant") {
			return
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && isBuiltinCall(pkg.Info, call, "panic") {
				p.report(call.Pos(), "panic in library code (return a typed error, or annotate the function //dstore:invariant with a justification)")
			}
			return true
		})
	})
}
