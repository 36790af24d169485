package analysis

import (
	"go/ast"
	"go/types"
)

// runWallclock bans nondeterministic inputs from crash-path packages:
// code that runs during recovery or checkpoint replay must produce the same
// state on every execution (paper §3.6 — replay re-executes logged
// operations; §3.2's statically-defined op→function mapping assumes the
// functions are deterministic). Banned:
//
//   - time.Now (and siblings time.Since/time.Until, which call it);
//   - package-level math/rand functions, which draw from the global,
//     time-seeded source. rand.New and rand.NewSource stay legal: an
//     explicitly seeded generator is deterministic and is how the simulated
//     devices implement reproducible crash scatter.
//
// Functions annotated //dstore:wallclock are exempt; the repository uses
// the annotation only for metrics timestamps that never feed persisted
// state.
func runWallclock(p *pass) {
	p.funcs(func(pkg *Package, fd *ast.FuncDecl) {
		if hasAnnotation(fd, "wallclock") {
			return
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			sig, ok := fn.Type().(*types.Signature)
			if !ok || sig.Recv() != nil {
				return true // methods (e.g. on a seeded *rand.Rand) are fine
			}
			var why string
			switch fn.Pkg().Path() {
			case "time":
				if fn.Name() == "Now" || fn.Name() == "Since" || fn.Name() == "Until" {
					why = "reads the wall clock"
				}
			case "math/rand", "math/rand/v2":
				if fn.Name() != "New" && fn.Name() != "NewSource" {
					why = "draws from the global time-seeded source"
				}
			}
			if why != "" {
				p.report(sel.Pos(), "%s.%s %s; crash-path code must be deterministic (derive from a logged seed, or annotate //dstore:wallclock for metrics-only use)",
					fn.Pkg().Name(), fn.Name(), why)
			}
			return true
		})
	})
}
