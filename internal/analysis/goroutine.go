package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// runGoroutineLifecycle requires every `go` statement in the targeted
// library packages to have a tracked termination path (DESIGN.md §11): the
// caller must be able to learn that the goroutine exited, or the goroutine
// must watch a cancellation signal. Untracked goroutines are how the server
// and replica layers leak — a feed goroutine parked on a dead subscriber, a
// read loop orphaned by an error return — and leaks only show up under
// production churn, never in short tests.
//
// A goroutine is considered tracked if its body exhibits at least one of:
//
//   - a join marker that runs on EVERY exit path: (*sync.WaitGroup).Done,
//     close(ch) of a channel visible to the spawner, or a send into such a
//     channel. Deferred markers qualify unconditionally; non-deferred
//     markers are flow-checked, and a path that returns without reaching
//     one is reported ("leaks on error paths" — the marker exists, but an
//     early return skips it);
//   - a cancellation subscription: a receive or select case on a channel
//     (or ctx.Done()) that the spawner can close/cancel, meaning the
//     goroutine terminates when told even if nobody joins it.
//
// `go` statements whose callee cannot be resolved to a body in the module
// are reported too: an unresolvable spawn is untracked by construction.
// Suppress intentional fire-and-forget spawns with //nolint:goroutine-lifecycle
// on the `go` line plus a justifying comment.
func runGoroutineLifecycle(p *pass) {
	decls := summarize(p.Module, func(_ *Package, fd *ast.FuncDecl) *ast.FuncDecl { return fd })
	p.funcs(func(pkg *Package, fd *ast.FuncDecl) {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			info := pkg.Info // of the package declaring the spawned body
			var body *ast.BlockStmt
			if lit, isLit := ast.Unparen(gs.Call.Fun).(*ast.FuncLit); isLit {
				body = lit.Body
			} else if callee := calleeFunc(pkg.Info, gs.Call); decls[callee] != nil {
				body = decls[callee].Body
				info = p.PackageOf(callee).Info
			}
			if body == nil {
				p.report(gs.Pos(), "go statement spawns a function whose body cannot be resolved; termination is untracked (add a WaitGroup/done channel, or //nolint:goroutine-lifecycle with a reason)")
				return true
			}
			verdict := analyzeGoroutine(info, body)
			switch {
			case verdict.cancellable || verdict.allPathsMarked:
				// tracked
			case verdict.hasMarker:
				for _, exit := range verdict.unmarkedExits {
					p.report(gs.Pos(), "goroutine signals termination via %s but the exit path at line %d returns without it (leaks on error paths; defer the marker)",
						verdict.markerDesc, p.line(exit))
				}
			default:
				p.report(gs.Pos(), "goroutine has no termination tracking: no WaitGroup.Done, no done-channel close/send, no cancellation receive (leaks if the peer never acts)")
			}
			return true
		})
	})
}

// goroutineVerdict summarizes one spawned body.
type goroutineVerdict struct {
	cancellable    bool        // receives/selects on an externally visible channel
	hasMarker      bool        // some join marker appears in the body
	allPathsMarked bool        // ... and every exit path reaches one (or it is deferred)
	markerDesc     string      // e.g. "WaitGroup.Done" — for the message
	unmarkedExits  []token.Pos // return statements that skip the marker
}

// analyzeGoroutine classifies body per the rules in the checker doc comment.
func analyzeGoroutine(info *types.Info, body *ast.BlockStmt) goroutineVerdict {
	var v goroutineVerdict

	// Pass 1: scan for cancellation receives and deferred markers. Nested
	// FuncLits are included only when deferred or invoked inline — a nested
	// `go` spawn is its own goroutine and does not track this one.
	var scan func(n ast.Node)
	scan = func(root ast.Node) {
		ast.Inspect(root, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				return false
			case *ast.FuncLit:
				// Walked only via the DeferStmt case below.
				return false
			case *ast.DeferStmt:
				if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
					scan(lit.Body)
					return false
				}
				if desc, ok := joinMarkerCall(info, n.Call); ok {
					v.hasMarker = true
					v.allPathsMarked = true
					if v.markerDesc == "" {
						v.markerDesc = desc
					}
				}
				return false
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					v.cancellable = true
				}
			case *ast.RangeStmt:
				if t, ok := info.Types[n.X]; ok {
					if _, isChan := t.Type.Underlying().(*types.Chan); isChan {
						v.cancellable = true
					}
				}
			case *ast.CommClause:
				if n.Comm != nil {
					v.cancellable = true
				}
			case *ast.CallExpr:
				if desc, ok := joinMarkerCall(info, n); ok {
					v.hasMarker = true
					if v.markerDesc == "" {
						v.markerDesc = desc
					}
				}
			case *ast.SendStmt:
				v.hasMarker = true
				if v.markerDesc == "" {
					v.markerDesc = "channel send"
				}
			}
			return true
		})
	}
	scan(body)

	if v.cancellable || v.allPathsMarked || !v.hasMarker {
		return v
	}

	// Pass 2: the marker is non-deferred — flow-check that every exit path
	// reaches one before returning. The state is "a marker has executed on
	// this path"; paths join by AND, and a send counts as a mark.
	f := flow[bool]{
		info: info,
		join: func(a, b bool) bool { return a && b },
		step: func(n ast.Node, marked bool) bool {
			switch n := n.(type) {
			case *ast.SendStmt:
				return true
			case *ast.CallExpr:
				if _, isMarker := joinMarkerCall(info, n); isMarker {
					return true
				}
			}
			return marked
		},
		exit: func(marked bool, pos token.Pos) {
			if !marked {
				v.unmarkedExits = append(v.unmarkedExits, pos)
			}
		},
	}
	f.run(body, false)
	v.allPathsMarked = len(v.unmarkedExits) == 0
	return v
}

// joinMarkerCall reports whether call is a join marker: WaitGroup.Done or
// close(ch).
func joinMarkerCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	if pkgPath, typeName, method, ok := methodOn(info, call); ok {
		if pkgPath == "sync" && typeName == "WaitGroup" && method == "Done" {
			return "WaitGroup.Done", true
		}
		return "", false
	}
	if isBuiltinCall(info, call, "close") {
		return "close(done channel)", true
	}
	return "", false
}
