package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
)

// runChannelDiscipline enforces channel ownership rules (DESIGN.md §11):
//
//  1. Close only by the owning side. A function may close a channel it
//     owns: a local it (or an enclosing function, for closures) created or
//     declared, a field of its own receiver type, or a parameter typed
//     send-only (`chan<- T` — the signature documents the transfer of
//     ownership). Closing a bidirectional channel parameter or another
//     type's field is reported: the closer cannot know the real owner has
//     stopped sending, and a send on a closed channel panics the process.
//
//  2. No send or close after a reachable close of the same channel on the
//     same path. Send-after-close is a guaranteed panic; double close is
//     too. The walk is intra-procedural and path-approximate: branches
//     join by union (closed on either side counts as closed), and
//     re-making the channel clears the state.
//
// The companion rule — no blocking send while holding a lock — is owned by
// the lock-order checker, which tracks the held-lock set.
// Suppress with //nolint:channel-discipline on the offending line.
func runChannelDiscipline(p *pass) {
	p.funcs(func(pkg *Package, fd *ast.FuncDecl) {
		c := &chanChecker{pass: p, pkg: pkg, ownRecv: receiverTypeName(pkg, fd),
			locals: map[*types.Var]bool{}, params: map[*types.Var]bool{}}
		// Every variable declared anywhere inside the function — parameters and
		// locals, including inside closures: a closure closing its enclosing
		// function's local is still the owning side.
		ast.Inspect(fd, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if v, isVar := pkg.Info.Defs[n].(*types.Var); isVar {
					c.locals[v] = true
				}
			case *ast.FuncType:
				for _, field := range n.Params.List {
					for _, name := range field.Names {
						if v, ok := pkg.Info.Defs[name].(*types.Var); ok {
							c.params[v] = true
						}
					}
				}
			}
			return true
		})
		// Rule 1: ownership of every close site.
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && isBuiltinCall(pkg.Info, call, "close") && len(call.Args) == 1 {
				c.checkCloseOwnership(call)
			}
			return true
		})
		// Rule 2: use-after-close, per path.
		c.walk(fd.Body)
	})
}

// receiverTypeName returns the named receiver type of a method, or nil.
func receiverTypeName(pkg *Package, fd *ast.FuncDecl) *types.TypeName {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return nil
	}
	t := pkg.Info.TypeOf(fd.Recv.List[0].Type)
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj()
	}
	return nil
}

// chanChecker is channel-discipline's transfer function over
// flow[closedSet] for one function declaration and the literals inside it.
type chanChecker struct {
	pass    *pass
	pkg     *Package
	ownRecv *types.TypeName
	locals  map[*types.Var]bool // declared in this function (incl. closures)
	params  map[*types.Var]bool // ... as a parameter of it or of a closure
}

// closedSet maps each channel closed on the path to its close site.
type closedSet map[*types.Var]token.Pos

// walk runs rule 2 over one body from the empty set; a function literal is a
// path of its own. Branches join by union, and what a loop, switch or select
// closed stays inside it: channel identity is the variable or *field*, so
// closing s.ch for each s of a loop is not a double close.
func (c *chanChecker) walk(body *ast.BlockStmt) {
	f := flow[closedSet]{
		info: c.pkg.Info, step: c.step,
		join: func(a, b closedSet) closedSet {
			out := maps.Clone(b)
			maps.Copy(out, a)
			return out
		},
		lit:   func(l *ast.FuncLit) { c.walk(l.Body) },
		leave: func(entry, _ closedSet) closedSet { return entry },
	}
	f.run(body, closedSet{})
}

// step checks one send or close against the path's closed set; reassigning a
// channel variable clears its closed state.
func (c *chanChecker) step(n ast.Node, closed closedSet) closedSet {
	switch n := n.(type) {
	case *ast.SendStmt:
		if v := c.chanVar(n.Chan); v != nil {
			if pos, isClosed := closed[v]; isClosed {
				c.pass.report(n.Arrow, "send on %s after close at line %d (send on closed channel panics)", v.Name(), c.pass.line(pos))
			}
		}
	case *ast.AssignStmt:
		for _, lhs := range n.Lhs {
			if v := c.chanVar(lhs); v != nil {
				if _, isClosed := closed[v]; isClosed {
					closed = maps.Clone(closed)
					delete(closed, v)
				}
			}
		}
	case *ast.CallExpr:
		if !isBuiltinCall(c.pkg.Info, n, "close") || len(n.Args) != 1 {
			break
		}
		v := c.chanVar(n.Args[0])
		if v == nil {
			break
		}
		if pos, already := closed[v]; already {
			c.pass.report(n.Pos(), "second close of %s on this path (first close at line %d; close panics on closed channels)", v.Name(), c.pass.line(pos))
		} else {
			closed = maps.Clone(closed)
			closed[v] = n.Pos()
		}
	}
	return closed
}

// chanVar resolves e to the channel variable it names: a plain local/param
// ident, or a field selector on the receiver/any struct.
func (c *chanChecker) chanVar(e ast.Expr) *types.Var {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if v, ok := c.pkg.Info.Uses[x].(*types.Var); ok {
			return v
		}
		if v, ok := c.pkg.Info.Defs[x].(*types.Var); ok {
			return v
		}
	case *ast.SelectorExpr:
		if s, ok := c.pkg.Info.Selections[x]; ok && s.Kind() == types.FieldVal {
			if v, isVar := s.Obj().(*types.Var); isVar {
				return v
			}
		}
		if v, ok := c.pkg.Info.Uses[x.Sel].(*types.Var); ok {
			return v
		}
	}
	return nil
}

func (c *chanChecker) checkCloseOwnership(call *ast.CallExpr) {
	switch x := ast.Unparen(call.Args[0]).(type) {
	case *ast.Ident:
		v, ok := c.pkg.Info.Uses[x].(*types.Var)
		if !ok {
			return
		}
		if c.locals[v] && !c.params[v] {
			return // closing our own local: fine
		}
		// Parameter: allowed only if declared send-only.
		if ch, isChan := v.Type().Underlying().(*types.Chan); isChan {
			if ch.Dir() == types.SendOnly {
				return
			}
		}
		if c.locals[v] {
			c.pass.report(call.Pos(), "close of bidirectional channel parameter %s (ownership unclear; accept `chan<- T` to document that the callee closes it, or close at the creator)", v.Name())
			return
		}
		// Package-level or captured-from-elsewhere variable.
		if v.Pkg() != nil && v.Pkg().Path() == c.pkg.Path {
			return // package-level channel in the same package: owner by construction
		}
		c.pass.report(call.Pos(), "close of channel %s not owned by this function", v.Name())
	case *ast.SelectorExpr:
		s, ok := c.pkg.Info.Selections[x]
		if !ok || s.Kind() != types.FieldVal {
			return
		}
		recvT := s.Recv()
		if p, isPtr := recvT.(*types.Pointer); isPtr {
			recvT = p.Elem()
		}
		named, isNamed := recvT.(*types.Named)
		if !isNamed {
			return
		}
		// Closing a field of the method's own receiver type is ownership;
		// closing another type's channel field is not.
		if c.ownRecv != nil && named.Obj() == c.ownRecv {
			return
		}
		// Same-package type: the type's owner lives here; allow only when the
		// value was constructed locally (conservatively: same package).
		if named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == c.pkg.Path {
			// A function in the declaring package may own instances it made;
			// restrict to composite-literal locals is too brittle — allow.
			return
		}
		c.pass.report(call.Pos(), "close of %s.%s from outside its declaring package (only the owning side closes)", named.Obj().Name(), s.Obj().Name())
	}
}
