package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// flow is the one abstract interpreter the flow-sensitive checkers share
// (persist-order, lock-order, channel-discipline, goroutine-lifecycle). It
// threads a checker's state S through a function body in evaluation order:
// it forks at if/switch/type switch/select/for/range, joins the paths that
// stay live, and ends a path at return, a call of the builtin panic, break
// and continue. A checker is a state type, a join and a step function; the
// optional hooks are the places one checker departs from the rest on
// purpose.
//
// Three approximations hold for every checker by construction. A loop body
// runs zero times or once (no fixpoint): what leaves a loop is the join of
// its entry, the end of its body and its breaks. Each arm of a switch starts
// from the switch's entry state plus its own case expressions. goto and
// fallthrough are not modelled (the tree has neither): the path carries on
// past them. Every statement is visited at most once per run.
//
// join and step must treat S as a value: one state is handed to both arms
// of a branch, so a step that changes a map or slice copies it first.
type flow[S any] struct {
	info *types.Info
	join func(a, b S) S // merge two live paths
	// step folds one node into the state. It sees every node of every
	// expression and simple statement, each before its operands (ast.Inspect
	// order), except function literals and what is nested in them.
	step func(n ast.Node, s S) S

	// exit sees the state a path leaves the function with: at a return, after
	// its results, and at the closing brace when the end of the body is live.
	exit func(s S, pos token.Pos)
	// lit is handed each function literal step does not see; nil skips them.
	lit func(l *ast.FuncLit)
	// parks sees a statement that blocks the goroutine as a whole: a select
	// without default, a range over a channel.
	parks func(s ast.Stmt, st S)
	// comm replaces the walk of a select arm's communication statement.
	comm func(c *ast.CommClause, s S) S
	// leave rewrites what a loop, switch or select leaves behind, given the
	// state it was entered with; nil keeps the engine's join.
	leave func(entry, out S) S

	frames []*frame[S] // enclosing loops, switches and selects, innermost last
	label  string      // label on the statement about to be entered
}

// path is a state, or the absence of one: no execution gets here.
type path[S any] struct {
	s    S
	live bool
}

// frame collects the paths that jump out of one loop, switch or select.
type frame[S any] struct {
	label     string
	loop      bool
	brk, cont path[S]
}

func (f *flow[S]) merge(a, b path[S]) path[S] {
	switch {
	case !a.live:
		return b
	case !b.live:
		return a
	}
	return path[S]{f.join(a.s, b.s), true}
}

// run walks one function body from the state init.
func (f *flow[S]) run(body *ast.BlockStmt, init S) {
	if out := f.list(body.List, path[S]{init, true}); out.live && f.exit != nil {
		f.exit(out.s, body.Rbrace)
	}
}

func (f *flow[S]) list(list []ast.Stmt, p path[S]) path[S] {
	for _, s := range list {
		p = f.stmt(s, p)
	}
	return p
}

// fold runs step over one expression or simple statement.
func (f *flow[S]) fold(n ast.Node, s S) S {
	if n == nil {
		return s
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case nil:
			return false
		case *ast.FuncLit:
			if f.lit != nil {
				f.lit(n)
			}
			return false
		}
		s = f.step(n, s)
		return true
	})
	return s
}

func (f *flow[S]) stmt(s ast.Stmt, p path[S]) path[S] {
	if s == nil || !p.live {
		return p
	}
	label := f.label
	f.label = ""
	switch s := s.(type) {
	case *ast.BlockStmt:
		return f.list(s.List, p)
	case *ast.LabeledStmt:
		f.label = s.Label.Name
		return f.stmt(s.Stmt, p)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			p.s = f.fold(r, p.s)
		}
		if f.exit != nil {
			f.exit(p.s, s.Pos())
		}
		return path[S]{}
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok && isBuiltinCall(f.info, call, "panic") {
			// A panicking path leaves no state behind: it is not an exit.
			return path[S]{}
		}
	case *ast.BranchStmt:
		if s.Tok == token.BREAK || s.Tok == token.CONTINUE {
			f.jump(s, p)
			return path[S]{}
		}
		return p
	case *ast.DeferStmt:
		p.s = f.detached(s.Call, p.s)
		return p
	case *ast.GoStmt:
		p.s = f.detached(s.Call, p.s)
		return p
	case *ast.IfStmt:
		p = f.stmt(s.Init, p)
		p.s = f.fold(s.Cond, p.s)
		return f.merge(f.list(s.Body.List, p), f.stmt(s.Else, p))
	case *ast.ForStmt:
		p = f.stmt(s.Init, p)
		p.s = f.fold(s.Cond, p.s)
		return f.loop(label, s.Body, s.Post, p)
	case *ast.RangeStmt:
		p.s = f.fold(s.X, p.s)
		if t := f.info.TypeOf(s.X); t != nil && f.parks != nil {
			if _, isChan := t.Underlying().(*types.Chan); isChan {
				f.parks(s, p.s)
			}
		}
		return f.loop(label, s.Body, nil, p)
	case *ast.SwitchStmt:
		p = f.stmt(s.Init, p)
		p.s = f.fold(s.Tag, p.s)
		return f.arms(label, s, s.Body.List, p)
	case *ast.TypeSwitchStmt:
		p = f.stmt(s.Assign, f.stmt(s.Init, p))
		return f.arms(label, s, s.Body.List, p)
	case *ast.SelectStmt:
		return f.arms(label, s, s.Body.List, p)
	}
	p.s = f.fold(s, p.s)
	return p
}

// detached evaluates the operands of a deferred or spawned call on this
// path; the call itself runs off it. So a deferred Unlock releases nothing
// here, and a literal callee goes to the lit hook like any other.
func (f *flow[S]) detached(call *ast.CallExpr, s S) S {
	s = f.fold(call.Fun, s)
	for _, a := range call.Args {
		s = f.fold(a, s)
	}
	return s
}

// jump hands a break's or continue's state to the frame it targets.
func (f *flow[S]) jump(s *ast.BranchStmt, p path[S]) {
	for i := len(f.frames) - 1; i >= 0; i-- {
		fr := f.frames[i]
		switch {
		case s.Label != nil && s.Label.Name != fr.label:
		case s.Tok == token.BREAK:
			fr.brk = f.merge(fr.brk, p)
			return
		case fr.loop:
			fr.cont = f.merge(fr.cont, p)
			return
		}
	}
}

func (f *flow[S]) push(label string, loop bool) *frame[S] {
	fr := &frame[S]{label: label, loop: loop}
	f.frames = append(f.frames, fr)
	return fr
}

// left closes the innermost frame and applies the leave hook.
func (f *flow[S]) left(entry, out path[S]) path[S] {
	f.frames = f.frames[:len(f.frames)-1]
	if out.live && f.leave != nil {
		out.s = f.leave(entry.s, out.s)
	}
	return out
}

func (f *flow[S]) loop(label string, body *ast.BlockStmt, post ast.Stmt, entry path[S]) path[S] {
	fr := f.push(label, true)
	once := f.list(body.List, entry)
	once = f.stmt(post, f.merge(once, fr.cont))
	return f.left(entry, f.merge(f.merge(entry, once), fr.brk))
}

// arms walks the clauses of a switch, type switch or select. A switch
// without a default may take no arm, so its entry state joins too; a select
// always takes one.
func (f *flow[S]) arms(label string, sw ast.Stmt, clauses []ast.Stmt, entry path[S]) path[S] {
	fr := f.push(label, false)
	var out path[S]
	hasDefault := false
	for _, c := range clauses {
		p := entry
		var body []ast.Stmt
		switch c := c.(type) {
		case *ast.CaseClause:
			for _, e := range c.List {
				p.s = f.fold(e, p.s)
			}
			hasDefault = hasDefault || c.List == nil
			body = c.Body
		case *ast.CommClause:
			switch {
			case c.Comm == nil:
				hasDefault = true
			case f.comm != nil:
				p.s = f.comm(c, p.s)
			default:
				p = f.stmt(c.Comm, p)
			}
			body = c.Body
		}
		out = f.merge(out, f.list(body, p))
	}
	out = f.merge(out, fr.brk)
	if _, isSelect := sw.(*ast.SelectStmt); !isSelect {
		if !hasDefault {
			out = f.merge(out, entry)
		}
	} else if !hasDefault && f.parks != nil {
		f.parks(sw, entry.s)
	}
	return f.left(entry, out)
}

// isBuiltinCall reports whether call invokes the predeclared function name
// (not a local or package-level function that shadows it).
func isBuiltinCall(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, isBuiltin := info.Uses[id].(*types.Builtin)
	return isBuiltin
}
