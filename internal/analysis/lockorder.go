package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"slices"
	"sort"
	"strings"
)

// runLockOrder enforces two lock-discipline invariants over the module's
// sync.Mutex / sync.RWMutex usage (DESIGN.md §11):
//
//  1. Acquisition order: acquiring lock B while holding lock A records the
//     edge A→B in a global acquisition graph (edges also flow through calls,
//     using transitive per-function acquisition summaries). Any edge on a
//     cycle — two locks each acquired while the other is held, on any pair
//     of code paths — is reported: that order can deadlock under
//     concurrency even if each individual path is correct. Re-acquiring a
//     lock already held on the same path is reported directly (Go mutexes
//     are not reentrant); elements of a mutex array field (stripe locks)
//     are exempt from the self check, since distinct indices are distinct
//     locks.
//
//  2. No blocking operation while a lock is held: channel send/receive,
//     select without a default, range over a channel, net.Conn/Listener
//     I/O, (*sync.WaitGroup).Wait, latency.Spin, (*ssd.Pending).Wait,
//     and time.Sleep all park the goroutine for unbounded or device-scale
//     time; doing so with a mutex held turns a slow peer into a store-wide
//     stall.
//
// Lock identity is the mutex *field* (package.Type.field), resolved through
// the type checker, so every instance of a type shares one graph node; local
// and package-level mutexes participate only within their own function.
// The analysis is path-insensitive at joins (a lock held on either branch
// is considered held after the join) and treats a deferred Unlock as
// holding the lock to the end of the function — which is what it does.
//
// A same-line //nolint:lock-order comment suppresses a finding; every such
// escape is expected to justify itself in a comment (e.g. a write mutex
// whose whole purpose is serializing net.Conn writes under a deadline).
func runLockOrder(p *pass) {
	c := &lockChecker{pass: p, sums: lockSummaries(p.Module), edges: map[lockEdge]edgeSite{}}
	p.funcs(func(pkg *Package, fd *ast.FuncDecl) {
		(&lockWalker{c: c, info: pkg.Info}).walk(fd.Body)
	})
	c.reportCycles()
}

// lockRef is one resolved mutex: a struct field (shared graph node) or a
// function-local/package variable (per-object identity).
type lockRef struct {
	v       *types.Var
	name    string // "Server.mu" for fields, "mu" otherwise
	field   bool
	arrayed bool // element of a mutex array field (stripe locks)
}

// lockEdge is one acquired-while-holding pair of field locks.
type lockEdge struct{ from, to *types.Var }

type edgeSite struct {
	pos      token.Pos
	fromName string
	toName   string
}

type lockChecker struct {
	pass  *pass
	sums  map[*types.Func]*lockSummary
	edges map[lockEdge]edgeSite
}

// recordEdge notes "to acquired while from held" the first time it is seen.
func (c *lockChecker) recordEdge(from, to *lockRef, pos token.Pos) {
	if !from.field || !to.field || from.v == to.v {
		return
	}
	key := lockEdge{from.v, to.v}
	if _, seen := c.edges[key]; !seen {
		c.edges[key] = edgeSite{pos: pos, fromName: from.name, toName: to.name}
	}
}

// reportCycles reports every recorded edge that lies on an acquisition
// cycle, using Tarjan's strongly connected components over the edge graph.
func (c *lockChecker) reportCycles() {
	adj := map[*types.Var][]*types.Var{}
	for e := range c.edges {
		adj[e.from] = append(adj[e.from], e.to)
		if _, ok := adj[e.to]; !ok {
			adj[e.to] = nil
		}
	}
	// Tarjan SCC (iterative state kept simple: recursion depth is bounded by
	// the number of distinct mutex fields in the module).
	index := map[*types.Var]int{}
	low := map[*types.Var]int{}
	onStack := map[*types.Var]bool{}
	comp := map[*types.Var]int{}
	var stack []*types.Var
	next, ncomp := 0, 0
	var strong func(v *types.Var)
	strong = func(v *types.Var) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, wv := range adj[v] {
			if _, seen := index[wv]; !seen {
				strong(wv)
				low[v] = min(low[v], low[wv])
			} else if onStack[wv] && index[wv] < low[v] {
				low[v] = index[wv]
			}
		}
		if low[v] == index[v] {
			for {
				top := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[top] = false
				comp[top] = ncomp
				if top == v {
					break
				}
			}
			ncomp++
		}
	}
	vars := slices.Collect(maps.Keys(adj))
	sort.Slice(vars, func(i, j int) bool { return vars[i].Pos() < vars[j].Pos() })
	for _, v := range vars {
		if _, seen := index[v]; !seen {
			strong(v)
		}
	}

	// Each component's member names, for the message.
	members := map[int][]string{}
	for e, site := range c.edges {
		members[comp[e.from]] = append(members[comp[e.from]], site.fromName)
		members[comp[e.to]] = append(members[comp[e.to]], site.toName)
	}
	for e, site := range c.edges {
		if comp[e.from] != comp[e.to] {
			continue
		}
		cycle := slices.Clone(members[comp[e.from]])
		slices.Sort(cycle)
		c.pass.report(site.pos, "acquiring %s while holding %s is part of a lock-order cycle {%s}; pick one acquisition order (potential deadlock)",
			site.toName, site.fromName, strings.Join(slices.Compact(cycle), ", "))
	}
}

// ------------------------------------------------------------- summaries

// lockSummary records the field locks a function may acquire, transitively
// through module calls (fixpoint over the call graph).
type lockSummary struct {
	acquires map[*types.Var]*lockRef
	callees  []*types.Func
}

func lockSummaries(m *Module) map[*types.Func]*lockSummary {
	sums := summarize(m, func(pkg *Package, fd *ast.FuncDecl) *lockSummary {
		s := &lockSummary{acquires: map[*types.Var]*lockRef{}}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if _, isGo := n.(*ast.GoStmt); isGo {
				return false // a spawned goroutine's locks are its own
			}
			call, isCall := n.(*ast.CallExpr)
			if !isCall {
				return true
			}
			if recv, acquire, ok := mutexMethod(pkg.Info, call); ok {
				if ref := resolveLock(pkg.Info, recv); acquire && ref != nil && ref.field {
					s.acquires[ref.v] = ref
				}
			} else if callee := calleeFunc(pkg.Info, call); callee != nil && m.PackageOf(callee) != nil {
				s.callees = append(s.callees, callee)
			}
			return true
		})
		return s
	})
	// Transitive closure: a caller may acquire whatever its callees acquire.
	for changed := true; changed; {
		changed = false
		for _, s := range sums {
			for _, callee := range s.callees {
				cs, ok := sums[callee]
				if !ok {
					continue
				}
				for v, ref := range cs.acquires {
					if _, have := s.acquires[v]; !have {
						s.acquires[v] = ref
						changed = true
					}
				}
			}
		}
	}
	return sums
}

// ---------------------------------------------------------------- walker

// lockWalker is lock-order's transfer function over flow[[]*lockRef]: the
// state is the set of locks held on the path, in acquisition order, and the
// join is their union (a lock held on either branch is conservatively held
// after it).
type lockWalker struct {
	c    *lockChecker
	info *types.Info
}

// walk runs one function body — or one function literal: a goroutine or
// stored callback starts without its creator's locks — from the empty set.
func (w *lockWalker) walk(body *ast.BlockStmt) {
	f := flow[[]*lockRef]{
		info: w.info, join: joinHeld, step: w.step,
		lit: func(l *ast.FuncLit) { w.walk(l.Body) },
		parks: func(s ast.Stmt, held []*lockRef) {
			if sel, ok := s.(*ast.SelectStmt); ok {
				w.blockOp(held, sel.Select, "select without default")
			} else {
				w.blockOp(held, s.Pos(), "range over channel")
			}
		},
		// The select-level check accounts for the comm ops: under a default
		// they do not block, without one the select as a whole does.
		comm: func(_ *ast.CommClause, held []*lockRef) []*lockRef { return held },
	}
	f.run(body, nil)
}

// blockOp reports a blocking operation reached with locks held.
func (w *lockWalker) blockOp(held []*lockRef, pos token.Pos, what string) {
	if len(held) == 0 {
		return
	}
	names := make([]string, len(held))
	for i, h := range held {
		names[i] = h.name
	}
	w.c.pass.report(pos, "%s while holding %s (lock held across blocking operation)", what, strings.Join(names, ", "))
}

// step folds one send, receive or call into the held set, recording
// acquisition edges and reporting blocking operations.
func (w *lockWalker) step(n ast.Node, held []*lockRef) []*lockRef {
	switch n := n.(type) {
	case *ast.SendStmt:
		w.blockOp(held, n.Arrow, "channel send")
	case *ast.UnaryExpr:
		if n.Op == token.ARROW {
			w.blockOp(held, n.Pos(), "channel receive")
		}
	case *ast.CallExpr:
		if recv, acquire, ok := mutexMethod(w.info, n); ok {
			ref := resolveLock(w.info, recv)
			switch {
			case ref == nil:
			case acquire:
				return w.acquire(held, ref, n.Pos())
			default:
				return slices.DeleteFunc(slices.Clone(held), func(h *lockRef) bool { return h.v == ref.v })
			}
		} else if what, blocking := blockingCall(w.info, n); blocking {
			w.blockOp(held, n.Pos(), what)
		} else if s := w.c.sums[calleeFunc(w.info, n)]; s != nil && len(held) > 0 {
			for _, ref := range sortedAcquires(s.acquires) {
				for _, h := range held {
					w.c.recordEdge(h, ref, n.Pos())
				}
			}
		}
	}
	return held
}

// acquire folds one Lock/RLock into the held set, recording edges and the
// non-reentrancy self check.
func (w *lockWalker) acquire(held []*lockRef, ref *lockRef, pos token.Pos) []*lockRef {
	for _, h := range held {
		if h.v == ref.v && !ref.arrayed {
			w.c.pass.report(pos, "%s acquired while already held on this path (Go mutexes are not reentrant: self-deadlock)", ref.name)
		}
		w.c.recordEdge(h, ref, pos)
	}
	return append(slices.Clone(held), ref)
}

// sortedAcquires returns the refs in deterministic (declaration) order.
func sortedAcquires(m map[*types.Var]*lockRef) []*lockRef {
	refs := slices.Collect(maps.Values(m))
	sort.Slice(refs, func(i, j int) bool { return refs[i].v.Pos() < refs[j].v.Pos() })
	return refs
}

// joinHeld unions two branch outcomes.
func joinHeld(a, b []*lockRef) []*lockRef {
	out := slices.Clone(a)
	for _, h := range b {
		if !slices.ContainsFunc(a, func(g *lockRef) bool { return g.v == h.v }) {
			out = append(out, h)
		}
	}
	return out
}

// ------------------------------------------------------------ resolution

// mutexMethod reports whether call invokes a locking method of sync.Mutex /
// sync.RWMutex, returning the receiver expression and whether the method
// acquires (Lock, RLock, TryLock, TryRLock) or releases (Unlock, RUnlock).
func mutexMethod(info *types.Info, call *ast.CallExpr) (recv ast.Expr, acquire, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return nil, false, false
	}
	s, found := info.Selections[sel]
	if !found || s.Kind() != types.MethodVal {
		return nil, false, false
	}
	fn, isFn := s.Obj().(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil, false, false
	}
	recvT := s.Recv()
	if p, isPtr := recvT.(*types.Pointer); isPtr {
		recvT = p.Elem()
	}
	named, isNamed := recvT.(*types.Named)
	if !isNamed {
		return nil, false, false
	}
	if n := named.Obj().Name(); n != "Mutex" && n != "RWMutex" {
		return nil, false, false
	}
	switch fn.Name() {
	case "Lock", "RLock", "TryLock", "TryRLock":
		return sel.X, true, true
	case "Unlock", "RUnlock":
		return sel.X, false, true
	}
	return nil, false, false
}

// resolveLock resolves a mutex receiver expression to its identity, or nil
// for mutexes reached through calls, maps, or other opaque paths.
func resolveLock(info *types.Info, e ast.Expr) *lockRef {
	arrayed := false
peel:
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return nil
			}
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			arrayed = true
			e = x.X
		default:
			break peel
		}
	}
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if v, ok := info.Uses[x].(*types.Var); ok {
			return &lockRef{v: v, name: v.Name(), field: v.IsField(), arrayed: arrayed}
		}
	case *ast.SelectorExpr:
		if s, ok := info.Selections[x]; ok && s.Kind() == types.FieldVal {
			v, isVar := s.Obj().(*types.Var)
			if !isVar {
				return nil
			}
			recvT := s.Recv()
			if p, isPtr := recvT.(*types.Pointer); isPtr {
				recvT = p.Elem()
			}
			name := v.Name()
			if named, isNamed := recvT.(*types.Named); isNamed {
				name = named.Obj().Name() + "." + name
			}
			if _, isArr := v.Type().Underlying().(*types.Array); isArr {
				arrayed = true
			}
			return &lockRef{v: v, name: name, field: true, arrayed: arrayed}
		}
		// Package-qualified variable, e.g. pkg.mu.
		if v, ok := info.Uses[x.Sel].(*types.Var); ok {
			return &lockRef{v: v, name: v.Name(), arrayed: arrayed}
		}
	}
	return nil
}

// blockingCall classifies direct calls that park the goroutine.
func blockingCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	if pkgPath, typeName, method, ok := methodOn(info, call); ok {
		if pkgPath == "sync" && typeName == "WaitGroup" && method == "Wait" {
			return "sync.WaitGroup.Wait", true
		}
		if strings.HasSuffix(pkgPath, "internal/ssd") && typeName == "Pending" && method == "Wait" {
			return "ssd.Pending.Wait", true
		}
		// (*sync.Cond).Wait is deliberately NOT here: it atomically releases
		// its locker while parked, so waiting under the cond's own mutex is
		// the required usage, not a stall.
		if pkgPath == "net" {
			switch method {
			case "Read", "Write", "ReadFrom", "WriteTo", "Accept":
				return "net." + typeName + "." + method, true
			}
		}
		return "", false
	}
	if fn := calleeFunc(info, call); fn != nil && fn.Pkg() != nil {
		switch fn.Pkg().Path() {
		case "time":
			if fn.Name() == "Sleep" {
				return "time.Sleep", true
			}
		default:
			if strings.HasSuffix(fn.Pkg().Path(), "internal/latency") && fn.Name() == "Spin" {
				return "latency.Spin", true
			}
		}
	}
	return "", false
}
