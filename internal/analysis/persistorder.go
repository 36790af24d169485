package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// runPersistOrder enforces the x86 PMEM persistence-ordering contract
// (paper §3.4): every durable write — a write primitive on a concrete
// *pmem.Device or on a *space.PMEM log window, whose Arena methods are
// promoted and keyed by the receiver expression — must be flushed (clwb) and
// fenced (sfence) on every return path, and in particular before any WAL
// commit/abort or root publish that makes the write's effects observable
// after a crash.
//
// The abstract state per control-flow path is {dirty, staged}: dirty lines
// have been written but not flushed; staged lines were flushed but the fence
// has not yet retired them. Flush is treated range-insensitively (a Flush
// clears all dirty state), which keeps the checker optimistic: it catches
// the forgotten-flush and forgotten-fence classes without false-flagging
// code that flushes its writes piecewise.
//
// Interprocedural reasoning is one level deep via per-function summaries of
// direct effects: a call to a function that writes and does not end clean
// dirties the caller; a call to a function that flushes and fences acts as a
// Persist. Writes through a *space.Arena are invisible by design (Arena.Write
// and Arena.Zero are //dstore:volatile): arena structures are volatile until
// the checkpoint's flush, so only device and log-window writes participate in
// the ordering contract.
//
// Functions annotated //dstore:volatile opt out (their writes are volatile
// by design; recovery tolerates their loss).
func runPersistOrder(p *pass) {
	// Direct-effect summaries of every function in the module. Calls to other
	// module functions are ignored while summarizing (summaries are one level
	// deep); //dstore:volatile functions summarize as effect-free so callers
	// do not inherit their intentionally-unfenced writes.
	sums := summarize(p.Module, func(pkg *Package, fd *ast.FuncDecl) summary {
		if hasAnnotation(fd, "volatile") {
			return summary{endsClean: true}
		}
		w := &pwalker{info: pkg.Info, sum: summary{endsClean: true}}
		w.walk(fd.Body)
		return w.sum
	})
	p.funcs(func(pkg *Package, fd *ast.FuncDecl) {
		if !hasAnnotation(fd, "volatile") {
			(&pwalker{pass: p, info: pkg.Info, summaries: sums}).walk(fd.Body)
		}
	})
}

// pstate is the abstract persistence state along one control-flow path.
type pstate struct {
	dirty  bool // written, not flushed
	staged bool // flushed, fence not yet issued
}

func (s pstate) clean() bool { return !s.dirty && !s.staged }

func joinState(a, b pstate) pstate {
	return pstate{a.dirty || b.dirty, a.staged || b.staged}
}

// summary records a function's direct persistence effects.
type summary struct {
	writes    bool // performs a concrete persistent write
	flushes   bool // issues a Flush or Persist
	fences    bool // issues a Fence or Persist
	endsClean bool // every return path ends with dirty == staged == false
}

// event classification for one call expression.
type event int

const (
	evNone event = iota
	evWrite
	evFlush
	evFence
	evPersist
	evCommit
)

// persistPrimitives classifies methods of the two concrete persistent-space
// types. Reads, range checks, and accessors are evNone.
var persistPrimitives = map[[3]string]event{
	{"dstore/internal/pmem", "Device", "WriteAt"}: evWrite,
	{"dstore/internal/pmem", "Device", "PutU64"}:  evWrite,
	{"dstore/internal/pmem", "Device", "PutU8"}:   evWrite,
	{"dstore/internal/pmem", "Device", "Flush"}:   evFlush,
	{"dstore/internal/pmem", "Device", "Fence"}:   evFence,
	{"dstore/internal/pmem", "Device", "Persist"}: evPersist,
	{"dstore/internal/space", "PMEM", "Write"}:    evWrite,
	{"dstore/internal/space", "PMEM", "Zero"}:     evWrite,
	{"dstore/internal/space", "PMEM", "PutU64"}:   evWrite,
	{"dstore/internal/space", "PMEM", "PutU32"}:   evWrite,
	{"dstore/internal/space", "PMEM", "PutU16"}:   evWrite,
	{"dstore/internal/space", "PMEM", "PutU8"}:    evWrite,
	{"dstore/internal/space", "PMEM", "Flush"}:    evFlush,
	{"dstore/internal/space", "PMEM", "Fence"}:    evFence,
	{"dstore/internal/space", "PMEM", "Persist"}:  evPersist,
}

// commitPoints are the calls that make logged state crash-observable: the
// WAL record-state publish and the DIPPER root flip. Reaching one with
// un-fenced writes means a crash could expose the commit without the data.
var commitPoints = map[[3]string]bool{
	{"dstore/internal/wal", "Pair", "Commit"}:           true,
	{"dstore/internal/wal", "Pair", "Abort"}:            true,
	{"dstore/internal/dipper", "Engine", "Commit"}:      true,
	{"dstore/internal/dipper", "Engine", "Abort"}:       true,
	{"dstore/internal/dipper", "Engine", "publishRoot"}: true,
}

func classifyCall(info *types.Info, call *ast.CallExpr) (event, bool) {
	pkgPath, typeName, method, ok := methodOn(info, call)
	if !ok {
		return evNone, false
	}
	key := [3]string{pkgPath, typeName, method}
	if commitPoints[key] {
		return evCommit, true
	}
	if ev, found := persistPrimitives[key]; found {
		return ev, true
	}
	return evNone, false
}

// pwalker is persist-order's transfer function over flow[pstate]. With a pass
// it reports findings; without one it only records the function's direct
// effects for its summary.
type pwalker struct {
	pass      *pass // nil while summarizing
	info      *types.Info
	summaries map[*types.Func]summary // nil while summarizing
	sum       summary                 // the walked function's own direct effects
}

func (w *pwalker) walk(body *ast.BlockStmt) {
	f := flow[pstate]{info: w.info, join: joinState, step: w.step, exit: w.exit}
	f.run(body, pstate{})
}

// what names an unclean state in a message.
func (s pstate) what() string {
	if s.dirty {
		return "unflushed"
	}
	return "flushed but not fenced"
}

// exit handles a return path reaching pos with state st. (A panicking path
// is not one: it crashes the process and recovery replays the log, so
// unfenced state on it is not a persistence-ordering violation.)
func (w *pwalker) exit(st pstate, pos token.Pos) {
	if st.clean() {
		return
	}
	w.sum.endsClean = false
	if w.pass != nil {
		w.pass.report(pos, "returns with %s persistent writes (flush+fence before returning, or annotate //dstore:volatile)", st.what())
	}
}

// step folds one call — a persistence primitive, a commit point, or a
// summarized module function — into the state.
func (w *pwalker) step(n ast.Node, st pstate) pstate {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return st
	}
	ev, ok := classifyCall(w.info, call)
	if !ok {
		if callee := calleeFunc(w.info, call); callee != nil {
			if s, ok := w.summaries[callee]; ok {
				return applyCallee(st, s)
			}
		}
		return st
	}
	switch ev {
	case evWrite:
		w.sum.writes = true
		st.dirty = true
	case evFlush:
		w.sum.flushes = true
		if st.dirty {
			st.dirty = false
			st.staged = true
		}
	case evFence:
		w.sum.fences = true
		st.staged = false
	case evPersist:
		w.sum.flushes, w.sum.fences = true, true
		st.dirty, st.staged = false, false
	case evCommit:
		if w.pass != nil && !st.clean() {
			w.pass.report(call.Pos(), "commit/publish reached with %s persistent writes (issue Flush+Fence or Persist first)", st.what())
			// Reset so one missing fence is reported once, not cascaded.
			st = pstate{}
		}
	}
	return st
}

// applyCallee folds a summarized module-function call into the state.
func applyCallee(st pstate, s summary) pstate {
	if s.writes && !s.endsClean {
		st.dirty = true
		return st
	}
	if s.flushes && st.dirty {
		st.dirty = false
		st.staged = true
	}
	if s.fences {
		st.staged = false
	}
	return st
}
