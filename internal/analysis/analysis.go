package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one reported violation.
type Finding struct {
	File    string `json:"file"` // module-root-relative, slash-separated
	Line    int    `json:"line"`
	Checker string `json:"checker"`
	Message string `json:"message"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.File, f.Line, f.Checker, f.Message)
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Checker != b.Checker {
			return a.Checker < b.Checker
		}
		return a.Message < b.Message
	})
}

// Crash-path packages: code that runs during recovery or checkpoint replay
// and therefore must behave identically across runs (paper §3.6: recovery
// re-executes the logged operations; any wall-clock or seedless-random input
// would make the replayed state diverge from the pre-crash state).
var crashPathPkgs = map[string]bool{
	"dstore/internal/wal":    true,
	"dstore/internal/dipper": true,
	"dstore/internal/alloc":  true,
	"dstore/internal/space":  true,
	"dstore/internal/meta":   true,
	"dstore/internal/pool":   true,
	"dstore/internal/btree":  true,
	"dstore/internal/pmem":   true,
}

// Device packages whose error results must never be discarded: they surface
// injected device faults, media corruption, and log-full conditions.
var devicePkgs = map[string]bool{
	"dstore/internal/pmem":   true,
	"dstore/internal/ssd":    true,
	"dstore/internal/wal":    true,
	"dstore/internal/dipper": true,
	"dstore/internal/space":  true,
	"dstore/internal/fault":  true,
	"dstore/internal/pool":   true,
	"dstore/internal/alloc":  true,
	"dstore/internal/meta":   true,
	"dstore/internal/btree":  true,
}

// Library packages whose goroutines must have tracked lifecycles: the
// concurrent network/replication surface, where a leaked goroutine pins a
// connection, a subscriber slot, or a shard for the life of the process.
var goroutinePkgs = map[string]bool{
	"dstore":                  true, // shard.go, failover.go, repl.go
	"dstore/internal/server":  true,
	"dstore/internal/replica": true,
	"dstore/internal/client":  true,
}

// checker is one row of the table Run walks: adding a checker is one row
// here, one run function and one golden package.
type checker struct {
	name   string
	nolint string              // the //nolint:<name> that suppresses a finding on its line; "" = no line-level escape
	target func(*Package) bool // default package targeting; nil = every package
	run    func(*pass)
}

var checkers = []checker{
	// pmem and space implement the persistence primitives themselves; the
	// ordering contract applies to their callers.
	{"persist-order", "", func(p *Package) bool {
		return p.Path != "dstore/internal/pmem" && p.Path != "dstore/internal/space"
	}, runPersistOrder},
	{"errcheck-devices", "errcheck", nil, runErrcheck},
	{"no-panic-in-library", "", func(p *Package) bool { return p.Pkg.Name() != "main" }, runNoPanic},
	{"guarded-by", "", nil, runGuardedBy},
	{"no-wallclock-in-crashpath", "", func(p *Package) bool { return crashPathPkgs[p.Path] }, runWallclock},
	{"lock-order", "lock-order", nil, runLockOrder},
	{"goroutine-lifecycle", "goroutine-lifecycle", func(p *Package) bool { return goroutinePkgs[p.Path] }, runGoroutineLifecycle},
	{"channel-discipline", "channel-discipline", nil, runChannelDiscipline},
	{"wire-symmetry", "wire-symmetry", func(p *Package) bool { return p.Path == "dstore/internal/wire" }, runWireSymmetry},
}

// Run executes every checker with its default package targeting (golden
// packages under testdata excluded) and returns the merged, sorted findings.
func Run(m *Module) []Finding {
	var fs []Finding
	for _, c := range checkers {
		fs = append(fs, c.check(m, func(p *Package) bool {
			return !strings.Contains(p.Path, "/testdata/") && (c.target == nil || c.target(p))
		})...)
	}
	sortFindings(fs)
	return fs
}

// check runs one checker over the packages target selects.
func (c checker) check(m *Module, target func(*Package) bool) []Finding {
	p := &pass{Module: m, checker: c}
	for _, pkg := range m.Pkgs {
		if target(pkg) {
			p.pkgs = append(p.pkgs, pkg)
		}
	}
	c.run(p)
	return p.findings
}

// pass is one checker's run: the packages it checks and the one way a
// finding is made.
type pass struct {
	*Module
	checker
	pkgs     []*Package
	findings []Finding
}

// report records a finding at pos unless a //nolint for this checker sits on
// that line.
func (p *pass) report(pos token.Pos, format string, args ...any) {
	file, line := p.Rel(pos)
	if p.nolint != "" && nolintLines(p.Fset, p.files[p.Fset.File(pos)], p.nolint)[line] {
		return
	}
	p.findings = append(p.findings, Finding{
		File: file, Line: line,
		Checker: p.name,
		Message: fmt.Sprintf(format, args...),
	})
}

// line is pos's line number, for messages that point at a second place.
func (p *pass) line(pos token.Pos) int { return p.Fset.Position(pos).Line }

// funcs invokes fn for every function declaration with a body in the
// packages under check.
func (p *pass) funcs(fn func(pkg *Package, fd *ast.FuncDecl)) {
	for _, pkg := range p.pkgs {
		eachFunc(pkg, func(fd *ast.FuncDecl) { fn(pkg, fd) })
	}
}

// ---------------------------------------------------------------- shared

// annotations returns the set of dstore: directives in a doc comment, e.g.
// {"volatile": true} for a function whose doc contains "//dstore:volatile".
func annotations(doc *ast.CommentGroup) map[string]bool {
	if doc == nil {
		return nil
	}
	var set map[string]bool
	for _, c := range doc.List {
		text := strings.TrimPrefix(c.Text, "//")
		text = strings.TrimSpace(text)
		rest, ok := strings.CutPrefix(text, "dstore:")
		if !ok {
			continue
		}
		word := rest
		if i := strings.IndexAny(rest, " \t"); i >= 0 {
			word = rest[:i]
		}
		if word == "" {
			continue
		}
		if set == nil {
			set = map[string]bool{}
		}
		set[word] = true
	}
	return set
}

func hasAnnotation(fn *ast.FuncDecl, name string) bool {
	return fn != nil && annotations(fn.Doc)[name]
}

// nolintLines returns the set of line numbers in file carrying a //nolint
// comment that applies to the given linter name (bare //nolint applies to
// all).
func nolintLines(fset *token.FileSet, file *ast.File, linter string) map[int]bool {
	lines := map[int]bool{}
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			rest, ok := strings.CutPrefix(c.Text, "//nolint")
			if !ok {
				continue
			}
			if names, scoped := strings.CutPrefix(rest, ":"); scoped {
				found := false
				for _, n := range strings.Split(names, ",") {
					n = strings.TrimSpace(n)
					if i := strings.IndexAny(n, " \t/"); i >= 0 {
						n = n[:i]
					}
					if n == linter {
						found = true
					}
				}
				if !found {
					continue
				}
			}
			lines[fset.Position(c.Pos()).Line] = true
		}
	}
	return lines
}

// calleeFunc resolves the function or method a call invokes, or nil for
// builtins, type conversions, and calls through function values.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				return f
			}
			return nil
		}
		// Package-qualified call, e.g. time.Now().
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// methodOn reports the (package path, receiver type name, method name) of a
// method call, resolving through the type checker so aliasing and embedding
// do not matter. ok is false for anything that is not a method call.
func methodOn(info *types.Info, call *ast.CallExpr) (pkgPath, typeName, method string, ok bool) {
	fun, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", "", false
	}
	sel, found := info.Selections[fun]
	if !found || sel.Kind() != types.MethodVal {
		return "", "", "", false
	}
	recv := sel.Recv()
	if ptr, isPtr := recv.(*types.Pointer); isPtr {
		recv = ptr.Elem()
	}
	named, isNamed := recv.(*types.Named)
	if !isNamed || named.Obj().Pkg() == nil {
		return "", "", "", false
	}
	return named.Obj().Pkg().Path(), named.Obj().Name(), fun.Sel.Name, true
}

// errorType is the predeclared error interface type.
var errorType = types.Universe.Lookup("error").Type()

// summarize computes one fact per function declaration with a body in the
// module, keyed by the function's type object so a checker can look a call's
// callee up (one-level-deep interprocedural reasoning).
func summarize[T any](m *Module, fact func(pkg *Package, fd *ast.FuncDecl) T) map[*types.Func]T {
	facts := map[*types.Func]T{}
	for _, pkg := range m.Pkgs {
		eachFunc(pkg, func(fd *ast.FuncDecl) {
			if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
				facts[obj] = fact(pkg, fd)
			}
		})
	}
	return facts
}

// PackageOf returns the module package declaring fn, or nil.
func (m *Module) PackageOf(fn *types.Func) *Package {
	if fn.Pkg() == nil {
		return nil
	}
	return m.Lookup(fn.Pkg().Path())
}

// eachFunc invokes fn for every function declaration with a body in pkg.
func eachFunc(pkg *Package, fn func(decl *ast.FuncDecl)) {
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				fn(fd)
			}
		}
	}
}
