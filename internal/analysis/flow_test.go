package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// traceFlow runs the engine over one function body with a trace lattice: the
// state is the space-separated names of the calls, sends and receives seen
// on the path, and a join prints both sides as {a|b}. It returns the visit
// order across all paths (which shows what was never visited: dead code),
// hook invocations included, and the state at every exit.
func traceFlow(t *testing.T, body string, hooks func(f *flow[string], log func(string))) (order string, exits []string) {
	t.Helper()
	src := "package p\nfunc f(ch chan int, xs []int, v any) {\n" + body + "\n}"
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "p.go", src, 0)
	if err != nil {
		t.Fatalf("parse %q: %v", body, err)
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	// The bodies call undeclared functions; only builtins and the parameters'
	// types need to resolve.
	conf := types.Config{Error: func(error) {}}
	_, _ = conf.Check("p", fset, []*ast.File{file}, info)

	var visited []string
	log := func(s string) { visited = append(visited, s) }
	add := func(s, name string) string {
		log(name)
		return strings.TrimSpace(s + " " + name)
	}
	f := flow[string]{
		info: info,
		join: func(a, b string) string { return "{" + a + "|" + b + "}" },
		step: func(n ast.Node, s string) string {
			switch n := n.(type) {
			case *ast.CallExpr:
				if id, ok := n.Fun.(*ast.Ident); ok {
					return add(s, id.Name)
				}
			case *ast.SendStmt:
				return add(s, "send")
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					return add(s, "recv")
				}
			}
			return s
		},
		exit: func(s string, _ token.Pos) { exits = append(exits, s) },
	}
	if hooks != nil {
		hooks(&f, log)
	}
	f.run(file.Decls[0].(*ast.FuncDecl).Body, "")
	return strings.Join(visited, " "), exits
}

func TestFlowStatements(t *testing.T) {
	logLit := func(f *flow[string], log func(string)) {
		f.lit = func(*ast.FuncLit) { log("lit") }
	}
	logParks := func(f *flow[string], log func(string)) {
		f.parks = func(s ast.Stmt, st string) {
			if _, ok := s.(*ast.SelectStmt); ok {
				log("parks:select[" + st + "]")
			} else {
				log("parks:range[" + st + "]")
			}
		}
	}
	for _, tc := range []struct {
		name, body string
		hooks      func(*flow[string], func(string))
		order      string
		exits      []string
	}{
		{"straight line", `a(); b()`, nil, "a b", []string{"a b"}},
		{"nested calls are seen outermost first", `a(b(), c())`, nil, "a b c", []string{"a b c"}},
		{"if else joins both arms", `a(); if c() { b() } else { d() }; e()`, nil,
			"a c b d e", []string{"{a c b|a c d} e"}},
		{"if without else joins the skip path", `if c() { b() }; e()`, nil,
			"c b e", []string{"{c b|c} e"}},
		{"if with one arm returning: only the other flows on", `if c() { b(); return }; e()`, nil,
			"c b e", []string{"c b", "c e"}},
		{"if with both arms returning: the rest is dead", `if c() { return } else { return }; dead()`, nil,
			"c", []string{"c", "c"}},
		{"else-if chains", `if c() { a() } else if d() { b() }; e()`, nil,
			"c a d b e", []string{"{c a|{c d b|c d}} e"}},
		{"if init statement runs before the condition", `if x := i(); c(x) { b() }`, nil,
			"i c b", []string{"{i c b|i c}"}},
		{"return evaluates its results first", `return r()`, nil, "r", []string{"r"}},
		{"for: init, cond, then zero or one pass of body and post", `for i := i0(); c(); p() { b() }; e()`, nil,
			"i0 c b p e", []string{"{i0 c|i0 c b p} e"}},
		{"for body that returns: the zero-iteration path flows on", `for c() { b(); return }; e()`, nil,
			"c b e", []string{"c b", "c e"}},
		{"range: operand, then zero or one pass", `for range x() { b() }; e()`, nil,
			"x b e", []string{"{x|x b} e"}},
		{"range over a channel parks", `a(); for range ch { b() }`, logParks,
			"a parks:range[a] b", []string{"{a|a b}"}},
		{"range over a slice does not park", `for range xs { b() }`, logParks,
			"b", []string{"{|b}"}},
		{"break leaves the loop; the rest of the body is skipped on that path", `for c() { a(); if d() { break }; b() }; e()`, nil,
			"c a d b e", []string{"{{c|c a d b}|c a d} e"}},
		{"continue goes to post", `for ; c(); p() { if d() { continue }; b() }; e()`, nil,
			"c d b p e", []string{"{c|{c d b|c d} p} e"}},
		{"labeled break and continue target the outer loop",
			"outer:\nfor c() { for d() { if x() { break outer }; if y() { continue outer }; a() }; b() }; e()", nil,
			"c d x y a b e",
			// outer = join(entry c, one pass, breaks): the pass is the inner
			// loop's join then b, joined with the continue-outer path.
			[]string{"{{c|{{c d|c d x y a} b|c d x y}}|c d x} e"}},
		{"switch without default: arms from the entry state, plus the no-arm path",
			`switch t() { case v1(): a(); case v2(): b() }; e()`, nil,
			"t v1 a v2 b e", []string{"{{t v1 a|t v2 b}|t} e"}},
		{"switch with default takes some arm", `switch t() { case v1(): a(); default: b() }; e()`, nil,
			"t v1 a b e", []string{"{t v1 a|t b} e"}},
		{"switch whose arms all return, with default: the rest is dead",
			`switch { case c(): return; default: return }; dead()`, nil,
			"c", []string{"c", ""}},
		{"switch whose arms all return, without default: the no-arm path lives",
			`switch { case c(): return }; e()`, nil,
			"c e", []string{"c", "e"}},
		{"switch init and break", `switch x := i(); t(x) { case 1: a(); break; default: b() }; e()`, nil,
			"i t a b e", []string{"{i t b|i t a} e"}},
		{"type switch", `switch y := w(v).(type) { case int: a(y); default: b() }; e()`, nil,
			"w a b e", []string{"{w a|w b} e"}},
		{"select without default parks and walks its comm ops", `a(); select { case <-ch: b(); case ch <- s(): c() }; e()`, logParks,
			"a recv b send s c parks:select[a] e", []string{"{a recv b|a send s c} e"}},
		{"select with default does not park", `select { case <-ch: b(); default: }; e()`, logParks,
			"recv b e", []string{"{recv b|} e"}},
		{"comm hook replaces the walk of the comm op", `select { case <-ch: b(); case ch <- s(): c() }`,
			func(f *flow[string], log func(string)) {
				f.comm = func(_ *ast.CommClause, s string) string { log("comm"); return s }
			},
			"comm b comm c", []string{"{b|c}"}},
		{"empty select never proceeds", `a(); select {}; dead()`, nil, "a", nil},
		{"leave hook rewrites what a loop or switch leaves behind",
			`a(); for c() { b() }; switch { case d(): e() }; g()`,
			func(f *flow[string], _ func(string)) {
				f.leave = func(entry, _ string) string { return entry }
			},
			"a c b d e g", []string{"a c g"}},
		{"defer evaluates operands here, not the call", `defer d(a1()); b()`, nil,
			"a1 b", []string{"a1 b"}},
		{"go evaluates operands here, not the call", `go g(a1()); b()`, nil,
			"a1 b", []string{"a1 b"}},
		{"function literals are skipped without a lit hook", `h := func() { in() }; defer func() { in() }(); b(h)`, nil,
			"b", []string{"b"}},
		{"function literals go to the lit hook wherever they sit",
			`h := func() { in() }; defer func() { in() }(); go func() { in() }(); b(h, func() {})`, logLit,
			"lit lit lit b lit", []string{"b"}},
		{"builtin panic ends the path and is not an exit", `a(); if c() { panic("x") }; b()`, nil,
			"a c b", []string{"a c b"}},
		{"a shadowed panic is a call like any other", `panic := func(string) {}; a(); if c() { panic("x") }; b()`, nil,
			"a c panic b", []string{"{a c panic|a c} b"}},
		{"statements after a return are dead", `a(); return; dead()`, nil, "a", []string{"a"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			order, exits := traceFlow(t, tc.body, tc.hooks)
			if order != tc.order {
				t.Errorf("visit order\n got %q\nwant %q", order, tc.order)
			}
			if strings.Join(exits, " ; ") != strings.Join(tc.exits, " ; ") {
				t.Errorf("exit states\n got %q\nwant %q", exits, tc.exits)
			}
		})
	}
}
