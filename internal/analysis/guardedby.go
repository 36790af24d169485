package analysis

import (
	"go/ast"
	"go/types"
	"regexp"
)

// runGuardedBy enforces "guarded by <mu>" field annotations: a struct
// field whose declaration comment names a sibling mutex may only be accessed
// (read or written through a selector) by functions that lock that mutex.
//
// The analysis is flow-insensitive and intra-procedural: a function passes
// for a field if it contains any <x>.<mu>.Lock() or .RLock() call resolving
// to the same mutex field — aliasing through local variables is handled by
// resolving selections with the type checker — or if its name ends in
// "Locked", the repository's convention for helpers whose callers hold the
// lock. Composite-literal initialization (construction before the value
// escapes) is deliberately not counted as an access.
func runGuardedBy(p *pass) {
	guards := collectGuards(p.Module)
	p.funcs(func(pkg *Package, fd *ast.FuncDecl) {
		type access struct {
			field *types.Var
			pos   ast.Node
		}
		var accesses []access
		locked := map[*types.Var]bool{}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			s, ok := pkg.Info.Selections[sel]
			if !ok {
				return true
			}
			if s.Kind() == types.FieldVal {
				if v, isVar := s.Obj().(*types.Var); isVar {
					if _, guarded := guards[v]; guarded {
						accesses = append(accesses, access{v, sel})
					}
				}
			}
			if s.Kind() == types.MethodVal && isLockName(sel.Sel.Name) {
				// x.mu.Lock(): resolve x.mu to a field var if possible.
				if inner, isSel := ast.Unparen(sel.X).(*ast.SelectorExpr); isSel {
					if is, found := pkg.Info.Selections[inner]; found && is.Kind() == types.FieldVal {
						if v, isVar := is.Obj().(*types.Var); isVar {
							locked[v] = true
						}
					}
				}
			}
			return true
		})
		if len(accesses) == 0 {
			return
		}
		if len(fd.Name.Name) > 6 && fd.Name.Name[len(fd.Name.Name)-6:] == "Locked" {
			return
		}
		reported := map[*types.Var]bool{}
		for _, a := range accesses {
			g := guards[a.field]
			if locked[g.mu] || reported[a.field] {
				continue
			}
			reported[a.field] = true
			p.report(a.pos.Pos(), "%s accesses %s (guarded by %s) without locking %s (lock it, or suffix the function name with Locked if callers hold it)",
				fd.Name.Name, a.field.Name(), g.muName, g.muName)
		}
	})
}

func isLockName(name string) bool { return name == "Lock" || name == "RLock" }

var guardedByRe = regexp.MustCompile(`guarded by ([A-Za-z_][A-Za-z0-9_]*)`)

type guardInfo struct {
	mu     *types.Var
	muName string
}

// collectGuards maps every annotated field's object to its guarding mutex
// field. Annotations naming a non-existent sibling are reported by the
// caller indirectly: the guard is simply dropped (and the mutex lookup nil
// would never match a Lock call, flagging every access), so instead we skip
// malformed annotations silently — the golden tests pin the supported shape.
func collectGuards(m *Module) map[*types.Var]guardInfo {
	guards := map[*types.Var]guardInfo{}
	for _, pkg := range m.Pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				st, ok := n.(*ast.StructType)
				if !ok || st.Fields == nil {
					return true
				}
				// First index the struct's fields by name for sibling lookup.
				byName := map[string]*types.Var{}
				for _, f := range st.Fields.List {
					for _, name := range f.Names {
						if v, isVar := pkg.Info.Defs[name].(*types.Var); isVar {
							byName[name.Name] = v
						}
					}
				}
				for _, f := range st.Fields.List {
					muName := guardAnnotation(f)
					if muName == "" {
						continue
					}
					mu, found := byName[muName]
					if !found {
						continue
					}
					for _, name := range f.Names {
						if v, isVar := pkg.Info.Defs[name].(*types.Var); isVar {
							guards[v] = guardInfo{mu: mu, muName: muName}
						}
					}
				}
				return true
			})
		}
	}
	return guards
}

// guardAnnotation extracts the mutex name from a field's doc or line
// comment, e.g. "// guarded by mu; pre-write images" -> "mu".
func guardAnnotation(f *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{f.Doc, f.Comment} {
		if cg == nil {
			continue
		}
		if match := guardedByRe.FindStringSubmatch(cg.Text()); match != nil {
			return match[1]
		}
	}
	return ""
}
