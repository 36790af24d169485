package analysis

import (
	"go/ast"
	"go/constant"
	"go/types"
	"sort"
	"strings"
)

// runWireSymmetry keeps the wire protocol's enum plumbing in sync so a
// future opcode or status code cannot ship half-wired. For every "wire
// enum" in a targeted package — a named integer type with exported typed
// constants and an unexported sentinel constant named *Max — it checks:
//
//  1. density: the exported values are unique and contiguous, and the
//     sentinel is exactly last+1, so Valid()'s range comparison is the
//     whole truth;
//  2. String(): every exported constant has a case in the type's String
//     switch (a frame dump must never print "Op(7)");
//  3. Valid(): the method exists and references the sentinel;
//  4. encode/decode symmetry: for every Append<X>/Decode<X> (or
//     append<x>/decode<x>) function pair in the package, the set of enum
//     constants appearing in switch cases must be identical in both
//     bodies — an opcode with an encode arm but no bounds-checked decode
//     arm (or vice versa) is exactly the asymmetry that corrupts a peer;
//  5. liveness: every exported constant is referenced somewhere in the
//     module outside its own declaration — a constant nobody encodes,
//     decodes, or dispatches on is either dead or, worse, half-wired.
//
// Findings anchor at the constant (or function) that is out of sync.
// Suppress with //nolint:wire-symmetry on that line.
func runWireSymmetry(p *pass) {
	for _, pkg := range p.pkgs {
		checkWirePackage(p, pkg)
	}
}

// wireEnum is one discovered enum in a package.
type wireEnum struct {
	typ      *types.TypeName
	consts   []*types.Const // exported, in declaration order
	sentinel *types.Const   // unexported *Max constant, or nil
}

func checkWirePackage(p *pass, pkg *Package) {
	enums := findWireEnums(pkg)
	for _, e := range enums {
		name := e.typ.Name()

		// (1) density + sentinel placement.
		seen := map[int64]*types.Const{}
		min, max := int64(1<<62), int64(-1<<62)
		for _, c := range e.consts {
			v, _ := constant.Int64Val(c.Val())
			if prev, dup := seen[v]; dup {
				p.report(c.Pos(), "enum %s: %s duplicates the value of %s (wire values must be unique)", name, c.Name(), prev.Name())
				continue
			}
			seen[v] = c
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		if len(seen) > 0 && max-min+1 != int64(len(seen)) {
			for v := min; v <= max; v++ {
				if _, ok := seen[v]; !ok {
					p.report(e.typ.Pos(), "enum %s: value %d is unassigned (values must be dense so the sentinel range check covers them all)", name, v)
				}
			}
		}
		if e.sentinel == nil {
			p.report(e.typ.Pos(), "enum %s: no unexported sentinel constant named %sMax (Valid() needs an upper bound that grows with the enum)", name, lowerFirst(name))
		} else if sv, _ := constant.Int64Val(e.sentinel.Val()); len(seen) > 0 && sv != max+1 {
			p.report(e.sentinel.Pos(), "enum %s: sentinel %s is %d, expected %d (last value + 1); Valid() is checking the wrong range", name, e.sentinel.Name(), sv, max+1)
		}

		// (2) String coverage.
		if stringCases, ok := methodSwitchConsts(pkg, e.typ, "String"); !ok {
			p.report(e.typ.Pos(), "enum %s: no String method (debugging a frame dump needs names, not numbers)", name)
		} else {
			for _, c := range e.consts {
				if !stringCases[c] {
					p.report(c.Pos(), "enum %s: %s has no case in %s.String (stringer out of sync)", name, c.Name(), name)
				}
			}
		}

		// (3) Valid references the sentinel.
		if e.sentinel != nil {
			if !methodUsesObject(pkg, e.typ, "Valid", e.sentinel) {
				p.report(e.typ.Pos(), "enum %s: Valid method missing or not comparing against sentinel %s", name, e.sentinel.Name())
			}
		}

		// (5) liveness across the module.
		for _, c := range e.consts {
			if !constReferenced(p.Module, c) {
				p.report(c.Pos(), "enum %s: %s is never referenced outside its declaration (dead value, or encode/decode/dispatch wiring missing)", name, c.Name())
			}
		}
	}

	// (4) Append*/Decode* pair symmetry, per enum type.
	checkCodecPairs(p, pkg, enums)
}

func lowerFirst(s string) string {
	if s == "" {
		return s
	}
	return strings.ToLower(s[:1]) + s[1:]
}

// findWireEnums discovers enum types in pkg: named integer types with at
// least two exported typed constants.
func findWireEnums(pkg *Package) []*wireEnum {
	byType := map[*types.TypeName]*wireEnum{}
	var order []*types.TypeName
	scope := pkg.Pkg.Scope()
	for _, n := range scope.Names() {
		c, isConst := scope.Lookup(n).(*types.Const)
		if !isConst {
			continue
		}
		named, isNamed := c.Type().(*types.Named)
		if !isNamed {
			continue
		}
		tn := named.Obj()
		if tn.Pkg() != pkg.Pkg {
			continue
		}
		if b, isBasic := named.Underlying().(*types.Basic); !isBasic || b.Info()&types.IsInteger == 0 {
			continue
		}
		e := byType[tn]
		if e == nil {
			e = &wireEnum{typ: tn}
			byType[tn] = e
			order = append(order, tn)
		}
		if c.Exported() {
			e.consts = append(e.consts, c)
		} else if strings.HasSuffix(c.Name(), "Max") {
			e.sentinel = c
		}
	}
	var enums []*wireEnum
	sort.Slice(order, func(i, j int) bool { return order[i].Pos() < order[j].Pos() })
	for _, tn := range order {
		e := byType[tn]
		if len(e.consts) >= 2 {
			sort.Slice(e.consts, func(i, j int) bool { return e.consts[i].Pos() < e.consts[j].Pos() })
			enums = append(enums, e)
		}
	}
	return enums
}

// methodSwitchConsts returns the set of enum constants used as switch cases
// in the named method of typ; ok is false if the method does not exist.
func methodSwitchConsts(pkg *Package, typ *types.TypeName, method string) (map[*types.Const]bool, bool) {
	fd := findMethodDecl(pkg, typ, method)
	if fd == nil {
		return nil, false
	}
	set := map[*types.Const]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		cc, ok := n.(*ast.CaseClause)
		if !ok {
			return true
		}
		for _, e := range cc.List {
			if id, ok := ast.Unparen(e).(*ast.Ident); ok {
				if c, isConst := pkg.Info.Uses[id].(*types.Const); isConst {
					set[c] = true
				}
			}
		}
		return true
	})
	return set, true
}

// methodUsesObject reports whether typ's method references obj.
func methodUsesObject(pkg *Package, typ *types.TypeName, method string, obj types.Object) bool {
	fd := findMethodDecl(pkg, typ, method)
	if fd == nil {
		return false
	}
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pkg.Info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

func findMethodDecl(pkg *Package, typ *types.TypeName, method string) *ast.FuncDecl {
	var out *ast.FuncDecl
	eachFunc(pkg, func(fd *ast.FuncDecl) {
		if out == nil && fd.Name.Name == method && receiverTypeName(pkg, fd) == typ {
			out = fd
		}
	})
	return out
}

// constReferenced reports whether c is used anywhere in the module (Uses,
// not Defs — the declaration itself does not count).
func constReferenced(m *Module, c *types.Const) bool {
	for _, pkg := range m.Pkgs {
		for _, obj := range pkg.Info.Uses {
			if obj == c {
				return true
			}
		}
	}
	return false
}

// checkCodecPairs matches Append<X>/Decode<X> function pairs and compares
// the enum constants their switches handle.
func checkCodecPairs(p *pass, pkg *Package, enums []*wireEnum) {
	type fn struct {
		decl *ast.FuncDecl
		// consts per enum type used in case clauses
		cases map[*types.TypeName]map[*types.Const]bool
	}
	collect := func(fd *ast.FuncDecl) *fn {
		f := &fn{decl: fd, cases: map[*types.TypeName]map[*types.Const]bool{}}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			cc, ok := n.(*ast.CaseClause)
			if !ok {
				return true
			}
			for _, e := range cc.List {
				id, ok := ast.Unparen(e).(*ast.Ident)
				if !ok {
					continue
				}
				c, isConst := pkg.Info.Uses[id].(*types.Const)
				if !isConst {
					continue
				}
				named, isNamed := c.Type().(*types.Named)
				if !isNamed {
					continue
				}
				tn := named.Obj()
				if f.cases[tn] == nil {
					f.cases[tn] = map[*types.Const]bool{}
				}
				f.cases[tn][c] = true
			}
			return true
		})
		return f
	}

	appends := map[string]*fn{}
	decodes := map[string]*fn{}
	eachFunc(pkg, func(fd *ast.FuncDecl) {
		if fd.Recv != nil {
			return
		}
		name := fd.Name.Name
		lower := strings.ToLower(name)
		if rest, ok := strings.CutPrefix(lower, "append"); ok && rest != "" {
			appends[rest] = collect(fd)
		} else if rest, ok := strings.CutPrefix(lower, "decode"); ok && rest != "" {
			decodes[rest] = collect(fd)
		}
	})

	keys := make([]string, 0, len(appends))
	for k := range appends {
		if _, paired := decodes[k]; paired {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		enc, dec := appends[k], decodes[k]
		for _, e := range enums {
			encSet := enc.cases[e.typ]
			decSet := dec.cases[e.typ]
			for _, c := range e.consts {
				switch {
				case encSet[c] && !decSet[c]:
					p.report(dec.decl.Pos(), "%s has no %s arm but %s encodes it (half-wired %s: peers cannot decode what we send)", dec.decl.Name.Name, c.Name(), enc.decl.Name.Name, e.typ.Name())
				case decSet[c] && !encSet[c]:
					p.report(enc.decl.Pos(), "%s has no %s arm but %s decodes it (half-wired %s: we accept frames we can never produce)", enc.decl.Name.Name, c.Name(), dec.decl.Name.Name, e.typ.Name())
				}
			}
		}
	}
}
