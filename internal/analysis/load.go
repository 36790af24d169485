// Package analysis implements dstore-vet, a static analyzer enforcing the
// repository's persistence-ordering, fault-handling, and lock-discipline
// invariants. It is built entirely on the standard toolchain libraries
// (go/parser, go/types, go/importer) so the module stays dependency-free.
//
// The analyzer loads every package of the module from source, type-checks it
// against the real standard library, and runs nine checkers:
//
//   - persist-order: PMEM writes must be flushed and fenced on every path
//     before a WAL commit or root publish (see persistorder.go);
//   - errcheck-devices: error results from fallible device-layer APIs must
//     not be discarded (errcheck.go);
//   - no-panic-in-library: library code must not panic except for declared
//     programmer-error invariants (nopanic.go);
//   - guarded-by: fields annotated "guarded by <mu>" are only touched by
//     functions that lock that mutex (guardedby.go);
//   - no-wallclock-in-crashpath: recovery/replay packages must be
//     deterministic — no time.Now, no seedless randomness (wallclock.go);
//   - lock-order: no cyclic mutex acquisition orders, no locks held across
//     blocking operations (lockorder.go);
//   - goroutine-lifecycle: every go statement in the concurrent library
//     packages has a tracked termination path (goroutine.go);
//   - channel-discipline: channels are closed only by their owning side and
//     never used after a close on the same path (channel.go);
//   - wire-symmetry: every wire enum value is dense, stringered, validated,
//     and has matching encode/decode arms (wiresym.go).
//
// Run walks the checkers table (analysis.go). The four checkers that reason
// about order — persist-order, lock-order, goroutine-lifecycle,
// channel-discipline — are a state type, a join and a transfer function over
// the one flow engine in flow.go; their per-function summaries, and
// errcheck-devices', come from the one summarize helper.
//
// Annotations are doc-comment directives: //dstore:volatile,
// //dstore:invariant, //dstore:wallclock. See DESIGN.md "Static invariants".
package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package of the module.
type Package struct {
	Path  string // import path, e.g. "dstore/internal/wal"
	Dir   string // absolute directory
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// Module is the fully loaded module under analysis.
type Module struct {
	RootDir string // directory containing go.mod
	Path    string // module path from go.mod
	Fset    *token.FileSet
	Pkgs    []*Package // dependency order (imports first)
	byPath  map[string]*Package
	files   map[*token.File]*ast.File // every parsed file, for //nolint lookup by position
}

// Lookup returns the package with the given import path, or nil.
func (m *Module) Lookup(path string) *Package { return m.byPath[path] }

// Rel returns pos's filename relative to the module root, with the full
// position info attached.
func (m *Module) Rel(pos token.Pos) (file string, line int) {
	p := m.Fset.Position(pos)
	if rel, err := filepath.Rel(m.RootDir, p.Filename); err == nil {
		return filepath.ToSlash(rel), p.Line
	}
	return filepath.ToSlash(p.Filename), p.Line
}

// FindModuleRoot walks upward from dir to the directory containing go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("analysis: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("analysis: no module directive in %s", gomod)
}

// Load parses and type-checks every package of the module rooted at root.
// Test files, testdata directories, and hidden directories are skipped.
// extraDirs lists additional directories (e.g. golden-test packages under
// testdata) to load on top of the regular tree; they may import module
// packages.
func Load(root string, extraDirs ...string) (*Module, error) {
	rootDir, err := FindModuleRoot(root)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(rootDir, "go.mod"))
	if err != nil {
		return nil, err
	}
	m := &Module{
		RootDir: rootDir,
		Path:    modPath,
		Fset:    token.NewFileSet(),
		byPath:  map[string]*Package{},
		files:   map[*token.File]*ast.File{},
	}

	var dirs []string
	err = filepath.WalkDir(rootDir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != rootDir && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, d := range extraDirs {
		abs, err := filepath.Abs(d)
		if err != nil {
			return nil, err
		}
		dirs = append(dirs, abs)
	}

	// Parse every directory that holds non-test Go files.
	type parsed struct {
		path    string
		dir     string
		files   []*ast.File
		imports map[string]bool // module-internal imports only
	}
	pkgs := map[string]*parsed{}
	for _, dir := range dirs {
		entries, err := os.ReadDir(dir)
		if err != nil {
			return nil, err
		}
		var files []*ast.File
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
				continue // built for another platform (a GOOS suffix or a //go:build line)
			}
			f, err := parser.ParseFile(m.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
			m.files[m.Fset.File(f.Pos())] = f
		}
		if len(files) == 0 {
			continue
		}
		rel, err := filepath.Rel(rootDir, dir)
		if err != nil {
			return nil, err
		}
		ipath := modPath
		if rel != "." {
			ipath = modPath + "/" + filepath.ToSlash(rel)
		}
		p := &parsed{path: ipath, dir: dir, files: files, imports: map[string]bool{}}
		for _, f := range files {
			for _, imp := range f.Imports {
				ip := strings.Trim(imp.Path.Value, `"`)
				if ip == modPath || strings.HasPrefix(ip, modPath+"/") {
					p.imports[ip] = true
				}
			}
		}
		pkgs[ipath] = p
	}

	// Topological order over module-internal imports.
	var order []string
	state := map[string]int{} // 0 unvisited, 1 visiting, 2 done
	var visit func(string) error
	visit = func(path string) error {
		switch state[path] {
		case 1:
			return fmt.Errorf("analysis: import cycle through %s", path)
		case 2:
			return nil
		}
		state[path] = 1
		p := pkgs[path]
		deps := slices.Collect(maps.Keys(p.imports))
		sort.Strings(deps)
		for _, dep := range deps {
			if _, ok := pkgs[dep]; !ok {
				return fmt.Errorf("analysis: %s imports %s, which is not in the module tree", path, dep)
			}
			if err := visit(dep); err != nil {
				return err
			}
		}
		state[path] = 2
		order = append(order, path)
		return nil
	}
	paths := slices.Collect(maps.Keys(pkgs))
	sort.Strings(paths)
	for _, p := range paths {
		if err := visit(p); err != nil {
			return nil, err
		}
	}

	// Type-check in dependency order. Module-internal imports resolve to the
	// packages checked so far; everything else (the standard library) resolves
	// through the source importer. Cgo is disabled so cgo-capable stdlib
	// packages (net, via net/http) type-check from their pure-Go fallbacks.
	build.Default.CgoEnabled = false
	imp := &moduleImporter{
		module: m,
		std:    importer.ForCompiler(m.Fset, "source", nil),
	}
	for _, path := range order {
		p := pkgs[path]
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
		}
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(path, m.Fset, p.files, info)
		if err != nil {
			return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
		}
		pkg := &Package{Path: path, Dir: p.dir, Files: p.files, Pkg: tpkg, Info: info}
		m.Pkgs = append(m.Pkgs, pkg)
		m.byPath[path] = pkg
	}
	return m, nil
}

// moduleImporter resolves module-internal imports from the packages already
// type-checked in this load, and delegates everything else to the standard
// library source importer.
type moduleImporter struct {
	module *Module
	std    types.Importer
}

func (mi *moduleImporter) Import(path string) (*types.Package, error) {
	if p := mi.module.Lookup(path); p != nil {
		return p.Pkg, nil
	}
	if path == mi.module.Path || strings.HasPrefix(path, mi.module.Path+"/") {
		return nil, fmt.Errorf("analysis: module package %s not yet loaded (import cycle?)", path)
	}
	return mi.std.Import(path)
}
