package analysis

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// Golden tests: each testdata/src/<checker>test package holds deliberate
// positive and negative cases, with expectations written as
//
//	expr // want "regexp"
//
// comments on the exact line a finding must anchor to. Each checker runs
// with a predicate targeting only its own golden package; the test fails on
// any unmatched want and on any finding no want expects.

// goldenPkg names each checker's golden package. The packages to load are
// derived from the checker table through it, so a checker added to the table
// without a golden package fails TestEveryCheckerHasGolden.
var goldenPkg = map[string]string{
	"persist-order":             "persistordertest",
	"errcheck-devices":          "errchecktest",
	"no-panic-in-library":       "nopanictest",
	"guarded-by":                "guardedbytest",
	"no-wallclock-in-crashpath": "wallclocktest",
	"lock-order":                "lockordertest",
	"goroutine-lifecycle":       "goroutinelifetest",
	"channel-discipline":        "channeldisctest",
	"wire-symmetry":             "wiresymtest",
}

func goldenDirs() []string {
	dirs := []string{"channeldisctest/chanown"} // imported by channeldisctest
	for _, c := range checkers {
		if dir, ok := goldenPkg[c.name]; ok {
			dirs = append(dirs, dir)
		}
	}
	return dirs
}

func TestEveryCheckerHasGolden(t *testing.T) {
	for _, c := range checkers {
		dir, ok := goldenPkg[c.name]
		if !ok {
			t.Errorf("checker %s has no golden package", c.name)
			continue
		}
		if _, err := os.Stat(filepath.Join("testdata", "src", dir)); err != nil {
			t.Errorf("checker %s: %v", c.name, err)
		}
	}
	if len(goldenPkg) != len(checkers) {
		t.Errorf("%d golden packages for %d checkers", len(goldenPkg), len(checkers))
	}
}

var (
	loadOnce sync.Once
	loadedM  *Module
	loadErr  error
)

// goldenModule loads the whole module plus the golden packages once; the
// source-importer stdlib load dominates, so every test shares it.
func goldenModule(t *testing.T) *Module {
	t.Helper()
	if testing.Short() {
		t.Skip("module load uses the source importer; skipped in -short")
	}
	loadOnce.Do(func() {
		var extra []string
		for _, d := range goldenDirs() {
			extra = append(extra, filepath.Join("testdata", "src", d))
		}
		loadedM, loadErr = Load(".", extra...)
	})
	if loadErr != nil {
		t.Fatalf("loading module with golden packages: %v", loadErr)
	}
	return loadedM
}

func onlyPkg(path string) func(*Package) bool {
	return func(p *Package) bool { return p.Path == path }
}

var wantRe = regexp.MustCompile(`// want "((?:[^"\\]|\\.)*)"`)

type want struct {
	file string // module-root-relative, slash-separated (matches Finding.File)
	line int
	re   *regexp.Regexp
	hit  bool
}

func collectWants(t *testing.T, m *Module, dir string) []*want {
	t.Helper()
	gdir, err := filepath.Abs(filepath.Join("testdata", "src", dir))
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(gdir)
	if err != nil {
		t.Fatal(err)
	}
	var wants []*want
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		abs := filepath.Join(gdir, e.Name())
		rel, err := filepath.Rel(m.RootDir, abs)
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(abs)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			match := wantRe.FindStringSubmatch(line)
			if match == nil {
				continue
			}
			re, err := regexp.Compile(match[1])
			if err != nil {
				t.Fatalf("%s:%d: bad want regexp %q: %v", rel, i+1, match[1], err)
			}
			wants = append(wants, &want{file: filepath.ToSlash(rel), line: i + 1, re: re})
		}
	}
	if len(wants) == 0 {
		t.Fatalf("no want comments found under %s", gdir)
	}
	return wants
}

func checkGolden(t *testing.T, findings []Finding, wants []*want) {
	t.Helper()
	for _, f := range findings {
		matched := false
		for _, w := range wants {
			if w.file == f.File && w.line == f.Line && w.re.MatchString(f.Message) {
				w.hit = true
				matched = true
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: no finding matched %q", w.file, w.line, w.re)
		}
	}
}

func runGolden(t *testing.T, name string) {
	t.Helper()
	m := goldenModule(t)
	dir := goldenPkg[name]
	pkgPath := m.Path + "/internal/analysis/testdata/src/" + dir
	if m.Lookup(pkgPath) == nil {
		t.Fatalf("golden package %s not loaded", pkgPath)
	}
	for _, c := range checkers {
		if c.name == name {
			checkGolden(t, c.check(m, onlyPkg(pkgPath)), collectWants(t, m, dir))
			return
		}
	}
	t.Fatalf("no checker named %s", name)
}

func TestGoldenPersistOrder(t *testing.T)       { runGolden(t, "persist-order") }
func TestGoldenErrcheck(t *testing.T)           { runGolden(t, "errcheck-devices") }
func TestGoldenNoPanic(t *testing.T)            { runGolden(t, "no-panic-in-library") }
func TestGoldenGuardedBy(t *testing.T)          { runGolden(t, "guarded-by") }
func TestGoldenWallclock(t *testing.T)          { runGolden(t, "no-wallclock-in-crashpath") }
func TestGoldenLockOrder(t *testing.T)          { runGolden(t, "lock-order") }
func TestGoldenGoroutineLifecycle(t *testing.T) { runGolden(t, "goroutine-lifecycle") }
func TestGoldenChannelDiscipline(t *testing.T)  { runGolden(t, "channel-discipline") }
func TestGoldenWireSymmetry(t *testing.T)       { runGolden(t, "wire-symmetry") }

// TestRunCleanTree pins the tree clean: the repository's own code produces
// zero findings (golden packages live under
// testdata and are excluded from Run).
func TestRunCleanTree(t *testing.T) {
	m := goldenModule(t)
	for _, f := range Run(m) {
		t.Errorf("tree not clean: %s", f)
	}
}
