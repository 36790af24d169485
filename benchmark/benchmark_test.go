package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"time"

	"dstore/internal/latency"
)

// manifest is the layout of BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestManifestMatchesTables holds BENCHMARK.json and the program's own
// tables in step, inside the limits the driver sets.
func TestManifestMatchesTables(t *testing.T) {
	m := readManifest(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(m.Workloads) > 4 || len(m.EndToEnd) > 16 || len(m.PerLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end, %d per-layer metrics: over 4 / 16 / 128", len(m.Workloads), len(m.EndToEnd), len(m.PerLayer))
	}
	if m.RunSeconds != int(defaultOptions().window.Seconds()) {
		t.Errorf("run_seconds %d, the program's default window is %v", m.RunSeconds, defaultOptions().window)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := m.Workloads[i]; got.Name != w.Name || got.Why != w.Why || !name.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, got.Name, got.Why, w.Name, w.Why)
		}
	}
	seen := map[string]bool{}
	same := func(kind string, got []manifestMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the program", len(got), kind, len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the program %+v", kind, i, g, d)
			}
			if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || seen[d.Name] {
				t.Errorf("%s metric %q (%q): bad or repeated name, or bad unit", kind, d.Name, d.Unit)
			}
			seen[d.Name] = true
			switch {
			case !bounded && g.Bound != nil:
				t.Errorf("per-layer metric %s has a bound", d.Name)
			case bounded && (g.Bound == nil || *g.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25):
				t.Errorf("end-to-end metric %s: bound %v in BENCHMARK.json, %v in the program", d.Name, g.Bound, d.Bound)
			}
		}
	}
	same("end-to-end", m.EndToEnd, endToEnd, true)
	same("per-layer", m.PerLayer, perLayer, false)
	if endToEnd[0].Name != "setup_s" || endToEnd[0].Unit != "s" || endToEnd[0].Better != "lower" {
		t.Errorf("the first end-to-end metric must be setup_s in s, lower is better")
	}
}

// TestSmoke runs every workload once untraced and once traced on a tiny
// geometry and a 200 ms window, and checks that every metric BENCHMARK.json
// names comes out as a finite number and that everything read back verified.
func TestSmoke(t *testing.T) {
	m := readManifest(t)
	was := latency.Enabled()
	latency.Enable()
	defer func() {
		if !was {
			latency.Disable()
		}
	}()
	opt := defaultOptions()
	opt.window, opt.warmup, opt.slice = 200*time.Millisecond, 50*time.Millisecond, 10*time.Millisecond
	opt.setups, opt.recoverCycles, opt.fixedPuts = 1, 2, 1000
	opt.outDir = t.TempDir()
	for _, w := range workloads {
		// A fifth of the full geometry's tenth: the cache-to-working-set
		// ratios stay what they are.
		w.CacheBytes /= uint64(w.Records / 2000)
		w.Records = 2000
		for _, trace := range []bool{false, true} {
			opt.trace = trace
			res, err := runWorkload(w, opt)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d operations failed verification", w.Name, trace, res.Failed, res.Attempted)
			}
			want := m.EndToEnd
			if trace {
				want = m.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				got, ok := res.Metrics[d.Name]
				if !ok || got.Unit != d.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s trace=%v: metric %s: %+v (present %v)", w.Name, trace, d.Name, got, ok)
				}
				if !trace && got.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", w.Name, d.Name)
				}
			}
			var line resultLine
			if err := json.Unmarshal([]byte(res.lastLine()), &line); err != nil || len(line.Metrics) != len(want) {
				t.Errorf("%s trace=%v: result line does not parse back: %v", w.Name, trace, err)
			}
		}
	}
}

// TestCompare pins the gate: the spread is the driver's (Python's
// statistics.quantiles, n=4), worse beats unresolved, and a metric moves
// only past its bound.
func TestCompare(t *testing.T) {
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread of 1..10 = %v, quantiles(n=4) give (8.25-2.75)/5.5 = 1", got)
	}
	lower := metricDef{Name: "x_us", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "x_kops", Better: "higher", Bound: 0.10}
	tight := func(v float64) series { return series{values: []float64{v, v * 1.01, v * 0.99}} }
	wide := func(v float64) series { return series{values: []float64{v, v * 1.3, v * 0.7}} }
	for _, c := range []struct {
		d    metricDef
		a, b series
		want string
	}{
		{lower, tight(100), tight(105), "same"},
		{lower, tight(100), tight(115), "worse"},
		{lower, tight(100), tight(85), "better"},
		{higher, tight(100), tight(85), "worse"},
		{higher, tight(100), tight(115), "better"},
		{lower, wide(100), tight(105), "unresolved"},
		{lower, wide(100), tight(115), "worse"},
		{lower, tight(100), series{values: []float64{85}, unsupported: true}, "unresolved"},
	} {
		if got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s a=%v b=%v: %s, want %s", c.d.Name, c.a.values, c.b.values, got, c.want)
		}
	}
}
