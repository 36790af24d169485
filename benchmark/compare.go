package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"text/tabwriter"
)

// compareFiles gates result file b against result file a: one row per
// workload and end-to-end metric with both medians, the bound, and a
// verdict. It exits non-zero on any "worse" and on a higher error rate. Two
// sets of runs of one commit "agree" when it exits zero on them.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, errA := readReport(pathA)
	b, errB := readReport(pathB)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	return compareReports(a, b, stdout)
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep := &report{}
	if err := json.Unmarshal(data, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(rep.Runs) == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	return rep, nil
}

// series is one end-to-end metric of one workload over a report's runs.
type series struct {
	values            []float64
	attempted, failed uint64
	unsupported       bool
}

func (rep *report) series(workload, metric string) series {
	var s series
	for _, run := range rep.Runs {
		j := run.Workloads[workload]
		if j == nil || j.EndToEnd == nil {
			continue
		}
		s.values = append(s.values, j.EndToEnd.Metrics[metric].Value)
		s.attempted += j.EndToEnd.Attempted
		s.failed += j.EndToEnd.Failed
		s.unsupported = s.unsupported || slices.Contains(j.EndToEnd.Unsupported, metric)
	}
	return s
}

// spread is the distance between the first and third quartile as a share of
// the median, 0 for fewer than two values.
func spread(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	// The exclusive method of Python's statistics.quantiles(n=4), which the
	// driver uses.
	q := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		i := min(max(int(pos), 1), len(s)-1)
		frac := pos - float64(i)
		return s[i-1] + frac*(s[i]-s[i-1])
	}
	return ratio(q(3)-q(1), median(s))
}

// verdict says how b's median stands against a's under the metric's bound:
// worse or better by more than the bound, unresolved when either side's
// spread is wider than the bound or the percentile has too few samples
// beyond it, otherwise same.
func verdict(d metricDef, a, b series) string {
	ma, mb := median(a.values), median(b.values)
	change := (mb - ma) / ma // > 0: b is higher
	if d.Better == "higher" {
		change = -change
	}
	switch {
	case len(a.values) == 0 || len(b.values) == 0 || a.unsupported || b.unsupported:
		return "unresolved"
	case change > d.Bound:
		return "worse"
	case spread(a.values) > d.Bound || spread(b.values) > d.Bound:
		return "unresolved"
	case change < -d.Bound:
		return "better"
	}
	return "same"
}

func compareReports(a, b *report, w io.Writer) int {
	fmt.Fprintf(w, "a: %d run(s), commit %s, %s, nproc %d, calibration_ok %v\n", len(a.Runs), a.Host.Commit, a.Host.GoVersion, a.Host.NProc, a.Host.CalibrationOK)
	fmt.Fprintf(w, "b: %d run(s), commit %s, %s, nproc %d, calibration_ok %v\n", len(b.Runs), b.Host.Commit, b.Host.GoVersion, b.Host.NProc, b.Host.CalibrationOK)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\ta (median)\tb (median)\tb/a\tspread a\tspread b\tbound\tverdict")
	worse := 0
	for _, wl := range workloads {
		for _, d := range endToEnd {
			sa, sb := a.series(wl.Name, d.Name), b.series(wl.Name, d.Name)
			v := verdict(d, sa, sb)
			if v == "worse" {
				worse++
			}
			ma, mb := median(sa.values), median(sb.values)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%.3f of %s\t%.3f\t%.3f\t%.2f\t%s\n",
				wl.Name, d.Name, d.Unit, formatValue(ma), formatValue(mb), mb/ma, formatValue(ma), spread(sa.values), spread(sb.values), d.Bound, v)
		}
		sa, sb := a.series(wl.Name, endToEnd[0].Name), b.series(wl.Name, endToEnd[0].Name)
		ea, eb := ratio(float64(sa.failed), float64(sa.attempted)), ratio(float64(sb.failed), float64(sb.attempted))
		v := "same"
		if eb > ea {
			v = "worse"
			worse++
		}
		fmt.Fprintf(tw, "%s\terror_rate\tratio\t%.3g\t%.3g\t\t\t\tmust not rise\t%s\n", wl.Name, ea, eb, v)
	}
	tw.Flush()
	if worse > 0 {
		fmt.Fprintf(w, "%d metric(s) worse\n", worse)
		return 1
	}
	fmt.Fprintln(w, "no metric worse")
	return 0
}
