// Command benchmark is the repository's one benchmark: four workloads, the
// end-to-end metrics a user of DStore sees with their regression bounds, and
// a per-layer ledger from the client socket to the SSD, all measured from
// outside the program. It is the only source for performance claims;
// cmd/dstore-bench keeps regenerating the paper's figures.
//
//	go run ./benchmark                       every workload, untraced then traced
//	go run ./benchmark -workload emb_a       one workload, end-to-end metrics
//	go run ./benchmark -workload emb_a -trace 1   its per-layer metrics and trace
//	go run ./benchmark -compare a.json b.json     gate b against a
//
// BENCHMARK.json at the root of the repository names the command the driver
// runs (one workload per process, one process at a time) and repeats the
// metric names; README.md beside this file explains them.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"text/tabwriter"
	"time"

	"dstore/internal/latency"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	opt := defaultOptions()
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run only this workload, in this process (default: all, one child process each)")
	seconds := fs.Int("seconds", int(opt.window.Seconds()), "length of the measured window")
	trace := fs.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics and writes the trace")
	runs := fs.Int("runs", 1, "without -workload: repeat everything this many times, on seeds seed, seed+1, ...")
	compare := fs.Bool("compare", false, "compare two result files: -compare a.json b.json")
	fs.Int64Var(&opt.seed, "seed", opt.seed, "seed of the key and op streams")
	fs.StringVar(&opt.outDir, "out", opt.outDir, "directory for result and trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *seconds < 1 || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "benchmark: -seconds must be at least 1 and there are no positional arguments")
		return 2
	}
	opt.window = time.Duration(*seconds) * time.Second
	opt.trace = *trace != 0

	if *workload == "" {
		return runAll(opt, *runs, stdout, stderr)
	}
	w, ok := workloadByName(*workload)
	if !ok {
		fmt.Fprintf(stderr, "benchmark: no workload %q\n", *workload)
		return 2
	}
	latency.Enable()
	res, err := runWorkload(w, opt)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.Name, err)
		return 1
	}
	printResult(stdout, res)
	if err := writeJSON(resultPath(opt.outDir, w.Name, opt.trace), res); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, res.lastLine())
	if !res.Correct {
		fmt.Fprintf(stderr, "benchmark: %s: %d of %d operations failed verification\n", w.Name, res.Failed, res.Attempted)
		return 1
	}
	return 0
}

func resultPath(dir, workload string, trace bool) string {
	kind := "end_to_end"
	if trace {
		kind = "per_layer"
	}
	return filepath.Join(dir, fmt.Sprintf("result-%s-%s.json", workload, kind))
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printResult prints every metric of one run by name with its unit, then
// the ledger's notes.
func printResult(w io.Writer, res *result) {
	h := res.Host
	kind, defs := "end-to-end", endToEnd
	if res.Trace {
		kind, defs = "per-layer", perLayer
	}
	fmt.Fprintf(w, "== %s: %s metrics (seed %d, %.1f s window, %.1f s warm-up, %d closed-loop clients) ==\n",
		res.Workload, kind, h.Seed, h.WindowSeconds, h.WarmupSeconds, h.Clients)
	fmt.Fprintf(w, "host: nproc %d, GOMAXPROCS %d, %s, GOGC %s, commit %s, core_bound %v, device latency on, group commit on\n",
		h.NProc, h.GOMAXPROCS, h.GoVersion, h.GOGC, h.Commit, h.CoreBound)
	fmt.Fprintf(w, "host: calibration_ok %v (pmem.persist_64b_ns %.0f, ssd.write_4k_us %.2f, %.1f%% of the window stolen by the hypervisor), runtime.gc_cycles %d\n",
		h.CalibrationOK, h.Persist64bNs, h.SSDWrite4kUs, h.StealPct, h.GCCycles)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	for _, d := range defs {
		v := res.Metrics[d.Name].Value
		extra := ""
		if n, ok := res.Samples[d.Name]; ok {
			extra = fmt.Sprintf("n=%d", n)
		}
		if !res.Trace {
			extra = strings.TrimSpace(fmt.Sprintf("bound %.2f %s", d.Bound, extra))
		} else if v == 0 {
			extra = "not on this workload's path, or nothing to measure"
		}
		fmt.Fprintf(tw, "  %s\t%s\t%s\t%s\n", d.Name, formatValue(v), d.Unit, extra)
	}
	tw.Flush()
	if v, ok := res.Info["slow_ops_ppm"]; ok {
		fmt.Fprintf(w, "  not gated: recover_ms %s ms, slow_ops_ppm %s ppm, update_p9999_us %s us (n=%.0f); whole window: throughput_kops %s, cpu_us_per_op %s\n",
			formatValue(res.Info["recover_ms"][0]), formatValue(v[0]), formatValue(res.Info["update_p9999_us"][0]), res.Info["update_p9999_samples"][0],
			formatValue(res.Info["window_throughput_kops"][0]), formatValue(res.Info["window_cpu_us_per_op"][0]))
	}
	for _, name := range res.Unsupported {
		fmt.Fprintf(w, "  note: %s has fewer than 10 samples beyond it: not fit for comparison\n", name)
	}
	for _, n := range res.Notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	fmt.Fprintf(w, "  verified: %d attempted, %d failed (error_rate %.3g)\n", res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted))
}

func formatValue(v float64) string {
	switch a := math.Abs(v); {
	case a == 0:
		return "0"
	case a >= 1000:
		return fmt.Sprintf("%.0f", v)
	case a >= 10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// report is the machine-readable result of the whole benchmark: every run
// of every workload, both kinds of metrics. -compare reads two of them.
type report struct {
	Host fingerprint `json:"host"`
	Runs []reportRun `json:"runs"`
}

type reportRun struct {
	Seed      int64              `json:"seed"`
	Workloads map[string]*joined `json:"workloads"`
}

// joined is one workload's untraced and traced results side by side.
type joined struct {
	EndToEnd *result `json:"end_to_end"`
	PerLayer *result `json:"per_layer"`
}

// runAll runs every workload in a fresh child process of this program, one
// at a time, untraced and then traced, so that heap growth, peak RSS and GC
// state do not leak from one workload into the next and load always comes
// from exactly one process.
func runAll(opt options, runs int, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	var rep report
	failed := false
	for r := 0; r < runs; r++ {
		seed := opt.seed + int64(r)
		run := reportRun{Seed: seed, Workloads: map[string]*joined{}}
		for _, w := range workloads {
			j := &joined{}
			for _, trace := range []bool{false, true} {
				res, err := runChild(self, w.Name, seed, opt, trace, stdout, stderr)
				if err != nil {
					fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.Name, err)
					failed = true
				}
				if res != nil && !res.Correct {
					failed = true
				}
				if trace {
					j.PerLayer = res
				} else {
					j.EndToEnd = res
				}
			}
			run.Workloads[w.Name] = j
			if j.EndToEnd != nil {
				rep.Host = j.EndToEnd.Host
			}
		}
		rep.Runs = append(rep.Runs, run)
	}
	path := filepath.Join(opt.outDir, "result.json")
	if err := writeJSON(path, &rep); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "result written to %s\n", path)
	if failed {
		return 1
	}
	return 0
}

// runChild runs one workload in a child process and reads back the result
// file it wrote. A child that failed verification still yields its result.
func runChild(self, workload string, seed int64, opt options, trace bool, stdout, stderr io.Writer) (*result, error) {
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(int(opt.window.Seconds())), "-trace", t, "-out", opt.outDir)
	cmd.Stdout, cmd.Stderr = stdout, stderr
	path := resultPath(opt.outDir, workload, trace)
	if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err // or a failed child would leave an earlier run's result to be read
	}
	runErr := cmd.Run()
	var exit *exec.ExitError
	if runErr != nil && !errors.As(runErr, &exit) {
		return nil, runErr
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, errors.Join(runErr, err)
	}
	res := &result{}
	if err := json.Unmarshal(data, res); err != nil {
		return nil, err
	}
	res.Slices = nil // they stay in the run's own result file
	return res, nil
}
