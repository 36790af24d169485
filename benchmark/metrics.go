package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// metricDef names one metric of the benchmark. The end-to-end table and the
// per-layer table below are the single source of the names; BENCHMARK.json
// repeats them (benchmark_test.go holds the two in step) and README.md
// explains them.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: relative worsening that is a regression
	// Moves names, for a per-layer metric, the end-to-end metrics it is
	// expected to move and the workloads where it should (README.md has the
	// full interaction table, written down before anything was measured).
	Moves string
}

// endToEnd lists what a user of the store sees. Every workload reports all
// of them with -trace 0; none of them is ever taken from a traced window.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "throughput_kops", Unit: "kops/s", Better: "higher", Bound: 0.25},
	{Name: "read_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "read_p99_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "update_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "update_p99_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "write_amp", Unit: "ratio", Better: "lower", Bound: 0.10},
	{Name: "space_amp", Unit: "ratio", Better: "lower", Bound: 0.05},
	{Name: "cpu_us_per_op", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.25},
}

const (
	movesWrite  = "update_p50_us, throughput_kops, write_amp on emb_a (fully) and net_a (the store's share); not emb_b_cache16 reads"
	movesCkpt   = "tail.slow_ops_ppm, tail.update_p9999_us, write_amp on emb_a and net_a; little on emb_b_cache16"
	movesRecov  = "dipper.recover_ms on every workload; nothing else"
	movesRead   = "read_p50_us, read_p99_us, throughput_kops on emb_b_cache16 and net_mbatch_sharded; not emb_a, net_a (cache off)"
	movesWire   = "read_p50_us, update_p50_us, throughput_kops, cpu_us_per_op on net_a and net_mbatch_sharded; not the emb_ workloads"
	movesBatch  = "throughput_kops, update_p99_us on net_mbatch_sharded; not emb_a, net_a"
	movesRT     = "cpu_us_per_op, tail.slow_ops_ppm, peak_rss_mb on the net_ workloads; emb_a only slightly"
	movesCalib  = "every latency on every workload, if the host or the latency model drifted (a guard, not a target)"
	movesTrace  = "nothing: the cost of the traced window itself"
	movesTail   = "itself: end-to-end, reported but not gated (README.md says why)"
	movesLedger = "the residual of its parent span: when it is over a fifth of the parent, that is the finding"
)

// perLayer lists the single-layer metrics, named <layer>.<metric> after the
// module that does the work. Every workload reports all of them with
// -trace 1; a layer that is not on a workload's path reports 0.
var perLayer = []metricDef{
	{Name: "client.call_put_us", Unit: "us", Better: "lower", Moves: movesWire},
	{Name: "client.call_get_us", Unit: "us", Better: "lower", Moves: movesWire},
	{Name: "client.unexplained_put_us", Unit: "us", Better: "lower", Moves: movesLedger},
	{Name: "client.unexplained_get_us", Unit: "us", Better: "lower", Moves: movesLedger},

	{Name: "wire.codec_put_ns", Unit: "ns", Better: "lower", Moves: movesWire},
	{Name: "wire.codec_get_ns", Unit: "ns", Better: "lower", Moves: movesWire},
	{Name: "wire.codec_mput32_ns", Unit: "ns", Better: "lower", Moves: movesWire},
	{Name: "wire.codec_mget32_ns", Unit: "ns", Better: "lower", Moves: movesWire},
	{Name: "wire.codec_allocs_put", Unit: "count", Better: "lower", Moves: movesRT},
	{Name: "wire.codec_allocs_get", Unit: "count", Better: "lower", Moves: movesRT},
	{Name: "wire.frame_bytes_per_op", Unit: "B", Better: "lower", Moves: movesWire},

	{Name: "server.backend_put_us", Unit: "us", Better: "lower", Moves: movesWrite},
	{Name: "server.backend_get_us", Unit: "us", Better: "lower", Moves: movesRead},
	{Name: "server.backend_mput_us", Unit: "us", Better: "lower", Moves: movesBatch},
	{Name: "server.backend_mget_us", Unit: "us", Better: "lower", Moves: movesBatch},
	{Name: "server.null_rtt_put_us", Unit: "us", Better: "lower", Moves: movesWire},
	{Name: "server.null_rtt_get_us", Unit: "us", Better: "lower", Moves: movesWire},
	{Name: "server.null_rtt_mput32_us", Unit: "us", Better: "lower", Moves: movesWire},
	{Name: "server.null_rtt_mget32_us", Unit: "us", Better: "lower", Moves: movesWire},
	{Name: "server.requests_per_op", Unit: "ratio", Better: "lower", Moves: movesWire},
	{Name: "server.protocol_errors", Unit: "count", Better: "lower", Moves: "failed ops on the net_ workloads"},

	{Name: "store.put_us", Unit: "us", Better: "lower", Moves: movesWrite},
	{Name: "store.get_us", Unit: "us", Better: "lower", Moves: movesRead},
	{Name: "store.put_log_us", Unit: "us", Better: "lower", Moves: movesWrite},
	{Name: "store.put_pool_us", Unit: "us", Better: "lower", Moves: movesWrite},
	{Name: "store.put_meta_us", Unit: "us", Better: "lower", Moves: movesWrite},
	{Name: "store.put_tree_us", Unit: "us", Better: "lower", Moves: movesWrite},
	{Name: "store.put_ssd_us", Unit: "us", Better: "lower", Moves: movesWrite},
	{Name: "store.put_other_us", Unit: "us", Better: "lower", Moves: movesLedger},

	{Name: "wal.append_commit_us_1w", Unit: "us", Better: "lower", Moves: movesWrite},
	{Name: "wal.append_commit_us_2w", Unit: "us", Better: "lower", Moves: movesWrite},
	{Name: "wal.gc_records_per_batch", Unit: "ratio", Better: "higher", Moves: movesBatch},
	{Name: "wal.gc_parked_ratio", Unit: "ratio", Better: "higher", Moves: movesBatch},

	{Name: "dipper.checkpoints", Unit: "count", Better: "lower", Moves: movesCkpt},
	{Name: "dipper.checkpoint_ms", Unit: "ms", Better: "lower", Moves: movesCkpt},
	{Name: "dipper.checkpoint_busy_pct", Unit: "%", Better: "lower", Moves: movesCkpt},
	{Name: "dipper.shadow_bytes_per_update", Unit: "B", Better: "lower", Moves: movesCkpt},
	{Name: "dipper.replayed_per_checkpoint", Unit: "count", Better: "lower", Moves: movesCkpt},
	{Name: "dipper.slow_ops_in_ckpt_share", Unit: "ratio", Better: "lower", Moves: movesCkpt},
	{Name: "dipper.recover_ms", Unit: "ms", Better: "lower", Moves: movesTail},
	{Name: "dipper.recover_metadata_ms", Unit: "ms", Better: "lower", Moves: movesRecov},
	{Name: "dipper.recover_replay_ms", Unit: "ms", Better: "lower", Moves: movesRecov},

	{Name: "pmem.fences_per_update", Unit: "count", Better: "lower", Moves: movesWrite},
	{Name: "pmem.lines_flushed_per_update", Unit: "count", Better: "lower", Moves: movesWrite},
	{Name: "pmem.bytes_written_per_update", Unit: "B", Better: "lower", Moves: movesWrite},
	{Name: "pmem.persist_64b_ns", Unit: "ns", Better: "lower", Moves: movesCalib},

	{Name: "ssd.bytes_written_per_update", Unit: "B", Better: "lower", Moves: movesWrite},
	{Name: "ssd.bytes_read_per_read", Unit: "B", Better: "lower", Moves: movesRead},
	{Name: "ssd.write_4k_us", Unit: "us", Better: "lower", Moves: movesCalib},
	{Name: "ssd.read_4k_us", Unit: "us", Better: "lower", Moves: movesCalib},

	{Name: "cache.hit_ratio", Unit: "ratio", Better: "higher", Moves: movesRead},
	{Name: "cache.evictions_per_kread", Unit: "count", Better: "lower", Moves: movesRead},
	{Name: "cache.invalidations_per_update", Unit: "count", Better: "lower", Moves: movesRead},
	{Name: "cache.get_hit_ns", Unit: "ns", Better: "lower", Moves: movesRead},
	{Name: "cache.insert_ns", Unit: "ns", Better: "lower", Moves: movesRead},

	{Name: "btree.get_ns", Unit: "ns", Better: "lower", Moves: movesRead},
	{Name: "btree.insert_ns", Unit: "ns", Better: "lower", Moves: movesWrite},

	{Name: "ring.owner_ns", Unit: "ns", Better: "lower", Moves: movesBatch},

	{Name: "runtime.allocs_per_op", Unit: "count", Better: "lower", Moves: movesRT},
	{Name: "runtime.alloc_bytes_per_op", Unit: "B", Better: "lower", Moves: movesRT},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower", Moves: movesRT},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower", Moves: movesRT},
	{Name: "runtime.heap_live_mb", Unit: "MiB", Better: "lower", Moves: movesRT},

	{Name: "trace.overhead_pct", Unit: "%", Better: "lower", Moves: movesTrace},

	// End-to-end, like dipper.recover_ms above, but not gated: on the shared
	// host this was sized on they move by more than any bound a metric may
	// have (README.md).
	{Name: "tail.slow_ops_ppm", Unit: "ppm", Better: "lower", Moves: movesTail},
	{Name: "tail.update_p9999_us", Unit: "us", Better: "lower", Moves: movesTail},
}

// metrics maps a metric name to its measured value. A value that could not
// be measured on a workload (a layer not on its path, a percentile with no
// samples) is NaN: the tables print it as n/a and JSON carries it as 0,
// because the driver's result line admits only numbers.
type metrics map[string]float64

// measured is the JSON shape of one metric in every result this program
// writes: {"value": 1.2034, "unit": "ms"}.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// render pairs every metric of defs with its unit, in the shape the
// driver's result line and the result files share. A metric the run did not
// set is a bug in the run, not a zero.
func (m metrics) render(defs []metricDef) (map[string]measured, error) {
	out := make(map[string]measured, len(defs))
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out[d.Name] = measured{Value: finite(v), Unit: d.Unit}
	}
	return out, nil
}

// result is what one run of one workload produces. The driver reads the
// four keys of resultLine from the last line of standard output; the rest
// goes to the result file beside the trace.
type result struct {
	resultLine
	Workload string      `json:"workload"`
	Trace    bool        `json:"trace"`
	Host     fingerprint `json:"host"`
	// Samples is the number of timings behind each percentile metric.
	Samples map[string]int `json:"samples,omitempty"`
	// Unsupported lists percentile metrics with fewer than ten samples
	// beyond them: printed, but not fit for comparison.
	Unsupported []string `json:"unsupported,omitempty"`
	// Slices is the untraced window one sliceLen at a time: checkpoint dips
	// and outside interference show here.
	Slices []slice `json:"slices,omitempty"`
	// Info holds whole-window and per-repetition values behind the
	// quartiles the metrics report, for a reader who doubts a number.
	Info map[string][]float64 `json:"info,omitempty"`
	// Notes are the reconciliation lines of the ledger (parent = sum of
	// parts, unit cost x count beside the measured stage).
	Notes []string `json:"notes,omitempty"`
}

// resultLine is the driver's contract: exactly these four keys.
type resultLine struct {
	Correct   bool                `json:"correct"`
	Attempted uint64              `json:"attempted"`
	Failed    uint64              `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

func (r *result) lastLine() string {
	b, err := json.Marshal(r.resultLine)
	if err != nil {
		panic(err) // a map of float64 and string cannot fail to marshal
	}
	return string(b)
}

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// sorted and how many samples lie beyond it.
func percentile(sorted []uint32, p float64) (value float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return nan, 0
	}
	rank := int(math.Ceil(p/100*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= n {
		rank = n - 1
	}
	return float64(sorted[rank]), n - 1 - rank
}

// quantile is the p-quantile (0..1) of vs by linear interpolation between
// the closest ranks; NaN for no values.
func quantile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return nan
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }

var nan = math.NaN()

// finite maps what JSON cannot carry (NaN, the infinities) to 0.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// ratio is a/b, NaN when b is zero (the layer did no such work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return nan
	}
	return a / b
}
