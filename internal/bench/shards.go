package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"

	"dstore/internal/ycsb"
)

// This file is the shard-scaling experiment: YCSB-A over 1→N independent
// DIPPER shards on the same aggregate device geometry. The paper keeps one
// logical log per instance, so every write serializes on that log's tail;
// partitioning is the implied scaling path, and this experiment measures it
// with the same harness that regenerates the paper's figures.

// ShardPoint is one shard count's measurement in the JSON snapshot.
type ShardPoint struct {
	Shards      int     `json:"shards"`
	Threads     int     `json:"threads"`
	WriteKops   float64 `json:"write_kops"`
	ReadKops    float64 `json:"read_kops"`
	TotalKops   float64 `json:"total_kops"`
	UpdP50Us    float64 `json:"upd_p50_us"`
	UpdP99Us    float64 `json:"upd_p99_us"`
	UpdP999Us   float64 `json:"upd_p999_us"`
	UpdP9999Us  float64 `json:"upd_p9999_us"`
	ReadP9999Us float64 `json:"read_p9999_us"`
}

// ShardSnapshot is the BENCH_shards.json layout: the sweep plus the headline
// before/after ratios (8-shard vs single-store write throughput and update
// p9999). GOMAXPROCS pins the host parallelism the numbers were taken under:
// shard throughput scaling needs at least as many cores as shards, so when
// GOMAXPROCS is below the largest shard count the snapshot flags the sweep as
// core-bound — every configuration saturates the same core budget and the
// sharding win shows up in the tails, not the aggregate rate.
type ShardSnapshot struct {
	Workload      string       `json:"workload"`
	DurationSec   float64      `json:"duration_sec"`
	ValueBytes    int          `json:"value_bytes"`
	Records       int          `json:"records"`
	GOMAXPROCS    int          `json:"gomaxprocs"`
	CoreBound     bool         `json:"core_bound"`
	Points        []ShardPoint `json:"points"`
	WriteSpeedup  float64      `json:"write_speedup_vs_single"`
	TailReduction float64      `json:"upd_p9999_reduction_vs_single"`
}

// shardCounts picks the sweep: the paper-motivated 1→4→8, extended with
// o.Shards when the caller asked for a count outside it.
func shardCounts(o Options) []int {
	counts := []int{1, 4, 8}
	if o.Shards > 1 {
		found := false
		for _, c := range counts {
			if c == o.Shards {
				found = true
			}
		}
		if !found {
			counts = append(counts, o.Shards)
		}
	}
	return counts
}

// Shards regenerates the shard-scaling comparison: YCSB-A write/read
// throughput and update tail latency as the store is partitioned across
// independent DIPPER instances. With o.ShardsJSON set, the sweep is also
// written there as a machine-readable snapshot.
func Shards(o Options, w io.Writer) error {
	o.setDefaults()
	t := Table{
		Title: "Shard scaling: YCSB-A throughput and update tails vs shard count",
		Header: []string{"shards", "write kops/s", "read kops/s", "total kops/s",
			"upd p50", "upd p99", "upd p999", "upd p9999"},
	}
	snap := ShardSnapshot{
		Workload:    "A",
		DurationSec: o.Duration.Seconds(),
		ValueBytes:  o.ValueBytes,
		Records:     o.Records,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
	}
	var err error
	withLatency(o, func() {
		for _, n := range shardCounts(o) {
			oo := o
			oo.Shards = n
			var res RunResult
			store, e := newShardedDStore(oo, n, false)
			if e != nil {
				err = e
				return
			}
			res, err = runWorkload(store, ycsb.A(o.Records, o.ValueBytes), oo)
			store.Close()
			if err != nil {
				return
			}
			secs := o.Duration.Seconds()
			pt := ShardPoint{
				Shards:      n,
				Threads:     o.Threads,
				WriteKops:   float64(res.Update.Count) / secs / 1000,
				ReadKops:    float64(res.Read.Count) / secs / 1000,
				TotalKops:   float64(res.TotalOps) / secs / 1000,
				UpdP50Us:    float64(res.Update.P50) / 1000,
				UpdP99Us:    float64(res.Update.P99) / 1000,
				UpdP999Us:   float64(res.Update.P999) / 1000,
				UpdP9999Us:  float64(res.Update.P9999Ns) / 1000,
				ReadP9999Us: float64(res.Read.P9999Ns) / 1000,
			}
			snap.Points = append(snap.Points, pt)
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", n),
				fmt.Sprintf("%.1f", pt.WriteKops),
				fmt.Sprintf("%.1f", pt.ReadKops),
				fmt.Sprintf("%.1f", pt.TotalKops),
				fmt.Sprintf("%.1f", pt.UpdP50Us),
				fmt.Sprintf("%.1f", pt.UpdP99Us),
				fmt.Sprintf("%.1f", pt.UpdP999Us),
				fmt.Sprintf("%.1f", pt.UpdP9999Us),
			})
		}
	})
	if err != nil {
		return err
	}
	if len(snap.Points) > 1 {
		base := snap.Points[0]
		last := snap.Points[len(snap.Points)-1]
		snap.CoreBound = snap.GOMAXPROCS < last.Shards
		if base.WriteKops > 0 {
			snap.WriteSpeedup = last.WriteKops / base.WriteKops
			t.Notes = append(t.Notes, fmt.Sprintf(
				"%d-shard write throughput = %.2fx single-store", last.Shards, snap.WriteSpeedup))
		}
		if last.UpdP9999Us > 0 {
			snap.TailReduction = base.UpdP9999Us / last.UpdP9999Us
			t.Notes = append(t.Notes, fmt.Sprintf(
				"%d-shard update p9999 = %.1f µs (%.2fx lower than single-store's %.1f µs)",
				last.Shards, last.UpdP9999Us, snap.TailReduction, base.UpdP9999Us))
		}
		if snap.CoreBound {
			t.Notes = append(t.Notes, fmt.Sprintf(
				"core-bound: GOMAXPROCS=%d < %d shards — every configuration saturates the same cores, so aggregate throughput cannot scale here; the sharding win is in the tails (per-shard logs and 1/N-size staggered checkpoints)",
				snap.GOMAXPROCS, last.Shards))
		}
	}
	t.Notes = append(t.Notes,
		"expected shape: write kops scales with shards when cores >= shards (per-shard private log tails); p9999 no worse than single-store")
	t.Print(w)
	if o.ShardsJSON != "" {
		data, e := json.MarshalIndent(&snap, "", "  ")
		if e != nil {
			return e
		}
		if e := os.WriteFile(o.ShardsJSON, append(data, '\n'), 0o644); e != nil {
			return fmt.Errorf("write %s: %w", o.ShardsJSON, e)
		}
		fmt.Fprintf(w, "  snapshot written to %s\n", o.ShardsJSON)
	}
	return nil
}
