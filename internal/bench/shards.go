package bench

import (
	"runtime"

	"dstore/internal/ycsb"
)

// This file is the shard-scaling experiment: YCSB-A over 1→N independent
// DIPPER shards on the same aggregate device geometry. The paper keeps one
// logical log per instance, so every write serializes on that log's tail;
// partitioning is the implied scaling path, and this experiment measures it
// with the same harness that regenerates the paper's figures.

// Shards regenerates the shard-scaling comparison: YCSB-A write/read
// throughput and update tail latency as the store is partitioned across
// independent DIPPER instances. The sweep is the paper-motivated 1→4→8,
// extended with o.Shards when the caller asked for a count outside it; the
// headline ratios compare its largest count against the single store.
func Shards(o Options) ([]*Table, error) {
	o.setDefaults()
	t := newTable("Shard scaling: YCSB-A throughput and update tails vs shard count",
		append([]Col{{"shards", "shards", count}, {"threads", "", count}}, ycsbCols(map[string]string{
			"write_kops": "write kops/s", "read_kops": "read kops/s", "total_kops": "total kops/s",
			"upd_p50_us": "upd p50", "upd_p99_us": "upd p99", "upd_p999_us": "upd p999", "upd_p9999_us": "upd p9999",
		})...)...)
	counts := sweep([]int{1, 4, 8}, o.Shards)
	err := withLatency(o, func() error {
		for _, n := range counts {
			oo := o
			oo.Shards = n
			store, err := newShardedDStore(oo, n, false)
			if err != nil {
				return err
			}
			res, err := runWorkload(store, ycsb.A(o.Records, o.ValueBytes), oo)
			store.Close()
			if err != nil {
				return err
			}
			t.Row(append([]any{n, o.Threads}, ycsbCells(res, o)...)...)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	last, most := len(counts)-1, counts[len(counts)-1]
	// Shard throughput scaling needs at least as many cores as shards: below
	// that every configuration saturates the same core budget and the
	// sharding win shows up in the tails, not the aggregate rate.
	coreBound := runtime.GOMAXPROCS(0) < most
	t.Summary = fields{{"core_bound", coreBound}}
	if base := t.Num(0, "write_kops"); base > 0 {
		speedup := t.Num(last, "write_kops") / base
		t.Summary = append(t.Summary, field{"write_speedup_vs_single", speedup})
		t.Note("%d-shard write throughput = %.2fx single-store", most, speedup)
	}
	if tail := t.Num(last, "upd_p9999_us"); tail > 0 {
		reduction := t.Num(0, "upd_p9999_us") / tail
		t.Summary = append(t.Summary, field{"upd_p9999_reduction_vs_single", reduction})
		t.Note("%d-shard update p9999 = %.1f µs (%.2fx lower than single-store's %.1f µs)",
			most, tail, reduction, t.Num(0, "upd_p9999_us"))
	}
	if coreBound {
		t.Note("core-bound: GOMAXPROCS=%d < %d shards — every configuration saturates the same cores, so aggregate throughput cannot scale here; the sharding win is in the tails (per-shard logs and 1/N-size checkpoints, each shard on its own schedule)",
			runtime.GOMAXPROCS(0), most)
	}
	t.Note("expected shape: write kops scales with shards when cores >= shards (per-shard private log tails); p9999 no worse than single-store")
	return []*Table{t}, nil
}
