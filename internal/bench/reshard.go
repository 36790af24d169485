package bench

import (
	"fmt"
	"time"

	"dstore"
	"dstore/internal/ycsb"
)

// This file is the live-resharding experiment: YCSB-A throughput before,
// during, and after an AddShard on a serving store. The migration streams
// moving keys donor→recipient while the workload keeps writing
// (double-applied under per-key stripes) and flips the routing epoch
// atomically, so the question the experiment answers is what that costs: the
// during-window shows the copy-phase interference, and the after-window must
// recover to steady state (the acceptance bar is within 10% of the
// pre-migration rate).

// Reshard regenerates the live-migration cost profile: a YCSB-A run before
// the membership change, one overlapping it, and one after the flip.
func Reshard(o Options) ([]*Table, error) {
	o.setDefaults()
	base := o.Shards
	if base < 2 {
		base = 2
	}
	oo := o
	oo.Shards = base
	store, err := newShardedDStore(oo, base, false)
	if err != nil {
		return nil, err
	}
	defer store.Close()
	sh := store.Store().(*dstore.Sharded)

	t := newTable(fmt.Sprintf("Live resharding: YCSB-A across an AddShard (%d -> %d shards)", base, base+1),
		append([]Col{{"window", "window", nil}}, ycsbCols(map[string]string{
			"write_kops": "write kops/s", "read_kops": "read kops/s", "total_kops": "total kops/s",
			"upd_p99_us": "upd p99", "upd_p9999_us": "upd p9999",
		})...)...)
	wl := ycsb.A(o.Records, o.ValueBytes)
	window := func(name string) error {
		res, err := runWorkload(store, wl, oo)
		if err == nil {
			t.Row(append([]any{name}, ycsbCells(res, o)...)...)
		}
		return err
	}
	type migResult struct {
		idx int
		dur time.Duration
		err error
	}
	var mig migResult
	err = withLatency(o, func() error {
		if err := window("before"); err != nil {
			return err
		}
		// The during-window workload overlaps the migration: AddShard runs
		// in the background while the YCSB clients keep hammering the store,
		// so its copy stream and their writes contend for the same keys.
		done := make(chan migResult, 1)
		go func() {
			t0 := time.Now()
			idx, merr := sh.AddShard()
			done <- migResult{idx: idx, dur: time.Since(t0), err: merr}
		}()
		if err := window("during"); err != nil {
			return err
		}
		if mig = <-done; mig.err != nil {
			return fmt.Errorf("AddShard under load: %w", mig.err)
		}
		return window("after")
	})
	if err != nil {
		return nil, err
	}

	migrationMs := float64(mig.dur.Nanoseconds()) / 1e6
	moved := sh.ShardKeyCounts()[mig.idx]
	t.Summary = fields{{"base_shards", base}, {"new_shard", mig.idx},
		{"ring_epoch_after", sh.RingEpoch()}, {"migration_ms", migrationMs}, {"keys_on_new_shard", moved}}
	if before := t.Num(0, "total_kops"); before > 0 {
		// Post-flip steady-state total throughput as a fraction of
		// pre-migration; the acceptance bar is >= 0.9.
		ratio := t.Num(2, "total_kops") / before
		t.Summary = append(t.Summary, field{"after_over_before_total", ratio}, field{"within_10pct", ratio >= 0.9})
		t.Note("post-flip steady state = %.2fx pre-migration total throughput (bar: >= 0.90)", ratio)
	}
	t.Note("migration moved %d keys to shard %d in %.1f ms (ring epoch %d); the during-window dip is the copy stream + double-applied writes",
		moved, mig.idx, migrationMs, sh.RingEpoch())
	t.Note("expected shape: during-window throughput dips while keys stream; after-window recovers to within 10%% of before")
	return []*Table{t}, nil
}
