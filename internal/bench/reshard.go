package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
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

// ReshardWindow is one measurement window in the JSON snapshot.
type ReshardWindow struct {
	Window     string  `json:"window"` // before | during | after
	WriteKops  float64 `json:"write_kops"`
	ReadKops   float64 `json:"read_kops"`
	TotalKops  float64 `json:"total_kops"`
	UpdP99Us   float64 `json:"upd_p99_us"`
	UpdP9999Us float64 `json:"upd_p9999_us"`
}

// ReshardSnapshot is the BENCH_reshard.json layout.
type ReshardSnapshot struct {
	Workload    string          `json:"workload"`
	DurationSec float64         `json:"duration_sec"`
	ValueBytes  int             `json:"value_bytes"`
	Records     int             `json:"records"`
	BaseShards  int             `json:"base_shards"`
	NewShard    int             `json:"new_shard"`
	RingEpoch   uint64          `json:"ring_epoch_after"`
	MigrationMs float64         `json:"migration_ms"`
	MovedKeys   uint64          `json:"keys_on_new_shard"`
	Windows     []ReshardWindow `json:"windows"`
	// AfterOverBefore is the post-flip steady-state total throughput as a
	// fraction of pre-migration; the acceptance bar is >= 0.9.
	AfterOverBefore float64 `json:"after_over_before_total"`
	Within10Pct     bool    `json:"within_10pct"`
}

// Reshard regenerates the live-migration cost profile: a YCSB-A run before
// the membership change, one overlapping it, and one after the flip. With
// o.ReshardJSON set, the windows are also written there as a
// machine-readable snapshot.
func Reshard(o Options, w io.Writer) error {
	o.setDefaults()
	base := o.Shards
	if base < 2 {
		base = 2
	}
	oo := o
	oo.Shards = base
	store, err := newShardedDStore(oo, base, false)
	if err != nil {
		return err
	}
	defer store.Close()
	sh := store.Store().(*dstore.Sharded)

	t := Table{
		Title: fmt.Sprintf("Live resharding: YCSB-A across an AddShard (%d -> %d shards)", base, base+1),
		Header: []string{"window", "write kops/s", "read kops/s", "total kops/s",
			"upd p99", "upd p9999"},
	}
	snap := ReshardSnapshot{
		Workload:    "A",
		DurationSec: o.Duration.Seconds(),
		ValueBytes:  o.ValueBytes,
		Records:     o.Records,
		BaseShards:  base,
	}
	wl := ycsb.A(o.Records, o.ValueBytes)
	secs := o.Duration.Seconds()
	window := func(name string, res RunResult) {
		pt := ReshardWindow{
			Window:     name,
			WriteKops:  float64(res.Update.Count) / secs / 1000,
			ReadKops:   float64(res.Read.Count) / secs / 1000,
			TotalKops:  float64(res.TotalOps) / secs / 1000,
			UpdP99Us:   float64(res.Update.P99) / 1000,
			UpdP9999Us: float64(res.Update.P9999Ns) / 1000,
		}
		snap.Windows = append(snap.Windows, pt)
		t.Rows = append(t.Rows, []string{name,
			fmt.Sprintf("%.1f", pt.WriteKops),
			fmt.Sprintf("%.1f", pt.ReadKops),
			fmt.Sprintf("%.1f", pt.TotalKops),
			fmt.Sprintf("%.1f", pt.UpdP99Us),
			fmt.Sprintf("%.1f", pt.UpdP9999Us),
		})
	}

	withLatency(o, func() {
		var res RunResult
		if res, err = runWorkload(store, wl, oo); err != nil {
			return
		}
		window("before", res)

		// The during-window workload overlaps the migration: AddShard runs
		// in the background while the YCSB clients keep hammering the store,
		// so its copy stream and their writes contend for the same keys.
		type migResult struct {
			idx int
			dur time.Duration
			err error
		}
		done := make(chan migResult, 1)
		go func() {
			t0 := time.Now()
			idx, merr := sh.AddShard()
			done <- migResult{idx: idx, dur: time.Since(t0), err: merr}
		}()
		if res, err = runWorkload(store, wl, oo); err != nil {
			return
		}
		window("during", res)
		mig := <-done
		if mig.err != nil {
			err = fmt.Errorf("AddShard under load: %w", mig.err)
			return
		}
		snap.NewShard = mig.idx
		snap.MigrationMs = float64(mig.dur.Nanoseconds()) / 1e6
		snap.RingEpoch = sh.RingEpoch()
		snap.MovedKeys = sh.ShardKeyCounts()[mig.idx]

		if res, err = runWorkload(store, wl, oo); err != nil {
			return
		}
		window("after", res)
	})
	if err != nil {
		return err
	}

	if len(snap.Windows) == 3 && snap.Windows[0].TotalKops > 0 {
		snap.AfterOverBefore = snap.Windows[2].TotalKops / snap.Windows[0].TotalKops
		snap.Within10Pct = snap.AfterOverBefore >= 0.9
		t.Notes = append(t.Notes, fmt.Sprintf(
			"post-flip steady state = %.2fx pre-migration total throughput (bar: >= 0.90)",
			snap.AfterOverBefore))
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"migration moved %d keys to shard %d in %.1f ms (ring epoch %d); the during-window dip is the copy stream + double-applied writes",
		snap.MovedKeys, snap.NewShard, snap.MigrationMs, snap.RingEpoch))
	t.Notes = append(t.Notes,
		"expected shape: during-window throughput dips while keys stream; after-window recovers to within 10% of before")
	t.Print(w)

	if o.ReshardJSON != "" {
		data, e := json.MarshalIndent(&snap, "", "  ")
		if e != nil {
			return e
		}
		if e := os.WriteFile(o.ReshardJSON, append(data, '\n'), 0o644); e != nil {
			return fmt.Errorf("write %s: %w", o.ReshardJSON, e)
		}
		fmt.Fprintf(w, "  snapshot written to %s\n", o.ReshardJSON)
	}
	return nil
}
