package bench

// Batch experiment (DESIGN.md §14): what does the client's Batcher — MPUT/MGET
// coalescing of concurrent callers' singleton ops — buy over singleton frames
// on a networked YCSB-A workload, as the number of concurrent clients grows?
// The server's WAL group commit is on in both rows, so the Batcher is the
// only variable. One client has nothing to coalesce with and pays the extra
// hop, so the Batcher loses there; under fan-in one frame carries many
// sub-ops and write throughput pulls away.

import (
	"fmt"
	"runtime"
	"runtime/debug"

	"dstore"
	"dstore/internal/ycsb"
)

// batchClientCounts is the sweep's x-axis.
var batchClientCounts = []int{1, 4, 16, 64}

// batchReps is how many times each (clients, batching) cell runs; the
// reported point is the per-metric median. Single runs are hostage to host
// load drift — on a shared box the off/on cells of one pair can land in
// different load regimes and swing the ratio either way.
const batchReps = 3

// batchGCPercent is the Go GC setting of every measurement window: off (see
// runBatchCell for why).
const batchGCPercent = -1

// Batch regenerates the batching sweep: networked YCSB-A at 1/4/16/64
// clients, batching off (singleton frames) vs on (Batcher-coalesced frames),
// group commit on under both.
func Batch(o Options) ([]*Table, error) {
	o.setDefaults()
	cols := append([]Col{{"clients", "clients", count}, {"batched", "batching", nil}}, ycsbCols(map[string]string{
		"write_kops": "write kops/s", "read_kops": "read kops/s",
		"upd_p50_us": "w p50 us", "upd_p99_us": "w p99 us", "upd_p9999_us": "w p9999 us", "read_p99_us": "r p99 us",
	})...)
	t := newTable(fmt.Sprintf("Batching: networked YCSB-A, singleton frames vs MPUT/MGET coalescing (%v/run)", o.Duration),
		append(cols, Col{"gc_batches", "", count}, Col{"gc_records", "", count})...)
	t.Summary = fields{{"runs_per_cell", batchReps}}
	hostGC := t.GCPercent
	t.GCPercent = batchGCPercent
	err := withLatency(o, func() error {
		for _, clients := range batchClientCounts {
			for _, batched := range []bool{false, true} {
				// Interleave nothing, repeat everything: each cell runs
				// batchReps times back-to-back and reports medians.
				runs := make([][]any, 0, batchReps)
				for rep := 0; rep < batchReps; rep++ {
					cells, err := runBatchCell(o, clients, batched)
					if err != nil {
						return fmt.Errorf("batch bench (clients=%d batched=%v): %w", clients, batched, err)
					}
					runs = append(runs, cells)
				}
				t.Row(medianCells(runs)...)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, clients := range batchClientCounts {
		off, on := 2*i, 2*i+1
		if t.Num(off, "write_kops") > 0 {
			t.Note("%d clients: batching %.2fx write throughput, p9999 %.2fx", clients,
				t.Num(on, "write_kops")/t.Num(off, "write_kops"), t.Num(on, "upd_p9999_us")/t.Num(off, "upd_p9999_us"))
		}
	}
	t.Note("off = singleton frames; on = Batcher-coalesced MPUT/MGET frames; WAL group commit is on in both")
	t.Note("expected shape: the Batcher loses at 1 and 4 clients and wins from 16 concurrent callers per client process up")
	t.Note("each cell is the per-metric median of %d runs on a fresh store", batchReps)
	t.Note("latencies are client-observed and include any coalescing delay in batched mode")
	t.Note("measurement windows ran with Go GC off (GC percent %d; the process runs at %d)", batchGCPercent, hostGC)
	return []*Table{t}, nil
}

// runBatchCell measures one run of one cell: a fresh loopback server (group
// commit on, whatever the batching mode) driven by `clients` workload threads.
func runBatchCell(o Options, clients int, batched bool) ([]any, error) {
	cfg := dstoreConfig(o, dstore.ModeDIPPER, false, false, false)
	// Size the log to the run so checkpoints don't fire mid-measurement.
	// Checkpoint stalls are orthogonal to batching, but they trigger per
	// byte written — the faster mode would pay proportionally more of
	// them per wall-second, biasing the tail comparison. Both modes get
	// the identical run-length log (the fig1 normalization). The budget
	// assumes up to ~64MB/s of record bytes and the auto-checkpoint
	// trigger at 70% occupancy, both with margin — batched runs have
	// reached ~13MB/s on this host.
	cfg.LogBytes = uint64(16<<20) + uint64(o.Duration.Seconds()*float64(64<<20))
	kv, st, stop, err := loopback(cfg, clients, batched)
	if err != nil {
		return nil, err
	}
	defer stop()
	po := o
	po.Threads = clients

	// The measurement window runs with Go GC off (restored, and the heap
	// reclaimed, between cells — the run-length log above keeps the idle
	// heap bounded). At batched throughput the collector's mark assists
	// on this one-core host inject multi-ms stalls in proportion to
	// allocation rate, so the faster mode pays more of them per
	// wall-second and the p9999 comparison measures the harness
	// language's GC pacing instead of fence and frame amortization — the
	// GC-off tails are the ones the system under test actually produces.
	prevGC := debug.SetGCPercent(batchGCPercent)
	res, err := runWorkload(kv, ycsb.A(po.Records, po.ValueBytes), po)
	debug.SetGCPercent(prevGC)
	runtime.GC()
	if err != nil {
		return nil, err
	}
	gc := st.Stats().Engine
	return append(append([]any{clients, batched}, ycsbCells(res, po)...), gc.GCBatches, gc.GCRecords), nil
}
