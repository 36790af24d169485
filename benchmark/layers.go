package main

import (
	"fmt"
	"math"
)

// runTraced takes the per-layer metrics. Half of the window runs untraced
// on one fresh store (the free counters, and the throughput the traced half
// is compared to), half runs traced on another (the spans and the store's
// stage timers); then come a short recovery phase for its breakdown and the
// layer probes.
func runTraced(w spec, opt options, cal calibration, res *result, t *tally) (metrics, error) {
	m := metrics{}
	for _, d := range perLayer {
		m[d.Name] = nan // a layer that is not on this workload's path stays so
	}
	half := opt.window / 2

	s, err := format(w, nil)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	ts := newThreads(s, opt, nil, expectOps(half))
	free := measure(s, ts, opt, half, nil)
	t.add(free.ops, free.failed)
	free.noteSteal(&res.Host)
	t.add(s.sweep(ts, fixedState{}))
	countMetrics(s, &free, m)
	m["tail.slow_ops_ppm"], m["tail.update_p9999_us"], res.Samples["tail.update_p9999_us"] = free.tail()
	var ringData []byte
	if s.sharded != nil {
		ringData = s.sharded.RingData()
	}
	if err := s.close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}

	tr := newTracer(w, expectOps(half))
	if s, err = format(w, tr); err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	ts = newThreads(s, opt, tr, expectOps(half))
	traced := measure(s, ts, opt, half, tr)
	t.add(traced.ops, traced.failed)
	traced.noteSteal(&res.Host)
	t.add(s.sweep(ts, fixedState{}))
	sum, err := tr.finish(ts, opt.outDir)
	if err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	m["trace.overhead_pct"] = 100 * (free.kops() - traced.kops()) / free.kops()
	if sum.backendDropped > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf("trace: %d server-side spans past the preallocated room were not kept", sum.backendDropped))
	}
	res.Notes = append(res.Notes, "trace written to "+sum.file)

	if err := s.stopServing(); err != nil {
		return nil, fmt.Errorf("stop serving: %w", err)
	}
	rec, err := s.recoverCycles(opt.recoverCycles, opt.fixedPuts)
	if err != nil {
		return nil, err
	}
	t.add(rec.checked, rec.bad)
	m["dipper.recover_ms"], m["dipper.recover_metadata_ms"], m["dipper.recover_replay_ms"] = rec.totalMs, rec.metadataMs, rec.replayMs
	if err := s.close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}

	m["pmem.persist_64b_ns"], m["ssd.write_4k_us"], m["ssd.read_4k_us"] = cal.persist64bNs, cal.write4kUs, cal.read4kUs
	if err := probeWAL(m); err != nil {
		return nil, err
	}
	if err := probeBtree(w, m); err != nil {
		return nil, err
	}
	if w.CacheBytes > 0 {
		probeCache(w, m)
	}
	if ringData != nil {
		if err := probeRing(w, ringData, m); err != nil {
			return nil, err
		}
	}
	if w.Net {
		if err := probeWire(w, m); err != nil {
			return nil, err
		}
		if err := probeNullRTT(w, m); err != nil {
			return nil, err
		}
	}
	spanMetrics(w, tr, &traced, sum, m, res)
	return m, nil
}

// countMetrics derives the count metrics from the free counters' deltas
// over the untraced window.
func countMetrics(s *sut, win *window, m metrics) {
	a, b := &win.before, &win.after
	d := func(x, y uint64) float64 { return float64(y - x) }
	ops := float64(win.ops)
	reads := float64(len(win.reads))
	updates := float64(len(win.updates))
	if s.spec.Batch > 0 {
		reads, updates = reads*float64(s.spec.Batch), updates*float64(s.spec.Batch)
	}

	if s.spec.Net {
		m["server.requests_per_op"] = d(a.server.Requests, b.server.Requests) / ops
		m["server.protocol_errors"] = d(a.server.ProtocolErrors, b.server.ProtocolErrors)
	} else {
		m["server.requests_per_op"], m["server.protocol_errors"] = 0, 0
	}

	m["wal.gc_records_per_batch"] = ratio(d(a.engine.GCRecords, b.engine.GCRecords), d(a.engine.GCBatches, b.engine.GCBatches))
	m["wal.gc_parked_ratio"] = ratio(d(a.engine.GCParked, b.engine.GCParked), d(a.engine.GCRecords, b.engine.GCRecords))

	ckpts := d(a.engine.Checkpoints, b.engine.Checkpoints)
	ckptNs := d(a.engine.CheckpointNanos, b.engine.CheckpointNanos)
	m["dipper.checkpoints"] = ckpts
	m["dipper.checkpoint_ms"] = ratio(ckptNs/1e6, ckpts)
	m["dipper.checkpoint_busy_pct"] = 100 * ckptNs / float64(win.elapsed) / float64(len(s.engines))
	m["dipper.shadow_bytes_per_update"] = ratio(d(a.engine.ShadowBytesCloned, b.engine.ShadowBytesCloned), updates)
	m["dipper.replayed_per_checkpoint"] = ratio(d(a.engine.RecordsReplayed, b.engine.RecordsReplayed), ckpts)

	m["pmem.fences_per_update"] = ratio(d(a.pmem.Fences, b.pmem.Fences), updates)
	m["pmem.lines_flushed_per_update"] = ratio(d(a.pmem.LinesFlushed, b.pmem.LinesFlushed), updates)
	m["pmem.bytes_written_per_update"] = ratio(d(a.pmem.BytesWritten, b.pmem.BytesWritten), updates)
	m["ssd.bytes_written_per_update"] = ratio(d(a.ssd.BytesWritten, b.ssd.BytesWritten), updates)
	m["ssd.bytes_read_per_read"] = ratio(d(a.ssd.BytesRead, b.ssd.BytesRead), reads)

	if s.spec.CacheBytes > 0 {
		hits, misses := d(a.cache.Hits, b.cache.Hits), d(a.cache.Misses, b.cache.Misses)
		m["cache.hit_ratio"] = ratio(hits, hits+misses)
		m["cache.evictions_per_kread"] = ratio(1e3*d(a.cache.Evictions, b.cache.Evictions), reads)
		m["cache.invalidations_per_update"] = ratio(d(a.cache.Invalidations, b.cache.Invalidations), updates)
	}

	m["runtime.allocs_per_op"] = d(a.mem.Mallocs, b.mem.Mallocs) / ops
	m["runtime.alloc_bytes_per_op"] = d(a.mem.TotalAlloc, b.mem.TotalAlloc) / ops
	m["runtime.gc_cycles"] = float64(b.mem.NumGC - a.mem.NumGC)
	m["runtime.gc_pause_ms"] = d(a.mem.PauseTotalNs, b.mem.PauseTotalNs) / 1e6
	m["runtime.heap_live_mb"] = float64(b.mem.HeapAlloc) / (1 << 20)
}

// spanMetrics derives the span metrics from the traced window and writes
// the ledger's reconciliation lines: each parent beside the sum of its
// parts, and each unit cost times its count beside the stage it explains.
func spanMetrics(w spec, tr *tracer, win *window, sum traceSummary, m metrics, res *result) {
	note := func(format string, args ...any) { res.Notes = append(res.Notes, fmt.Sprintf(format, args...)) }

	// The store's own stage timers (Table 3), per Put, over the traced
	// window; what they leave of their total is "other".
	bd := win.after.bd
	n := float64(bd.Count - win.before.bd.Count)
	stage := func(a, b uint64) float64 { return ratio(float64(b-a)/1e3, n) }
	logUs := stage(win.before.bd.LogNs, bd.LogNs)
	poolUs := stage(win.before.bd.PoolNs, bd.PoolNs)
	metaUs := stage(win.before.bd.MetaNs, bd.MetaNs)
	treeUs := stage(win.before.bd.TreeNs, bd.TreeNs)
	ssdUs := stage(win.before.bd.SSDNs, bd.SSDNs)
	totalUs := stage(win.before.bd.TotalNs, bd.TotalNs)
	m["store.put_log_us"], m["store.put_pool_us"], m["store.put_meta_us"] = logUs, poolUs, metaUs
	m["store.put_tree_us"], m["store.put_ssd_us"] = treeUs, ssdUs
	m["store.put_other_us"] = totalUs - logUs - poolUs - metaUs - treeUs - ssdUs
	m["dipper.slow_ops_in_ckpt_share"] = ratio(float64(sum.slowInCkpt), float64(sum.slowOps))

	if !w.Net {
		m["store.put_us"], m["store.get_us"] = tr.meanUs(spanStorePut), tr.meanUs(spanStoreGet)
		note("ledger: store.put_us %.2f = stages %.2f (log %.2f + pool %.2f + meta %.2f + tree %.2f + ssd %.2f + other %.2f), %+.1f%% outside the store's own timer",
			m["store.put_us"], totalUs, logUs, poolUs, metaUs, treeUs, ssdUs, m["store.put_other_us"], 100*(m["store.put_us"]-totalUs)/totalUs)
	} else {
		put, get, bput, bget := uint8(spanClientPut), uint8(spanClientGet), uint8(spanBackendPut), uint8(spanBackendGet)
		nullPut, nullGet := "server.null_rtt_put_us", "server.null_rtt_get_us"
		if w.Batch > 0 {
			put, get, bput, bget = spanClientMPut, spanClientMGet, spanBackendMPut, spanBackendMGet
			nullPut, nullGet = "server.null_rtt_mput32_us", "server.null_rtt_mget32_us"
		}
		m["client.call_put_us"], m["client.call_get_us"] = tr.meanUs(put), tr.meanUs(get)
		m[spanNames[bput]+"_us"], m[spanNames[bget]+"_us"] = tr.meanUs(bput), tr.meanUs(bget)
		m["client.unexplained_put_us"] = tr.meanUs(put) - tr.meanUs(bput) - m[nullPut]
		m["client.unexplained_get_us"] = tr.meanUs(get) - tr.meanUs(bget) - m[nullGet]
		note("ledger: client.call_put_us %.2f = backend %.2f + null rtt %.2f + unexplained %.2f (%.0f%% of the call)",
			tr.meanUs(put), tr.meanUs(bput), m[nullPut], m["client.unexplained_put_us"], 100*m["client.unexplained_put_us"]/tr.meanUs(put))
		note("ledger: client.call_get_us %.2f = backend %.2f + null rtt %.2f + unexplained %.2f (%.0f%% of the call)",
			tr.meanUs(get), tr.meanUs(bget), m[nullGet], m["client.unexplained_get_us"], 100*m["client.unexplained_get_us"]/tr.meanUs(get))
		note("ledger: store stages per put %.2f us (log %.2f + pool %.2f + meta %.2f + tree %.2f + ssd %.2f + other %.2f)",
			totalUs, logUs, poolUs, metaUs, treeUs, ssdUs, m["store.put_other_us"])
	}

	// Unit cost x count beside the measured stage.
	blocks := math.Ceil(float64(w.ValueBytes) / 4096)
	note("ledger: pmem.persist_64b_ns %.0f x pmem.fences_per_update %.2f = %.2f us of store.put_log_us %.2f; wal.append_commit_us_1w %.2f",
		m["pmem.persist_64b_ns"], m["pmem.fences_per_update"], m["pmem.persist_64b_ns"]*m["pmem.fences_per_update"]/1e3, logUs, m["wal.append_commit_us_1w"])
	note("ledger: ssd.write_4k_us %.2f x %.0f block(s) per update = %.2f us of store.put_ssd_us %.2f",
		m["ssd.write_4k_us"], blocks, m["ssd.write_4k_us"]*blocks, ssdUs)
	note("ledger: btree.insert_ns %.0f of store.put_tree_us %.2f", m["btree.insert_ns"], treeUs)
	if w.CacheBytes > 0 {
		note("ledger: a read is btree.get_ns %.0f + cache.get_hit_ns %.0f on a hit, + ssd.read_4k_us %.2f and cache.insert_ns %.0f on the %.0f%% that miss",
			m["btree.get_ns"], m["cache.get_hit_ns"], m["ssd.read_4k_us"], m["cache.insert_ns"], 100*(1-m["cache.hit_ratio"]))
	} else {
		note("ledger: a read is btree.get_ns %.0f + ssd.read_4k_us %.2f (cache off)", m["btree.get_ns"], m["ssd.read_4k_us"])
	}
}
