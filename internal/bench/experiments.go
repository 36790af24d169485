package bench

import (
	"fmt"
	"io"
	"time"

	"dstore"
	"dstore/internal/baselines/daxfs"
	"dstore/internal/kvapi"
	"dstore/internal/ycsb"
)

// Experiments maps experiment ids (fig1..fig10, table3..table5) to runners.
// Each runner prints the regenerated rows/series to w.
var Experiments = map[string]func(o Options, w io.Writer) error{
	"fig1":     Fig1,
	"fig5":     Fig5,
	"fig6":     Fig6,
	"table3":   Table3,
	"fig7":     Fig7,
	"fig8":     Fig8,
	"fig9":     Fig9,
	"table4":   Table4,
	"fig10":    Fig10,
	"table5":   Table5,
	"ycsbfull": YCSBFull,
	"shards":   Shards,
	"cache":    Cache,
	"txn":      Txns,
	"reshard":  Reshard,
	"batch":    Batch,
}

// ExperimentIDs lists the experiment ids in paper order.
var ExperimentIDs = []string{
	"fig1", "fig5", "fig6", "table3", "fig7", "fig8", "fig9",
	"table4", "fig10", "table5", "ycsbfull", "shards", "cache", "txn",
	"reshard", "batch",
}

// Fig1 regenerates Figure 1: the tail-latency overhead of checkpoints.
// Write-latency percentiles for a full-subscription 50R/50W workload, with
// checkpoints enabled vs disabled, for the cached systems and DStore-CoW;
// DStore-DIPPER is shown for reference (its tails are checkpoint
// insensitive).
func Fig1(o Options, w io.Writer) error {
	o.setDefaults()
	t := Table{
		Title:  "Figure 1: tail latency overhead of checkpoints (write latency, us)",
		Header: []string{"system", "checkpoints", "p50", "p99", "p999", "p9999"},
	}
	type variant struct {
		label string
		ckpt  bool
		mk    func(ckptOff bool) (kvapi.Store, error)
	}
	mkRow := func(label string, ckptOn bool, s kvapi.Store) error {
		defer s.Close()
		res, err := runWorkload(s, ycsb.WriteHeavy(o.Records, o.ValueBytes), o)
		if err != nil {
			return err
		}
		state := "on"
		if !ckptOn {
			state = "off"
		}
		u := res.Update
		t.Rows = append(t.Rows, []string{label, state, us(u.P50), us(u.P99), us(u.P999), us(u.P9999Ns)})
		return nil
	}
	var err error
	withLatency(o, func() {
		for _, ckptOn := range []bool{true, false} {
			lsm, e := newLSM(o, !ckptOn, false)
			if e != nil {
				err = e
				return
			}
			if e := mkRow(lsm.Label(), ckptOn, lsm); e != nil {
				err = e
				return
			}
			bt, e := newBT(o, !ckptOn, false)
			if e != nil {
				err = e
				return
			}
			if e := mkRow(bt.Label(), ckptOn, bt); e != nil {
				err = e
				return
			}
			cow, e := newDStore(o, dstore.ModeCoW, false, !ckptOn, false)
			if e != nil {
				err = e
				return
			}
			if e := mkRow(cow.Label(), ckptOn, cow); e != nil {
				err = e
				return
			}
			dip, e := newDStore(o, dstore.ModeDIPPER, false, !ckptOn, false)
			if e != nil {
				err = e
				return
			}
			if e := mkRow(dip.Label(), ckptOn, dip); e != nil {
				err = e
				return
			}
		}
	})
	if err != nil {
		return err
	}
	t.Notes = append(t.Notes,
		"expected shape: cached systems' p999/p9999 drop sharply with checkpoints off; DStore (DIPPER) is insensitive")
	t.Print(w)
	return nil
}

// allSystems builds the five systems of the paper's headline comparison.
func allSystems(o Options, track bool) ([]kvapi.Store, error) {
	ds, err := newDStore(o, dstore.ModeDIPPER, false, false, track)
	if err != nil {
		return nil, err
	}
	cow, err := newDStore(o, dstore.ModeCoW, false, false, track)
	if err != nil {
		return nil, err
	}
	lsm, err := newLSM(o, false, track)
	if err != nil {
		return nil, err
	}
	bt, err := newBT(o, false, track)
	if err != nil {
		return nil, err
	}
	ip, err := newIP(o, track)
	if err != nil {
		return nil, err
	}
	return []kvapi.Store{ds, cow, lsm, bt, ip}, nil
}

// Fig5 regenerates Figure 5: YCSB A/B average operation latency per system.
func Fig5(o Options, w io.Writer) error {
	o.setDefaults()
	t := Table{
		Title: "Figure 5: YCSB operation latency (average, us)",
		Header: []string{"system",
			"A read", "A update", "B read", "B update"},
	}
	var err error
	withLatency(o, func() {
		var systems []kvapi.Store
		for _, wl := range []ycsb.Workload{ycsb.A(o.Records, o.ValueBytes), ycsb.B(o.Records, o.ValueBytes)} {
			systems, err = allSystems(o, false)
			if err != nil {
				return
			}
			for i, s := range systems {
				var res RunResult
				res, err = runWorkload(s, wl, o)
				s.Close()
				if err != nil {
					return
				}
				if wl.Name == "A" {
					t.Rows = append(t.Rows, []string{s.Label(),
						usF(res.Read.MeanNs), usF(res.Update.MeanNs), "", ""})
				} else {
					t.Rows[i][3] = usF(res.Read.MeanNs)
					t.Rows[i][4] = usF(res.Update.MeanNs)
				}
			}
		}
	})
	if err != nil {
		return err
	}
	t.Notes = append(t.Notes, "expected shape: DStore lowest in all four columns (paper: up to 4x)")
	t.Print(w)
	return nil
}

// Fig6 regenerates Figure 6: metadata overhead of 4 KB file writes versus
// the DAX filesystems.
func Fig6(o Options, w io.Writer) error {
	o.setDefaults()
	t := Table{
		Title:  "Figure 6: metadata overhead of a 4KB file write (ns/op)",
		Header: []string{"system", "metadata ns/op"},
	}
	const ops = 2000
	var err error
	withLatency(o, func() {
		// DStore: the non-SSD components of its write pipeline.
		var kv *dstore.KV
		kv, err = newDStore(o, dstore.ModeDIPPER, false, false, false)
		if err != nil {
			return
		}
		ctx := kv.Store().NewContext()
		for i := 0; i < ops; i++ {
			if err = ctx.Put(ycsb.Key(i%o.Records), make([]byte, 4096)); err != nil {
				return
			}
		}
		bd := kv.Store().Breakdown()
		kv.Close()
		meta := (bd.LogNs + bd.PoolNs + bd.MetaNs + bd.TreeNs) / bd.Count
		t.Rows = append(t.Rows, []string{"DStore", fmt.Sprintf("%d", meta)})

		for _, fs := range daxfs.All(true) {
			start := time.Now()
			for i := 0; i < ops; i++ {
				fs.WriteMeta(uint64(i % 64))
			}
			perOp := time.Since(start).Nanoseconds() / ops
			t.Rows = append(t.Rows, []string{fs.Label(), fmt.Sprintf("%d", perOp)})
		}
	})
	if err != nil {
		return err
	}
	t.Notes = append(t.Notes, "expected shape: DStore < NOVA < xfs-DAX < ext4-DAX (volatile metadata + one logical log record)")
	t.Print(w)
	return nil
}

// Table3 regenerates Table 3: the time breakdown of write requests.
func Table3(o Options, w io.Writer) error {
	o.setDefaults()
	t := Table{
		Title:  "Table 3: time breakdown of write requests",
		Header: []string{"size", "component", "ns", "cycles@2.7GHz", "% of total"},
	}
	const ops = 2000
	var err error
	withLatency(o, func() {
		for _, size := range []int{4096, 16384} {
			oo := o
			oo.ValueBytes = size
			var kv *dstore.KV
			kv, err = newDStore(oo, dstore.ModeDIPPER, false, false, false)
			if err != nil {
				return
			}
			ctx := kv.Store().NewContext()
			val := make([]byte, size)
			for i := 0; i < ops; i++ {
				if err = ctx.Put(ycsb.Key(i%oo.Records), val); err != nil {
					return
				}
			}
			bd := kv.Store().Breakdown()
			kv.Close()
			n := bd.Count
			row := func(name string, ns uint64) {
				per := ns / n
				t.Rows = append(t.Rows, []string{
					fmt.Sprintf("%dKB", size/1024), name,
					fmt.Sprintf("%d", per),
					fmt.Sprintf("%d", uint64(float64(per)*2.7)),
					fmt.Sprintf("%.2f", 100*float64(ns)/float64(bd.TotalNs)),
				})
			}
			row("NVMe Write", bd.SSDNs)
			row("BTree", bd.TreeNs)
			row("Metadata", bd.PoolNs+bd.MetaNs)
			row("Log Flush", bd.LogNs)
			row("Total", bd.TotalNs)
		}
	})
	if err != nil {
		return err
	}
	t.Notes = append(t.Notes,
		"expected shape: NVMe write ~88-96% of total; software overhead ~10% at 4KB; log flush and metadata are request-size agnostic")
	t.Print(w)
	return nil
}

// Fig7 regenerates Figure 7: throughput and device bandwidth over a time
// window for a full-subscription 50R/50W workload.
func Fig7(o Options, w io.Writer) error {
	o.setDefaults()
	var err error
	var tables []Table
	withLatency(o, func() {
		var systems []kvapi.Store
		systems, err = allSystems(o, false)
		if err != nil {
			return
		}
		for _, s := range systems {
			var res RunResult
			res, err = runWorkload(s, ycsb.WriteHeavy(o.Records, o.ValueBytes), o)
			s.Close()
			if err != nil {
				return
			}
			t := Table{
				Title:  fmt.Sprintf("Figure 7: %s over time (50R/50W)", res.System),
				Header: []string{"t", "kops/s", "SSD MB/s", "PMEM MB/s"},
			}
			for i := range res.Throughput.Values {
				row := []string{
					fmt.Sprintf("%ds", int(float64(i+1)*o.SampleInterval.Seconds())),
					kops(res.Throughput.Values[i]), "-", "-"}
				if i < len(res.SSDBandwidth.Values) {
					row[2] = mb(res.SSDBandwidth.Values[i])
					row[3] = mb(res.PMEMBandwidth.Values[i])
				}
				t.Rows = append(t.Rows, row)
			}
			t.Rows = append(t.Rows, []string{"min/mean/max",
				kops(res.Throughput.Min()) + "/" + kops(res.Throughput.Mean()) + "/" + kops(res.Throughput.Max()),
				"", ""})
			tables = append(tables, t)
		}
	})
	if err != nil {
		return err
	}
	for _, t := range tables {
		t.Print(w)
	}
	fmt.Fprintln(w, "  note: expected shape: DStore's worst sample beats other systems' best; MongoDB-PMSE flat but low; troughs during cached systems' checkpoints")
	return nil
}

// Fig8 regenerates Figure 8: tail-latency curves for YCSB A and B.
func Fig8(o Options, w io.Writer) error {
	o.setDefaults()
	t := Table{
		Title:  "Figure 8: tail latency at full subscription (us)",
		Header: []string{"workload", "system", "op", "p50", "p90", "p99", "p999", "p9999"},
	}
	var err error
	withLatency(o, func() {
		for _, wl := range []ycsb.Workload{ycsb.A(o.Records, o.ValueBytes), ycsb.B(o.Records, o.ValueBytes)} {
			var systems []kvapi.Store
			systems, err = allSystems(o, false)
			if err != nil {
				return
			}
			for _, s := range systems {
				var res RunResult
				res, err = runWorkload(s, wl, o)
				s.Close()
				if err != nil {
					return
				}
				r := res.Read
				t.Rows = append(t.Rows, []string{wl.Name, res.System, "read",
					us(r.P50), us(r.P90), us(r.P99), us(r.P999), us(r.P9999Ns)})
				u := res.Update
				t.Rows = append(t.Rows, []string{wl.Name, res.System, "update",
					us(u.P50), us(u.P90), us(u.P99), us(u.P999), us(u.P9999Ns)})
			}
		}
	})
	if err != nil {
		return err
	}
	t.Notes = append(t.Notes, "expected shape: DStore flattest curves and lowest values (paper: up to 6x); CoW p9999 high on A, near-DStore on B")
	t.Print(w)
	return nil
}

// Fig9 regenerates Figure 9: the effect of the optimizations on write
// latency — naive physical logging + CoW, then +logical logging, +DIPPER,
// +OE.
func Fig9(o Options, w io.Writer) error {
	o.setDefaults()
	t := Table{
		Title:  "Figure 9: effect of optimizations on write latency (us)",
		Header: []string{"variant", "avg", "p9999"},
	}
	variants := []struct {
		label     string
		mode      dstore.Mode
		disableOE bool
	}{
		{"Naive (physical log + CoW)", dstore.ModePhysical, true},
		{"+Logical logging", dstore.ModeCoW, true},
		{"+DIPPER", dstore.ModeDIPPER, true},
		{"+OE", dstore.ModeDIPPER, false},
	}
	var err error
	withLatency(o, func() {
		for _, v := range variants {
			var kv *dstore.KV
			kv, err = newDStore(o, v.mode, v.disableOE, false, false)
			if err != nil {
				return
			}
			var res RunResult
			res, err = runWorkload(kv, ycsb.WriteHeavy(o.Records, o.ValueBytes), o)
			kv.Close()
			if err != nil {
				return
			}
			t.Rows = append(t.Rows, []string{v.label,
				usF(res.Update.MeanNs), us(res.Update.P9999Ns)})
		}
	})
	if err != nil {
		return err
	}
	t.Notes = append(t.Notes,
		"expected shape: logical logging improves avg most (~21% in paper); DIPPER improves p9999 most (~7.6x); OE adds a final few percent")
	t.Print(w)
	return nil
}

// prepareWorstCase parks a single-instance DStore at its worst-case crash
// window (mid-checkpoint); the other systems have no such window.
func prepareWorstCase(s kvapi.Store) {
	if kv, ok := s.(*dstore.KV); ok {
		if st, ok := kv.Store().(*dstore.Store); ok {
			st.PrepareWorstCaseCrash()
		}
	}
}

// Table4 regenerates Table 4: system recovery times for a clean shutdown and
// a crash at the worst point (during a checkpoint for DStore).
func Table4(o Options, w io.Writer) error {
	o.setDefaults()
	t := Table{
		Title:  fmt.Sprintf("Table 4: recovery time with %d x %dB objects (ms)", o.Objects, o.ValueBytes),
		Header: []string{"system", "shutdown", "metadata", "replay", "total"},
	}
	// Load in two tranches around the checkpoint cut so a crash leaves both
	// an archived log to redo and active-log records to replay — the
	// paper's worst-case crash state. For the clean case the log simply
	// still holds the tail of the load (the paper's clean shutdown replays
	// log records too: DStore "must reconstruct its volatile space").
	loadObjects := func(s kvapi.Store, worstCase bool) error {
		oo := o
		oo.Records = o.Objects * 8 / 10
		if err := preload(s, oo); err != nil {
			return err
		}
		if worstCase {
			prepareWorstCase(s)
		}
		oo2 := o
		oo2.Records = o.Objects
		oo2.Seed = o.Seed + 1
		return preload(s, oo2)
	}
	type mk func(track bool) (kvapi.Store, error)
	makers := []mk{
		func(track bool) (kvapi.Store, error) { return newLSM(o, false, track) },
		func(track bool) (kvapi.Store, error) { return newBT(o, false, track) },
		func(track bool) (kvapi.Store, error) { return newIP(o, track) },
		func(track bool) (kvapi.Store, error) { return newDStore(o, dstore.ModeDIPPER, false, false, track) },
	}
	var err error
	withLatency(o, func() {
		for _, shutdown := range []string{"clean", "crash"} {
			for _, mkr := range makers {
				var s kvapi.Store
				s, err = mkr(shutdown == "crash")
				if err != nil {
					return
				}
				if err = loadObjects(s, shutdown == "crash"); err != nil {
					return
				}
				cr := s.(kvapi.Crasher)
				if shutdown == "clean" {
					if kv, ok := s.(*dstore.KV); ok {
						// No final checkpoint, per the paper's clean-
						// shutdown semantics (its Table 4 clean recovery
						// replays log records).
						err = kv.CleanCloseNoCheckpoint()
					} else {
						err = s.Close()
					}
					if err != nil {
						return
					}
				} else {
					// The worst-case crash state was prepared mid-load.
					if err = cr.Crash(o.Seed); err != nil {
						return
					}
				}
				var metaNs, replayNs int64
				metaNs, replayNs, err = cr.Recover()
				if err != nil {
					return
				}
				t.Rows = append(t.Rows, []string{s.Label(), shutdown,
					ms(metaNs), ms(replayNs), ms(metaNs + replayNs)})
				s.Close()
			}
		}
	})
	if err != nil {
		return err
	}
	t.Notes = append(t.Notes,
		"expected shape: clean-shutdown recovery slowest for DStore (volatile space rebuilt from PMEM); crash recovery fastest for MongoDB-PMSE; crash >> clean for cached systems")
	t.Print(w)
	return nil
}

// Fig10 regenerates Figure 10: the storage footprint after loading the
// object set.
func Fig10(o Options, w io.Writer) error {
	o.setDefaults()
	t := Table{
		Title:  fmt.Sprintf("Figure 10: storage footprint with %d x %dB objects (MiB)", o.Objects, o.ValueBytes),
		Header: []string{"system", "DRAM", "PMEM", "SSD", "total", "space amplification"},
	}
	dataBytes := uint64(o.Objects) * uint64(o.ValueBytes)
	var err error
	withLatency(o, func() {
		var systems []kvapi.Store
		systems, err = allSystems(o, false)
		if err != nil {
			return
		}
		for _, s := range systems {
			oo := o
			oo.Records = o.Objects
			if err = preload(s, oo); err != nil {
				return
			}
			fr := s.(kvapi.FootprintReporter)
			dram, pm, ssdB := fr.FootprintBytes()
			total := dram + pm + ssdB
			t.Rows = append(t.Rows, []string{s.Label(),
				mib(dram), mib(pm), mib(ssdB), mib(total),
				fmt.Sprintf("%.2f", float64(total)/float64(dataBytes))})
			s.Close()
		}
	})
	if err != nil {
		return err
	}
	t.Notes = append(t.Notes,
		"expected shape: MongoDB-PMSE smallest (uncached, single copy); cached systems inflated by reserved caches; DStore between (metadata duplicated in DRAM+2xPMEM, data once on SSD)")
	t.Print(w)
	return nil
}

// Table5 regenerates Table 5: the achievable-SLO summary (worst-case
// throughput, p9999 latency, crash recovery, space amplification).
func Table5(o Options, w io.Writer) error {
	o.setDefaults()
	t := Table{
		Title:  "Table 5: summary of achievable service level objectives",
		Header: []string{"system", "throughput SLO (kops/s)", "p9999 (us)", "recovery (ms)", "space ampl."},
	}
	// Space amplification is measured after a Fig. 10-style load (the paper
	// takes each SLO column from its own experiment).
	dataBytes := uint64(o.Objects) * uint64(o.ValueBytes)
	var err error
	withLatency(o, func() {
		mkAll := func(track bool) ([]kvapi.Store, error) {
			ds, e := newDStore(o, dstore.ModeDIPPER, false, false, track)
			if e != nil {
				return nil, e
			}
			cow, e := newDStore(o, dstore.ModeCoW, false, false, track)
			if e != nil {
				return nil, e
			}
			lsm, e := newLSM(o, false, track)
			if e != nil {
				return nil, e
			}
			bt, e := newBT(o, false, track)
			if e != nil {
				return nil, e
			}
			ip, e := newIP(o, track)
			if e != nil {
				return nil, e
			}
			return []kvapi.Store{bt, ip, lsm, cow, ds}, nil
		}
		var systems []kvapi.Store
		systems, err = mkAll(true)
		if err != nil {
			return
		}
		for _, s := range systems {
			var res RunResult
			res, err = runWorkload(s, ycsb.WriteHeavy(o.Records, o.ValueBytes), o)
			if err != nil {
				return
			}
			// Recovery: crash now (worst case for DStore) and measure.
			prepareWorstCase(s)
			cr := s.(kvapi.Crasher)
			if err = cr.Crash(o.Seed); err != nil {
				return
			}
			var metaNs, replayNs int64
			metaNs, replayNs, err = cr.Recover()
			if err != nil {
				return
			}
			// Fig. 10-style load on the recovered store for the space column.
			oo := o
			oo.Records = o.Objects
			if err = preload(s, oo); err != nil {
				return
			}
			fr := s.(kvapi.FootprintReporter)
			dram, pm, ssdB := fr.FootprintBytes()
			amp := float64(dram+pm+ssdB) / float64(dataBytes)
			worst := res.Update.P9999Ns
			if res.Read.P9999Ns > worst {
				worst = res.Read.P9999Ns
			}
			t.Rows = append(t.Rows, []string{s.Label(),
				kops(res.Throughput.Min()),
				us(worst),
				ms(metaNs + replayNs),
				fmt.Sprintf("%.2f", amp)})
			s.Close()
		}
	})
	if err != nil {
		return err
	}
	t.Notes = append(t.Notes,
		"worst-case values, as in the paper: throughput = lowest 1s sample; expected shape: DStore best throughput and p9999 SLO, MongoDB-PMSE best recovery and space SLO",
		fmt.Sprintf("space amplification measured after a %d-object load, against its %d bytes of application data", o.Objects, dataBytes))
	t.Print(w)
	return nil
}
