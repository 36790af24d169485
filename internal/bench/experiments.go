package bench

import (
	"fmt"
	"time"

	"dstore"
	"dstore/internal/baselines/daxfs"
	"dstore/internal/hist"
	"dstore/internal/kvapi"
	"dstore/internal/ycsb"
)

// Experiment is one entry of the registry: an id and the function that runs
// it and returns its tables.
type Experiment struct {
	ID  string
	Run func(o Options) ([]*Table, error)
}

// Experiments is the registry, in paper order (fig1..table5) followed by the
// extensions.
var Experiments = []Experiment{
	{"fig1", Fig1},
	{"fig5", Fig5},
	{"fig6", Fig6},
	{"table3", Table3},
	{"fig7", Fig7},
	{"fig8", Fig8},
	{"fig9", Fig9},
	{"table4", Table4},
	{"fig10", Fig10},
	{"table5", Table5},
	{"ycsbfull", YCSBFull},
	{"shards", Shards},
	{"cache", Cache},
	{"txn", Txns},
	{"reshard", Reshard},
	{"batch", Batch},
}

// Find returns the experiment registered under id, or nil.
func Find(id string) *Experiment {
	for i := range Experiments {
		if Experiments[i].ID == id {
			return &Experiments[i]
		}
	}
	return nil
}

// pctlCols are the percentile columns of one latency distribution, under
// the headers given (an empty one keeps that percentile out of the print).
func pctlCols(p50, p90, p99, p999, p9999 string) []Col {
	return []Col{{"p50_us", p50, us}, {"p90_us", p90, us}, {"p99_us", p99, us},
		{"p999_us", p999, us}, {"p9999_us", p9999, us}}
}

func pctlCells(s hist.Summary) []any { return []any{s.P50, s.P90, s.P99, s.P999, s.P9999Ns} }

// Fig1 regenerates Figure 1: the tail-latency overhead of checkpoints.
// Write-latency percentiles for a full-subscription 50R/50W workload, with
// checkpoints enabled vs disabled, for the cached systems and DStore-CoW;
// DStore-DIPPER is shown for reference (its tails are checkpoint
// insensitive).
func Fig1(o Options) ([]*Table, error) {
	o.setDefaults()
	t := newTable("Figure 1: tail latency overhead of checkpoints (write latency, us)",
		append([]Col{{"system", "system", nil}, {"checkpoints", "checkpoints", nil}}, pctlCols("p50", "", "p99", "p999", "p9999")...)...)
	makers := []func(ckptOff bool) (kvapi.Store, error){
		func(off bool) (kvapi.Store, error) { return newLSM(o, off, false) },
		func(off bool) (kvapi.Store, error) { return newBT(o, off, false) },
		func(off bool) (kvapi.Store, error) { return newDStore(o, dstore.ModeCoW, false, off, false) },
		func(off bool) (kvapi.Store, error) { return newDStore(o, dstore.ModeDIPPER, false, off, false) },
	}
	err := withLatency(o, func() error {
		for _, ckptOn := range []bool{true, false} {
			for _, mk := range makers {
				s, err := mk(!ckptOn)
				if err != nil {
					return err
				}
				res, err := runWorkload(s, ycsb.WriteHeavy(o.Records, o.ValueBytes), o)
				s.Close()
				if err != nil {
					return err
				}
				t.Row(append([]any{s.Label(), ckptOn}, pctlCells(res.Update)...)...)
			}
		}
		return nil
	})
	t.Note("expected shape: cached systems' p999/p9999 drop sharply with checkpoints off; DStore (DIPPER) is insensitive")
	return []*Table{t}, err
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
func Fig5(o Options) ([]*Table, error) {
	o.setDefaults()
	t := newTable("Figure 5: YCSB operation latency (average, us)",
		Col{"system", "system", nil},
		Col{"a_read_mean_us", "A read", us}, Col{"a_upd_mean_us", "A update", us},
		Col{"b_read_mean_us", "B read", us}, Col{"b_upd_mean_us", "B update", us})
	err := withLatency(o, func() error {
		var a []RunResult // workload A's results, by system
		for _, wl := range []ycsb.Workload{ycsb.A(o.Records, o.ValueBytes), ycsb.B(o.Records, o.ValueBytes)} {
			systems, err := allSystems(o, false)
			if err != nil {
				return err
			}
			for i, s := range systems {
				res, err := runWorkload(s, wl, o)
				s.Close()
				if err != nil {
					return err
				}
				if wl.Name == "A" {
					a = append(a, res)
				} else {
					t.Row(s.Label(), a[i].Read.MeanNs, a[i].Update.MeanNs, res.Read.MeanNs, res.Update.MeanNs)
				}
			}
		}
		return nil
	})
	t.Note("expected shape: DStore lowest in all four columns (paper: up to 4x)")
	return []*Table{t}, err
}

// writeBreakdown runs ops 4 KB-aligned puts of size bytes through a fresh
// DStore and returns its per-stage write-pipeline breakdown.
func writeBreakdown(o Options, size, ops int) (dstore.Breakdown, error) {
	kv, err := newDStore(o, dstore.ModeDIPPER, false, false, false)
	if err != nil {
		return dstore.Breakdown{}, err
	}
	defer kv.Close()
	ctx := kv.Store().NewContext()
	val := make([]byte, size)
	for i := 0; i < ops; i++ {
		if err := ctx.Put(ycsb.Key(i%o.Records), val); err != nil {
			return dstore.Breakdown{}, err
		}
	}
	return kv.Store().Breakdown(), nil
}

// Fig6 regenerates Figure 6: metadata overhead of 4 KB file writes versus
// the DAX filesystems.
func Fig6(o Options) ([]*Table, error) {
	o.setDefaults()
	t := newTable("Figure 6: metadata overhead of a 4KB file write (ns/op)",
		Col{"system", "system", nil}, Col{"metadata_ns", "metadata ns/op", count})
	const ops = 2000
	err := withLatency(o, func() error {
		// DStore: the non-SSD components of its write pipeline.
		bd, err := writeBreakdown(o, 4096, ops)
		if err != nil {
			return err
		}
		t.Row("DStore", (bd.LogNs+bd.PoolNs+bd.MetaNs+bd.TreeNs)/bd.Count)

		for _, fs := range daxfs.All(true) {
			start := time.Now()
			for i := 0; i < ops; i++ {
				fs.WriteMeta(uint64(i % 64))
			}
			t.Row(fs.Label(), time.Since(start).Nanoseconds()/ops)
		}
		return nil
	})
	t.Note("expected shape: DStore < NOVA < xfs-DAX < ext4-DAX (volatile metadata + one logical log record)")
	return []*Table{t}, err
}

// Table3 regenerates Table 3: the time breakdown of write requests.
func Table3(o Options) ([]*Table, error) {
	o.setDefaults()
	t := newTable("Table 3: time breakdown of write requests",
		Col{"size", "size", nil}, Col{"component", "component", nil}, Col{"ns", "ns", count},
		Col{"cycles", "cycles@2.7GHz", count}, Col{"pct_of_total", "% of total", f2})
	err := withLatency(o, func() error {
		for _, size := range []int{4096, 16384} {
			oo := o
			oo.ValueBytes = size
			bd, err := writeBreakdown(oo, size, 2000)
			if err != nil {
				return err
			}
			row := func(name string, ns uint64) {
				per := ns / bd.Count
				t.Row(fmt.Sprintf("%dKB", size/1024), name, per, uint64(float64(per)*2.7),
					100*float64(ns)/float64(bd.TotalNs))
			}
			row("NVMe Write", bd.SSDNs)
			row("BTree", bd.TreeNs)
			row("Metadata", bd.PoolNs+bd.MetaNs)
			row("Log Flush", bd.LogNs)
			row("Total", bd.TotalNs)
		}
		return nil
	})
	t.Note("expected shape: NVMe write ~88-96%% of total; software overhead ~10%% at 4KB; log flush and metadata are request-size agnostic")
	return []*Table{t}, err
}

// Fig7 regenerates Figure 7: throughput and device bandwidth over a time
// window for a full-subscription 50R/50W workload.
func Fig7(o Options) ([]*Table, error) {
	o.setDefaults()
	var tables []*Table
	err := withLatency(o, func() error {
		systems, err := allSystems(o, false)
		if err != nil {
			return err
		}
		for _, s := range systems {
			res, err := runWorkload(s, ycsb.WriteHeavy(o.Records, o.ValueBytes), o)
			s.Close()
			if err != nil {
				return err
			}
			t := newTable(fmt.Sprintf("Figure 7: %s over time (50R/50W)", res.System),
				Col{"t", "t", nil}, Col{"kops", "kops/s", kops},
				Col{"ssd_mbs", "SSD MB/s", mb}, Col{"pmem_mbs", "PMEM MB/s", mb})
			for i, tput := range res.Throughput.Values {
				at := fmt.Sprintf("%ds", int(float64(i+1)*o.SampleInterval.Seconds()))
				if i < len(res.SSDBandwidth.Values) {
					t.Row(at, tput, res.SSDBandwidth.Values[i], res.PMEMBandwidth.Values[i])
				} else {
					t.Row(at, tput, "-", "-")
				}
			}
			tp := res.Throughput
			_, lo := kops(tp.Min())
			_, mean := kops(tp.Mean())
			_, hi := kops(tp.Max())
			t.Row("min/mean/max", lo+"/"+mean+"/"+hi, "", "")
			tables = append(tables, t)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	tables[len(tables)-1].Note("expected shape: DStore's worst sample beats other systems' best; MongoDB-PMSE flat but low; troughs during cached systems' checkpoints")
	return tables, nil
}

// Fig8 regenerates Figure 8: tail-latency curves for YCSB A and B.
func Fig8(o Options) ([]*Table, error) {
	o.setDefaults()
	t := newTable("Figure 8: tail latency at full subscription (us)",
		append([]Col{{"workload", "workload", nil}, {"system", "system", nil}, {"op", "op", nil}}, pctlCols("p50", "p90", "p99", "p999", "p9999")...)...)
	err := withLatency(o, func() error {
		for _, wl := range []ycsb.Workload{ycsb.A(o.Records, o.ValueBytes), ycsb.B(o.Records, o.ValueBytes)} {
			systems, err := allSystems(o, false)
			if err != nil {
				return err
			}
			for _, s := range systems {
				res, err := runWorkload(s, wl, o)
				s.Close()
				if err != nil {
					return err
				}
				t.Row(append([]any{wl.Name, res.System, "read"}, pctlCells(res.Read)...)...)
				t.Row(append([]any{wl.Name, res.System, "update"}, pctlCells(res.Update)...)...)
			}
		}
		return nil
	})
	t.Note("expected shape: DStore flattest curves and lowest values (paper: up to 6x); CoW p9999 high on A, near-DStore on B")
	return []*Table{t}, err
}

// Fig9 regenerates Figure 9: the effect of the optimizations on write
// latency — naive physical logging + CoW, then +logical logging, +DIPPER,
// +OE.
func Fig9(o Options) ([]*Table, error) {
	o.setDefaults()
	t := newTable("Figure 9: effect of optimizations on write latency (us)",
		Col{"variant", "variant", nil}, Col{"mean_us", "avg", us}, Col{"p9999_us", "p9999", us})
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
	err := withLatency(o, func() error {
		for _, v := range variants {
			kv, err := newDStore(o, v.mode, v.disableOE, false, false)
			if err != nil {
				return err
			}
			res, err := runWorkload(kv, ycsb.WriteHeavy(o.Records, o.ValueBytes), o)
			kv.Close()
			if err != nil {
				return err
			}
			t.Row(v.label, res.Update.MeanNs, res.Update.P9999Ns)
		}
		return nil
	})
	t.Note("expected shape: logical logging improves avg most (~21%% in paper); DIPPER improves p9999 most (~7.6x); OE adds a final few percent")
	return []*Table{t}, err
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
func Table4(o Options) ([]*Table, error) {
	o.setDefaults()
	t := newTable(fmt.Sprintf("Table 4: recovery time with %d x %dB objects (ms)", o.Objects, o.ValueBytes),
		Col{"system", "system", nil}, Col{"shutdown", "shutdown", nil},
		Col{"metadata_ms", "metadata", ms}, Col{"replay_ms", "replay", ms}, Col{"total_ms", "total", ms})
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
	makers := []func(track bool) (kvapi.Store, error){
		func(track bool) (kvapi.Store, error) { return newLSM(o, false, track) },
		func(track bool) (kvapi.Store, error) { return newBT(o, false, track) },
		func(track bool) (kvapi.Store, error) { return newIP(o, track) },
		func(track bool) (kvapi.Store, error) { return newDStore(o, dstore.ModeDIPPER, false, false, track) },
	}
	err := withLatency(o, func() error {
		for _, shutdown := range []string{"clean", "crash"} {
			for _, mkr := range makers {
				s, err := mkr(shutdown == "crash")
				if err != nil {
					return err
				}
				if err = loadObjects(s, shutdown == "crash"); err != nil {
					return err
				}
				cr := s.(kvapi.Crasher)
				if shutdown == "crash" {
					// The worst-case crash state was prepared mid-load.
					err = cr.Crash(o.Seed)
				} else if kv, ok := s.(*dstore.KV); ok {
					// No final checkpoint, per the paper's clean-shutdown
					// semantics (its Table 4 clean recovery replays log
					// records).
					err = kv.CleanCloseNoCheckpoint()
				} else {
					err = s.Close()
				}
				if err != nil {
					return err
				}
				metaNs, replayNs, err := cr.Recover()
				if err != nil {
					return err
				}
				t.Row(s.Label(), shutdown, metaNs, replayNs, metaNs+replayNs)
				s.Close()
			}
		}
		return nil
	})
	t.Note("expected shape: clean-shutdown recovery slowest for DStore (volatile space rebuilt from PMEM); crash recovery fastest for MongoDB-PMSE; crash >> clean for cached systems")
	return []*Table{t}, err
}

// footprint loads o.Objects objects into s and returns its DRAM, PMEM and
// SSD bytes with their sum as a multiple of the application data.
func footprint(s kvapi.Store, o Options) (dram, pm, ssdB uint64, amp float64, err error) {
	oo := o
	oo.Records = o.Objects
	if err := preload(s, oo); err != nil {
		return 0, 0, 0, 0, err
	}
	dram, pm, ssdB = s.(kvapi.FootprintReporter).FootprintBytes()
	dataBytes := uint64(o.Objects) * uint64(o.ValueBytes)
	return dram, pm, ssdB, float64(dram+pm+ssdB) / float64(dataBytes), nil
}

// Fig10 regenerates Figure 10: the storage footprint after loading the
// object set.
func Fig10(o Options) ([]*Table, error) {
	o.setDefaults()
	t := newTable(fmt.Sprintf("Figure 10: storage footprint with %d x %dB objects (MiB)", o.Objects, o.ValueBytes),
		Col{"system", "system", nil}, Col{"dram_mib", "DRAM", mib}, Col{"pmem_mib", "PMEM", mib},
		Col{"ssd_mib", "SSD", mib}, Col{"total_mib", "total", mib}, Col{"space_amp", "space amplification", f2})
	err := withLatency(o, func() error {
		systems, err := allSystems(o, false)
		if err != nil {
			return err
		}
		for _, s := range systems {
			dram, pm, ssdB, amp, err := footprint(s, o)
			if err != nil {
				return err
			}
			t.Row(s.Label(), dram, pm, ssdB, dram+pm+ssdB, amp)
			s.Close()
		}
		return nil
	})
	t.Note("expected shape: MongoDB-PMSE smallest (uncached, single copy); cached systems inflated by reserved caches; DStore between (metadata duplicated in DRAM+2xPMEM, data once on SSD)")
	return []*Table{t}, err
}

// Table5 regenerates Table 5: the achievable-SLO summary (worst-case
// throughput, p9999 latency, crash recovery, space amplification).
func Table5(o Options) ([]*Table, error) {
	o.setDefaults()
	t := newTable("Table 5: summary of achievable service level objectives",
		Col{"system", "system", nil}, Col{"throughput_slo_kops", "throughput SLO (kops/s)", kops},
		Col{"p9999_us", "p9999 (us)", us}, Col{"recovery_ms", "recovery (ms)", ms}, Col{"space_amp", "space ampl.", f2})
	err := withLatency(o, func() error {
		all, err := allSystems(o, true)
		if err != nil {
			return err
		}
		// The paper's row order: the cached B-tree first, DStore last.
		for _, s := range []kvapi.Store{all[3], all[4], all[2], all[1], all[0]} {
			res, err := runWorkload(s, ycsb.WriteHeavy(o.Records, o.ValueBytes), o)
			if err != nil {
				return err
			}
			// Recovery: crash now (worst case for DStore) and measure.
			prepareWorstCase(s)
			cr := s.(kvapi.Crasher)
			if err = cr.Crash(o.Seed); err != nil {
				return err
			}
			metaNs, replayNs, err := cr.Recover()
			if err != nil {
				return err
			}
			// Space amplification is measured after a Fig. 10-style load on
			// the recovered store (the paper takes each SLO column from its
			// own experiment).
			_, _, _, amp, err := footprint(s, o)
			if err != nil {
				return err
			}
			t.Row(s.Label(), res.Throughput.Min(), max(res.Update.P9999Ns, res.Read.P9999Ns), metaNs+replayNs, amp)
			s.Close()
		}
		return nil
	})
	t.Note("worst-case values, as in the paper: throughput = lowest 1s sample; expected shape: DStore best throughput and p9999 SLO, MongoDB-PMSE best recovery and space SLO")
	t.Note("space amplification measured after a %d-object load, against its %d bytes of application data",
		o.Objects, uint64(o.Objects)*uint64(o.ValueBytes))
	return []*Table{t}, err
}
