// Package bench regenerates every table and figure of the paper's
// evaluation (§5). Each experiment is a function returning typed Tables
// (table.go) in the paper's units; cmd/dstore-bench prints them and writes
// the JSON snapshot, and bench_test.go exposes testing.B entry points.
//
// Absolute numbers come from the simulated devices (calibrated to the
// paper's testbed: Table 3 latencies, Optane flush costs) and are not
// expected to match the paper's hardware; the comparisons' *shapes* are the
// reproduction target. See EXPERIMENTS.md.
package bench

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dstore"
	"dstore/internal/baselines"
	"dstore/internal/baselines/btreestore"
	"dstore/internal/baselines/inplacestore"
	"dstore/internal/baselines/lsmstore"
	"dstore/internal/client"
	"dstore/internal/fault"
	"dstore/internal/hist"
	"dstore/internal/kvapi"
	"dstore/internal/latency"
	"dstore/internal/ycsb"
)

// Options scales and tunes an experiment run. Zero values choose defaults
// sized for a laptop-scale reproduction (the paper's 2 M-object, 28-core,
// 60-second runs shrink accordingly; pass bigger values to approach them).
type Options struct {
	// Threads is the client count ("full subscription" in the paper is one
	// per core). Default GOMAXPROCS.
	Threads int `json:"threads"`
	// Duration of each measured run. Default 3s.
	Duration time.Duration `json:"duration_ns"`
	// SampleInterval for throughput/bandwidth series (Fig. 7). Default 1s.
	SampleInterval time.Duration `json:"sample_interval_ns"`
	// Records is the live key-space size for YCSB runs. Default 10000.
	Records int `json:"records"`
	// ValueBytes is the object size. Default 4096 (the paper's standard).
	ValueBytes int `json:"value_bytes"`
	// Objects is the load size for the recovery/footprint experiments
	// (paper: 2M). Default 20000.
	Objects int `json:"objects"`
	// NoLatency disables the calibrated device latency injection, which is
	// otherwise on for every experiment.
	NoLatency bool `json:"no_latency"`
	// Seed drives workload generation.
	Seed int64 `json:"seed"`
	// FaultSeed seeds a reproducible SSD fault plan on DStore instances when
	// FaultRate > 0 (robustness experiments; see internal/fault).
	FaultSeed int64 `json:"fault_seed"`
	// FaultRate is the per-op probability of a transient SSD read/write
	// error. Zero disables fault injection.
	FaultRate float64 `json:"fault_rate"`
	// Shards partitions DStore instances across N independent shards
	// (dstore.FormatSharded). 0 or 1 means a single store. The shards
	// experiment additionally sweeps 1→Shards regardless of this value.
	Shards int `json:"shards"`
	// CacheMB sizes the DRAM block cache on DStore instances in MiB
	// (Config.CacheBytes). 0 disables. The cache experiment additionally
	// sweeps 0→CacheMB regardless of this value.
	CacheMB int `json:"cache_mb"`
	// NetBatch makes RunNet drive the workload through the client's
	// auto-coalescing Batcher (MPUT/MGET frames) instead of singleton ops.
	NetBatch bool `json:"net_batch"`
}

func (o *Options) setDefaults() {
	if o.Threads == 0 {
		o.Threads = runtime.GOMAXPROCS(0)
	}
	if o.Duration == 0 {
		o.Duration = 3 * time.Second
	}
	if o.SampleInterval == 0 {
		o.SampleInterval = time.Second
	}
	if o.Records == 0 {
		o.Records = 10000
	}
	if o.ValueBytes == 0 {
		o.ValueBytes = 4096
	}
	if o.Objects == 0 {
		o.Objects = 20000
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// withLatency runs f with device latency injection set per opts, restoring
// the previous state after.
func withLatency(o Options, f func() error) error {
	was := latency.Enabled()
	if o.NoLatency {
		latency.Disable()
	} else {
		latency.Enable()
	}
	defer func() {
		if was {
			latency.Enable()
		} else {
			latency.Disable()
		}
	}()
	return f()
}

// ------------------------------------------------------- system factories

// dstoreConfig sizes a DStore for the experiment scale.
func dstoreConfig(o Options, mode dstore.Mode, disableOE, disableCkpt, track bool) dstore.Config {
	blocksPerObj := uint64((o.ValueBytes + 4095) / 4096)
	if blocksPerObj == 0 {
		blocksPerObj = 1
	}
	maxObjects := uint64(o.Records + o.Objects + 1024)
	logBytes := uint64(4 << 20)
	if disableCkpt {
		// Fig. 1's no-checkpoint series needs the whole run in one log;
		// size it to the run length.
		logBytes = uint64(16<<20) + uint64(o.Duration.Seconds()*float64(8<<20))
	}
	var faults *fault.Plan
	if o.FaultRate > 0 {
		faults = fault.NewPlan(fault.Config{
			Seed:         o.FaultSeed,
			ReadErrRate:  o.FaultRate,
			WriteErrRate: o.FaultRate,
		})
	}
	return dstore.Config{
		Mode:               mode,
		DisableOE:          disableOE,
		SSDFaults:          faults,
		DisableCheckpoints: disableCkpt,
		Blocks:             maxObjects*blocksPerObj + 1024,
		MaxObjects:         maxObjects,
		MaxBlocksPerObject: blocksPerObj * 4,
		LogBytes:           logBytes,
		CacheBytes:         uint64(o.CacheMB) << 20,
		TrackPersistence:   track,
		DeviceLatency:      true,
		Breakdown:          true,
	}
}

func newDStore(o Options, mode dstore.Mode, disableOE, disableCkpt, track bool) (*dstore.KV, error) {
	cfg := dstoreConfig(o, mode, disableOE, disableCkpt, track)
	s, err := dstore.Format(cfg)
	if err != nil {
		return nil, err
	}
	return dstore.NewKV(s), nil
}

// newShardedDStore builds an n-shard DStore sized like newDStore's single
// instance (same aggregate geometry, so the comparison is capacity-fair);
// n <= 1 is that single instance.
func newShardedDStore(o Options, n int, track bool) (*dstore.KV, error) {
	if n <= 1 {
		return newDStore(o, dstore.ModeDIPPER, false, false, track)
	}
	sh, err := dstore.FormatSharded(n, dstoreConfig(o, dstore.ModeDIPPER, false, false, track))
	if err != nil {
		return nil, err
	}
	return dstore.NewKV(sh), nil
}

// baselineRig is the devices every comparison system runs on: latency on,
// capacity for the measured and the recovery key spaces.
func baselineRig(o Options, track bool) baselines.RigConfig {
	return baselines.RigConfig{
		Blocks:           uint64(2*(o.Records+o.Objects) + 1024),
		DeviceLatency:    true,
		TrackPersistence: track,
	}
}

func newLSM(o Options, disableCompaction, track bool) (*lsmstore.Store, error) {
	return lsmstore.New(lsmstore.Config{
		RigConfig:         baselineRig(o, track),
		WALBytes:          32 << 20,
		DisableCompaction: disableCompaction,
	})
}

func newBT(o Options, disableCkpt, track bool) (*btreestore.Store, error) {
	return btreestore.New(btreestore.Config{
		RigConfig:          baselineRig(o, track),
		JournalBytes:       32 << 20,
		CacheBytes:         uint64(o.Records) * uint64(o.ValueBytes) / 2,
		DisableCheckpoints: disableCkpt,
	})
}

func newIP(o Options, track bool) (*inplacestore.Store, error) {
	rig := baselineRig(o, track)
	return inplacestore.New(inplacestore.Config{RigConfig: rig, Cells: rig.Blocks})
}

// ------------------------------------------------------------ run engine

// RunResult aggregates one measured workload run on one system.
type RunResult struct {
	System        string
	Workload      string
	Read, Update  hist.Summary
	ReadH, UpdH   *hist.H
	Throughput    hist.Series // ops per second, one sample per interval
	SSDBandwidth  hist.Series // MB/s
	PMEMBandwidth hist.Series // MB/s
	TotalOps      uint64
}

// preload fills the key space so reads always hit.
func preload(s kvapi.Store, o Options) error {
	var wg sync.WaitGroup
	errCh := make(chan error, o.Threads)
	per := (o.Records + o.Threads - 1) / o.Threads
	for t := 0; t < o.Threads; t++ {
		lo, hi := t*per, (t+1)*per
		if hi > o.Records {
			hi = o.Records
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi, t int) {
			defer wg.Done()
			val := make([]byte, o.ValueBytes)
			for i := range val {
				val[i] = byte(i + t)
			}
			for i := lo; i < hi; i++ {
				if err := s.Put(ycsb.Key(i), val); err != nil {
					errCh <- fmt.Errorf("preload %s: %w", s.Label(), err)
					return
				}
			}
		}(lo, hi, t)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		return err
	default:
		return nil
	}
}

// drive is the closed loop every workload runs: o.Threads clients, each with
// its own generator over w seeded from o.Seed, run client until running()
// turns false at o.Duration. The first error wins.
func drive(o Options, w ycsb.Workload, client func(g *ycsb.Generator, running func() bool) error) error {
	deadline := time.Now().Add(o.Duration)
	running := func() bool { return time.Now().Before(deadline) }
	var wg sync.WaitGroup
	errCh := make(chan error, o.Threads)
	for t := 0; t < o.Threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			if err := client(ycsb.NewGenerator(w, o.Seed+int64(t)*7919), running); err != nil {
				errCh <- err
			}
		}(t)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		return err
	default:
		return nil
	}
}

// runWorkload preloads the key space and drives w against s with
// o.Threads clients for o.Duration, sampling throughput and device
// bandwidth each interval.
func runWorkload(s kvapi.Store, w ycsb.Workload, o Options) (RunResult, error) {
	if err := preload(s, o); err != nil {
		return RunResult{}, err
	}

	res := RunResult{
		System:   s.Label(),
		Workload: w.Name,
		ReadH:    &hist.H{},
		UpdH:     &hist.H{},
	}
	var ops atomic.Uint64
	stop := make(chan struct{})
	var samplerWg sync.WaitGroup

	ios, hasIO := s.(kvapi.IOStatsReporter)
	samplerWg.Add(1)
	go func() {
		defer samplerWg.Done()
		res.Throughput.Interval = o.SampleInterval
		res.SSDBandwidth.Interval = o.SampleInterval
		res.PMEMBandwidth.Interval = o.SampleInterval
		lastOps := uint64(0)
		var lastPM, lastSSD uint64
		if hasIO {
			lastPM, lastSSD = ios.IOBytes()
		}
		tick := time.NewTicker(o.SampleInterval)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				cur := ops.Load()
				res.Throughput.Values = append(res.Throughput.Values,
					float64(cur-lastOps)/o.SampleInterval.Seconds())
				lastOps = cur
				if hasIO {
					pm, ssdB := ios.IOBytes()
					res.PMEMBandwidth.Values = append(res.PMEMBandwidth.Values,
						float64(pm-lastPM)/o.SampleInterval.Seconds()/1e6)
					res.SSDBandwidth.Values = append(res.SSDBandwidth.Values,
						float64(ssdB-lastSSD)/o.SampleInterval.Seconds()/1e6)
					lastPM, lastSSD = pm, ssdB
				}
			}
		}
	}()

	err := drive(o, w, func(g *ycsb.Generator, running func() bool) error {
		var buf []byte
		for running() {
			op, key := g.Next()
			start := time.Now()
			switch op {
			case ycsb.OpRead:
				var err error
				buf, err = s.Get(key, buf[:0])
				if err != nil && err != kvapi.ErrNotFound {
					return err
				}
				res.ReadH.RecordSince(start)
			case ycsb.OpUpdate:
				if err := s.Put(key, g.Value()); err != nil {
					return err
				}
				res.UpdH.RecordSince(start)
			}
			ops.Add(1)
		}
		return nil
	})
	close(stop)
	samplerWg.Wait()
	if err != nil {
		return res, err
	}
	res.Read = res.ReadH.Summarize()
	res.Update = res.UpdH.Summarize()
	res.TotalOps = ops.Load()
	return res, nil
}

// ycsbCols are the columns of the standard YCSB row: throughput split by op
// kind and both latency distributions. headers names the columns a table
// prints (key → header); the rest go to the snapshot only.
func ycsbCols(headers map[string]string) []Col {
	cols := []Col{
		{Key: "write_kops", Fmt: kops}, {Key: "read_kops", Fmt: kops}, {Key: "total_kops", Fmt: kops},
		{Key: "upd_mean_us", Fmt: us}, {Key: "upd_p50_us", Fmt: us}, {Key: "upd_p99_us", Fmt: us},
		{Key: "upd_p999_us", Fmt: us}, {Key: "upd_p9999_us", Fmt: us},
		{Key: "read_mean_us", Fmt: us}, {Key: "read_p50_us", Fmt: us}, {Key: "read_p99_us", Fmt: us},
		{Key: "read_p999_us", Fmt: us}, {Key: "read_p9999_us", Fmt: us},
	}
	for i := range cols {
		cols[i].Header = headers[cols[i].Key]
	}
	return cols
}

// ycsbCells are res's cells for ycsbCols: rates over the o.Duration window.
func ycsbCells(res RunResult, o Options) []any {
	secs := o.Duration.Seconds()
	u, r := res.Update, res.Read
	return []any{
		float64(u.Count) / secs, float64(r.Count) / secs, float64(res.TotalOps) / secs,
		u.MeanNs, u.P50, u.P99, u.P999, u.P9999Ns,
		r.MeanNs, r.P50, r.P99, r.P999, r.P9999Ns,
	}
}

// loopback is the networked fixture: a store formatted from cfg, served on
// a loopback port, and dialled with conns pooled connections (through the
// coalescing Batcher when batched). stop tears all three down.
func loopback(cfg dstore.Config, conns int, batched bool) (kv *client.KV, st *dstore.Store, stop func(), err error) {
	if st, err = dstore.Format(cfg); err != nil {
		return nil, nil, nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close() //nolint:errcheck // bench teardown
		return nil, nil, nil, err
	}
	srv := st.NewNetServer(dstore.ServeOptions{})
	go srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on shutdown
	shutdown := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		srv.Shutdown(ctx) //nolint:errcheck // bench teardown
		cancel()
		st.Close() //nolint:errcheck // bench teardown
	}
	c, err := client.Dial(client.Config{Addr: ln.Addr().String(), Conns: conns})
	if err != nil {
		shutdown()
		return nil, nil, nil, err
	}
	kv = netKV(c, batched)
	return kv, st, func() {
		kv.Close() //nolint:errcheck // pooled conns; nothing to flush
		shutdown()
	}, nil
}
