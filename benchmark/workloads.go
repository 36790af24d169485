package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"dstore"
	"dstore/internal/client"
	"dstore/internal/server"
	"dstore/internal/ycsb"
)

// clients is the closed-loop client count of every workload: DStore's
// callers (an embedding application thread, a pooled wire client) each wait
// for their reply, and the host this benchmark was sized on has two cores.
// More cores do not raise it; fewer set core_bound in the output.
const clients = 2

// spec is one workload. The names are fixed: later changes claim gains by
// them.
type spec struct {
	Name string
	// Why is the one line BENCHMARK.json carries.
	Why        string
	Records    int
	ValueBytes int
	// ReadShare is the YCSB read proportion (A: 0.5, B: 0.95); keys are
	// zipfian.
	ReadShare  float64
	CacheBytes uint64
	// Shards > 0 formats a dstore.Sharded of that many shards.
	Shards int
	// Net puts the store behind a loopback wire server and drives it
	// through the pooled client.
	Net bool
	// Batch > 0 makes every op an MGet or MPut frame of that many distinct
	// keys, alternating; latency is then per frame, throughput per sub-op.
	Batch int
	// SlowLimit is the latency past which an op counts into slow_ops_ppm.
	SlowLimit time.Duration
}

var workloads = []spec{
	{
		Name: "emb_a", Records: 20000, ValueBytes: 4096, ReadShare: 0.5, SlowLimit: time.Millisecond,
		Why: "embedded YCSB-A on 4 KiB values, cache off: the write path (wal, pmem fence, ssd write, pool/meta/btree) and dipper checkpoints do the work; client, wire, server, cache, ring do none",
	},
	{
		Name: "emb_b_cache16", Records: 20000, ValueBytes: 4096, ReadShare: 0.95, CacheBytes: 16 << 20, SlowLimit: time.Millisecond,
		Why: "embedded YCSB-B with a 16 MiB cache under a 78 MiB working set: btree lookup, cache probe/evict and ssd read dominate; wal and checkpoints run at under a third of emb_a's rate",
	},
	{
		Name: "net_a", Records: 20000, ValueBytes: 4096, ReadShare: 0.5, Net: true, SlowLimit: time.Millisecond,
		Why: "the emb_a store and mix behind a loopback server, singleton PUT/GET frames: same store work plus client, wire, server and kernel, so a store gain moves both and a wire gain only this one",
	},
	{
		Name: "net_mbatch_sharded", Records: 50000, ValueBytes: 256, ReadShare: 0.5, CacheBytes: 64 << 20, Shards: 2, Net: true, Batch: 32, SlowLimit: 5 * time.Millisecond,
		Why: "32-key MGET/MPUT frames on 256 B values over 2 shards, cache fits: ring routing, mopPool fan-out, group-commit batches over one, invalidation-only cache misses; per-op costs dominate per-byte costs",
	},
}

func workloadByName(name string) (spec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return spec{}, false
}

// ycsb returns the generator spec behind the workload's key and op stream.
func (w spec) ycsb() ycsb.Workload {
	return ycsb.Workload{Name: w.Name, ReadProportion: w.ReadShare, Records: w.Records, ValueBytes: w.ValueBytes, Zipfian: true}
}

// config sizes the store for the workload: one block per object with room
// for the copy a Put makes before it frees the old version, the default
// 4 MiB logs, group commit and device latency on.
func (w spec) config(breakdown bool) dstore.Config {
	return dstore.Config{
		Blocks:             uint64(w.Records) + 2048,
		MaxObjects:         uint64(w.Records) + 1024,
		MaxBlocksPerObject: 4,
		LogBytes:           4 << 20,
		CacheBytes:         w.CacheBytes,
		DeviceLatency:      true,
		Breakdown:          breakdown,
	}
}

// caller is what a load thread drives: an embedded request context or the
// wire client's adapter.
type caller interface {
	Put(key string, value []byte) error
	Get(key string, buf []byte) ([]byte, error)
}

// sut is one formatted system under test: the store, its engines (for the
// device and engine counters) and, on the net workloads, the loopback
// server and the pooled client in front of it.
type sut struct {
	spec    spec
	api     dstore.API
	sharded *dstore.Sharded // nil for a single store
	engines []*dstore.Store

	srv    *server.Server
	served chan error
	kv     *client.KV
}

// format builds a fresh store for w. With tr set the run is traced: the
// store times its write stages (Config.Breakdown) and the server is built
// over the benchmark's span-recording backend wrapper instead of the stock
// NewNetServer.
func format(w spec, tr *tracer) (*sut, error) {
	s := &sut{spec: w}
	cfg := w.config(tr != nil)
	if w.Shards > 0 {
		sh, err := dstore.FormatSharded(w.Shards, cfg)
		if err != nil {
			return nil, err
		}
		s.api, s.sharded = sh, sh
	} else {
		st, err := dstore.Format(cfg)
		if err != nil {
			return nil, err
		}
		s.api = st
	}
	s.bindEngines()
	if err := s.preload(); err != nil {
		s.close()
		return nil, err
	}
	if w.Net {
		if err := s.serve(tr); err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

func (s *sut) bindEngines() {
	s.engines = s.engines[:0]
	if s.sharded == nil {
		s.engines = append(s.engines, s.api.(*dstore.Store))
		return
	}
	for i := 0; i < s.sharded.Shards(); i++ {
		s.engines = append(s.engines, s.sharded.Shard(i))
	}
}

// preload stores every record with writer 0, version 0, from both client
// threads, straight into the store.
func (s *sut) preload() error {
	return inParallel(func(t int) error {
		c := s.api.NewContext()
		defer c.Finalize()
		val := make([]byte, s.spec.ValueBytes)
		for i := t; i < s.spec.Records; i += clients {
			key := ycsb.Key(i)
			stamp(val, key, writerPreload, 0)
			if err := c.Put(key, val); err != nil {
				return fmt.Errorf("preload %s: %w", key, err)
			}
		}
		return nil
	})
}

// serve starts the loopback server and dials one connection per client
// thread.
func (s *sut) serve(tr *tracer) error {
	if tr == nil {
		s.srv = s.api.NewNetServer(dstore.ServeOptions{})
	} else {
		s.srv = server.New(tr.wrapBackend(s.api.NetBackend()), server.Config{})
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.served = make(chan error, 1)
	go func() { s.served <- s.srv.Serve(ln) }()
	c, err := client.Dial(client.Config{Addr: ln.Addr().String(), Conns: clients})
	if err != nil {
		s.stopServing()
		return err
	}
	s.kv = client.NewKV(c, 0)
	return nil
}

// stopServing closes the client and drains the server. Shutdown also
// checkpoints the store.
func (s *sut) stopServing() error {
	if s.srv == nil {
		return nil
	}
	var err error
	if s.kv != nil {
		err = s.kv.Close()
		s.kv = nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if e := s.srv.Shutdown(ctx); e != nil && err == nil {
		err = e
	}
	if e := <-s.served; e != nil && !errors.Is(e, server.ErrServerClosed) && err == nil {
		err = e
	}
	s.srv = nil
	return err
}

// newCaller returns what one load thread calls.
func (s *sut) newCaller() caller {
	if s.kv != nil {
		return s.kv
	}
	return s.api.NewContext()
}

// reopen closes the store without its final checkpoint and recovers it from
// the same devices, as after a clean process exit with a populated log. It
// returns when the Open call began.
func (s *sut) reopen() (time.Time, error) {
	var cfgs []dstore.Config
	if s.sharded != nil {
		cfgs = s.sharded.ShardConfigs()
	} else {
		cfgs = []dstore.Config{s.spec.config(false)}
	}
	for i, e := range s.engines {
		cfgs[i].PMEM, cfgs[i].SSD = e.Devices()
	}
	if err := s.api.CloseNoCheckpoint(); err != nil {
		return time.Time{}, err
	}
	// The closed incarnation is garbage now. A recovering process starts
	// with none, so collect it before the clock starts; left alone, the
	// collector runs inside some Opens and not others.
	runtime.GC()
	start := time.Now()
	if s.sharded != nil {
		sh, err := dstore.OpenSharded(cfgs)
		if err != nil {
			return start, err
		}
		s.api, s.sharded = sh, sh
	} else {
		st, err := dstore.Open(cfgs[0])
		if err != nil {
			return start, err
		}
		s.api = st
	}
	s.bindEngines()
	return start, nil
}

func (s *sut) close() error {
	err := s.stopServing()
	if e := s.api.Close(); e != nil && err == nil {
		err = e
	}
	return err
}

// inParallel runs f once per client thread and returns the first error.
func inParallel(f func(thread int) error) error {
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for t := 0; t < clients; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			errs[t] = f(t)
		}(t)
	}
	wg.Wait()
	return errors.Join(errs...)
}
