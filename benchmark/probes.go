package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"runtime"
	"sync"
	"time"

	"dstore/internal/alloc"
	"dstore/internal/btree"
	"dstore/internal/cache"
	"dstore/internal/client"
	"dstore/internal/pmem"
	"dstore/internal/ring"
	"dstore/internal/server"
	"dstore/internal/space"
	"dstore/internal/ssd"
	"dstore/internal/wal"
	"dstore/internal/wire"
	"dstore/internal/ycsb"
)

// A layer probe drives one package's public API from a single goroutine (the
// WAL's two-writer probe excepted) with the workload's own sizes, for a
// fixed number of calls, and reports the mean cost of one call. It is the
// unit cost the ledger multiplies by the counts of the measured window.

// perCall times n calls of f and returns the mean in ns.
func perCall(n int, f func(i int)) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return float64(time.Since(start)) / float64(n)
}

// floorPerCall is the lowest perCall of five batches of n calls. The probes
// whose result is compared with a model or subtracted from a span use it:
// what a call costs is a floor, and a fresh process, the host and the
// scheduler only ever add to it.
func floorPerCall(n int, f func(i int)) float64 {
	ns := perCall(n, f)
	for i := 0; i < 4; i++ {
		ns = min(ns, perCall(n, f))
	}
	return ns
}

// calibration measures the device primitives every latency rests on and
// says whether the two the write path pays are within a fifth of what the
// latency model charges. A loaded host fails it: rerun rather than compare.
type calibration struct {
	persist64bNs float64
	write4kUs    float64
	read4kUs     float64
	ok           bool
}

// spinOverheadNs is what one latency.Spin costs beyond the wait it was
// asked for, on the class of host this was sized on: the clock reads that
// bracket the wait. A 64 B persist is two spins (flush, fence).
const spinOverheadNs = 80

func calibrate() calibration {
	pl, sl := pmem.DefaultLatencies(), ssd.DefaultLatencies()
	pm := pmem.New(pmem.Config{Size: 1 << 20, Latency: pl})
	dev := ssd.New(ssd.Config{Pages: 256, PowerProtected: true, Latency: sl})
	page := make([]byte, ssd.DefaultPageSize)
	persist := func(i int) { pm.Persist(uint64(i%1024)*pmem.LineSize, pmem.LineSize) }
	write := func(i int) {
		dev.WriteAt(uint64(i%256)*ssd.DefaultPageSize, page) //nolint:errcheck // no fault plan: cannot fail
	}
	read := func(i int) {
		dev.ReadAt(uint64(i%256)*ssd.DefaultPageSize, page) //nolint:errcheck // no fault plan: cannot fail
	}
	c := calibration{
		persist64bNs: floorPerCall(10000, persist),
		write4kUs:    floorPerCall(400, write) / 1e3,
		read4kUs:     floorPerCall(400, read) / 1e3,
	}
	within := func(got, want float64) bool { return math.Abs(got-want) <= 0.2*want }
	c.ok = within(c.persist64bNs, float64(pl.FlushPerLine+pl.Fence)+2*spinOverheadNs) &&
		within(c.write4kUs, float64(sl.WritePerPage)/1e3)
	return c
}

// probeWire measures the codec on the frames the workload sends: request
// encode, frame read and request decode (the server's half), response
// encode, frame read and response decode (the client's half).
func probeWire(w spec, m metrics) error {
	key := ycsb.Key(w.Records / 2)
	val := make([]byte, w.ValueBytes)
	stamp(val, key, 1, 1)
	subsPut := make([]wire.BatchSub, 32)
	subsGet := make([]wire.BatchSub, 32)
	resPut := make([]wire.BatchResult, 32)
	resGet := make([]wire.BatchResult, 32)
	for i := range subsPut {
		subsPut[i] = wire.BatchSub{Key: ycsb.Key(i), Value: val}
		subsGet[i] = wire.BatchSub{Key: ycsb.Key(i)}
		resPut[i] = wire.BatchResult{Status: wire.StatusOK}
		resGet[i] = wire.BatchResult{Status: wire.StatusOK, Value: val}
	}
	frames := []struct {
		name string
		req  wire.Request
		resp wire.Response
	}{
		{"put", wire.Request{Op: wire.OpPut, Key: key, Value: val}, wire.Response{Op: wire.OpPut}},
		{"get", wire.Request{Op: wire.OpGet, Key: key}, wire.Response{Op: wire.OpGet, Value: val}},
		{"mput32", wire.Request{Op: wire.OpMPut, Subs: subsPut}, wire.Response{Op: wire.OpMPut, Batch: resPut}},
		{"mget32", wire.Request{Op: wire.OpMGet, Subs: subsGet}, wire.Response{Op: wire.OpMGet, Batch: resGet}},
	}
	bytesOf := map[string]float64{}
	for _, f := range frames {
		var reqBuf, respBuf, payload []byte
		var rd bytes.Reader
		var err error
		cycle := func(i int) {
			f.req.ID = uint64(i)
			if reqBuf, err = wire.AppendRequest(reqBuf[:0], &f.req); err != nil {
				return
			}
			rd.Reset(reqBuf)
			if payload, err = wire.ReadFrameInto(&rd, 0, payload); err != nil {
				return
			}
			if _, err = wire.DecodeRequest(payload); err != nil {
				return
			}
			f.resp.ID = uint64(i)
			respBuf = wire.AppendResponse(respBuf[:0], &f.resp)
			rd.Reset(respBuf)
			if payload, err = wire.ReadFrameInto(&rd, 0, payload); err != nil {
				return
			}
			_, err = wire.DecodeResponse(payload)
		}
		cycle(0) // size the buffers before counting allocations
		const n = 20000
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ns := perCall(n, cycle)
		runtime.ReadMemStats(&after)
		if err != nil {
			return fmt.Errorf("wire probe %s: %w", f.name, err)
		}
		m["wire.codec_"+f.name+"_ns"] = ns
		if f.name == "put" || f.name == "get" {
			m["wire.codec_allocs_"+f.name] = float64(after.Mallocs-before.Mallocs) / n
		}
		bytesOf[f.name] = float64(len(reqBuf) + len(respBuf))
	}
	// Bytes on the wire per logical op under the workload's mix.
	if w.Batch > 0 {
		m["wire.frame_bytes_per_op"] = (bytesOf["mput32"] + bytesOf["mget32"]) / 2 / 32
	} else {
		m["wire.frame_bytes_per_op"] = w.ReadShare*bytesOf["get"] + (1-w.ReadShare)*bytesOf["put"]
	}
	return nil
}

// nullBackend answers at once: what is left of a round trip is client, wire,
// server and kernel.
type nullBackend struct {
	val  []byte
	vals [][]byte
}

func (b *nullBackend) Put(string, []byte) error                      { return nil }
func (b *nullBackend) Get(string) ([]byte, error)                    { return b.val, nil }
func (b *nullBackend) Delete(string) error                           { return nil }
func (b *nullBackend) Scan(string, int) ([]wire.Object, error)       { return nil, nil }
func (b *nullBackend) Stats() wire.StatsReply                        { return wire.StatsReply{} }
func (b *nullBackend) Health() wire.HealthReply                      { return wire.HealthReply{} }
func (b *nullBackend) Checkpoint() error                             { return nil }
func (b *nullBackend) ErrorStatus(error) (wire.Status, string)       { return wire.StatusInternal, "" }
func (b *nullBackend) MPut(_ uint64, k []string, _ [][]byte) []error { return make([]error, len(k)) }
func (b *nullBackend) MDelete(_ uint64, k []string) []error          { return make([]error, len(k)) }
func (b *nullBackend) MGet(_ uint64, k []string) ([][]byte, []error) {
	return b.vals[:len(k)], make([]error, len(k))
}

// probeNullRTT times the workload's client against the real server over a
// backend that does nothing.
func probeNullRTT(w spec, m metrics) error {
	val := make([]byte, w.ValueBytes)
	stamp(val, ycsb.Key(0), 1, 1)
	nb := &nullBackend{val: val, vals: make([][]byte, 32)}
	keys := make([]string, 32)
	vals := make([][]byte, 32)
	for i := range keys {
		keys[i], vals[i], nb.vals[i] = ycsb.Key(i), val, val
	}
	srv := server.New(nb, server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx) //nolint:errcheck // probe teardown over a backend that cannot fail
		<-served
	}()
	c, err := client.Dial(client.Config{Addr: ln.Addr().String(), Conns: clients})
	if err != nil {
		return err
	}
	kv := client.NewKV(c, 0)
	defer kv.Close() //nolint:errcheck // pooled conns; nothing to flush

	var buf []byte
	calls := []struct {
		name string
		f    func() error
	}{
		{"put", func() error { return kv.Put(keys[0], val) }},
		{"get", func() (err error) { buf, err = kv.Get(keys[0], buf[:0]); return err }},
		{"mput32", func() error { return errors.Join(kv.MPut(keys, vals)...) }},
		{"mget32", func() error { _, errs := kv.MGet(keys); return errors.Join(errs...) }},
	}
	for _, call := range calls {
		var first error
		run := func(int) {
			if err := call.f(); err != nil && first == nil {
				first = err
			}
		}
		perCall(200, run) // warm the connections and the pools
		m["server.null_rtt_"+call.name+"_us"] = floorPerCall(600, run) / 1e3
		if first != nil {
			return fmt.Errorf("null rtt %s: %w", call.name, first)
		}
	}
	return nil
}

// probeWAL appends and commits put-sized records on a fresh log pair with
// group commit on, from one writer and from two.
func probeWAL(m metrics) error {
	const logBytes = 4 << 20
	const records = 16000 // ~100 B each: fits one log, so no swap is timed
	payload := make([]byte, 32)
	for _, writers := range []int{1, 2} {
		dev := pmem.New(pmem.Config{Size: 2 * logBytes, Latency: pmem.DefaultLatencies()})
		p := wal.NewPair(space.MustPMEM(dev, 0, logBytes), space.MustPMEM(dev, logBytes, logBytes), 1)
		p.SetGroupCommit(wal.GroupCommitConfig{Enabled: true})
		errs := make([]error, writers)
		var wg sync.WaitGroup
		start := time.Now()
		for wr := 0; wr < writers; wr++ {
			wg.Add(1)
			go func(wr int) {
				defer wg.Done()
				for i := wr; i < records; i += writers {
					h, conflict, err := p.Append(1, []byte(ycsb.Key(i)), payload)
					if err == nil && conflict == nil {
						err = p.Commit(h)
					}
					if err != nil || conflict != nil {
						errs[wr] = fmt.Errorf("wal probe: append %d: conflict %v: %w", i, conflict != nil, err)
						return
					}
				}
			}(wr)
		}
		wg.Wait()
		took := time.Since(start)
		if err := errors.Join(errs...); err != nil {
			return err
		}
		// Per record as one writer sees it: each writer did records/writers
		// of them in the elapsed time.
		m[fmt.Sprintf("wal.append_commit_us_%dw", writers)] = float64(took) / float64(records/writers) / 1e3
	}
	return nil
}

// probeCache times a hit and an insert on a cache of the workload's budget
// and span size.
func probeCache(w spec, m metrics) {
	c := cache.New(w.CacheBytes)
	data := make([]byte, w.ValueBytes)
	entries := int(w.CacheBytes) / w.ValueBytes / 2 // half full: inserts do not evict
	entries = max(min(entries, w.Records), 1)
	m["cache.insert_ns"] = perCall(entries, func(i int) { c.Insert(uint64(i), uint32(i), data) })
	hits := 0
	m["cache.get_hit_ns"] = perCall(50000, func(i int) {
		b := uint64(i*7919) % uint64(entries)
		if c.Get(b, uint32(b), data) {
			hits++
		}
	})
	if hits != 50000 {
		m["cache.get_hit_ns"] = math.NaN() // the probe did not measure hits
	}
}

// probeBtree times lookups and inserts on a tree holding the workload's keys
// in a DRAM arena.
func probeBtree(w spec, m metrics) error {
	al := alloc.Format(space.NewDRAM(uint64(w.Records)*512 + (8 << 20)))
	t, _, err := btree.New(al)
	if err != nil {
		return err
	}
	keys := make([][]byte, w.Records)
	for i := range keys {
		keys[i] = []byte(ycsb.Key(i))
	}
	m["btree.insert_ns"] = perCall(w.Records, func(i int) {
		j := (i * 7919) % w.Records // 7919 is prime to both record counts: a permutation
		if _, _, e := t.Insert(keys[j], uint64(j)); e != nil {
			err = e
		}
	})
	if err != nil {
		return fmt.Errorf("btree probe: %w", err)
	}
	found := 0
	m["btree.get_ns"] = perCall(100000, func(i int) {
		if _, ok := t.Get(keys[(i*7919)%w.Records]); ok {
			found++
		}
	})
	if found != 100000 {
		return fmt.Errorf("btree probe: %d of 100000 lookups found their key", found)
	}
	return nil
}

// probeRing times routing over the workload's keys on the store's own ring.
func probeRing(w spec, ringData []byte, m metrics) error {
	r, err := ring.Decode(ringData)
	if err != nil {
		return fmt.Errorf("ring probe: %w", err)
	}
	keys := make([]string, 4096)
	for i := range keys {
		keys[i] = ycsb.Key((i * 7919) % w.Records)
	}
	var sink uint32
	m["ring.owner_ns"] = perCall(200000, func(i int) { sink += r.Owner(keys[i%len(keys)]) })
	_ = sink
	return nil
}
