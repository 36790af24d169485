package main

import (
	"fmt"
	"math"
	"sync"
	"time"

	"dstore/internal/client"
	"dstore/internal/ycsb"
)

// thread is one closed-loop client: it draws the next op from its own
// seeded generator, issues it, waits for the reply, checks the reply, and
// only then draws the next.
type thread struct {
	id   int
	w    spec
	gen  *ycsb.Generator
	call caller
	kv   *client.KV // the batch workload calls MGet/MPut on it

	val     []byte
	buf     []byte
	version uint64
	// acked[i] is the version of this thread's last acknowledged write to
	// record i, 0 when it never wrote it. The sweeps check against it.
	acked []uint64

	// Scratch of the batch workload: the frame's distinct keys and one
	// value buffer per sub-op.
	keys   []string
	vals   [][]byte
	vers   []uint64
	seen   map[string]struct{}
	frames uint64

	// What the measured window saw. Latencies are per call (per frame on
	// the batch workload), in ns, saturating at ~4.29 s; ops and failed
	// count logical operations (sub-ops).
	readNs, updateNs []uint32
	ops, failed      uint64
	slow             uint64
	userBytes        uint64
	// marks[k] is where the thread stood when slice k of the window ended
	// (a call belongs to the slice it finished in). The host this was sized
	// on is shared and runs a quarter slower for tens of seconds at a time,
	// whatever the program does; cutting the window lets the metrics below
	// the tail be quartiles over the slices, taken from the better side
	// (quietQuartile), which a slow spell shorter than most of the window
	// does not move.
	slice    time.Duration
	winStart time.Time
	marks    []mark

	// Traced runs only.
	tr               *tracer
	spans            []span
	putSpan, getSpan uint8
}

// mark is a thread's progress at a slice boundary. Thread 0 also reads the
// process's CPU time and the host's stolen ticks there; the other thread
// crosses within one call of it.
type mark struct {
	reads, updates int
	ops            uint64
	cpu            time.Duration
	stolen         uint64
}

// newThreads makes the load threads of one store. expectOps sizes the
// latency slices so that the window does not grow them.
func newThreads(s *sut, opt options, tr *tracer, expectOps int) []*thread {
	ts := make([]*thread, clients)
	for i := range ts {
		t := &thread{
			id:    i,
			w:     s.spec,
			gen:   ycsb.NewGenerator(s.spec.ycsb(), opt.seed*1000003+int64(i)*7919),
			slice: opt.slice,
			call:  s.newCaller(),
			kv:    s.kv,
			val:   make([]byte, s.spec.ValueBytes),
			acked: make([]uint64, s.spec.Records),
			tr:    tr,
		}
		t.readNs = make([]uint32, 0, expectOps)
		t.updateNs = make([]uint32, 0, expectOps)
		if n := s.spec.Batch; n > 0 {
			t.vals = make([][]byte, n)
			for j := range t.vals {
				t.vals[j] = make([]byte, s.spec.ValueBytes)
			}
			t.vers = make([]uint64, n)
			t.seen = make(map[string]struct{}, n)
			// The two threads start on opposite frame kinds, so the mix is
			// even at every instant.
			t.frames = uint64(i)
		}
		switch {
		case s.spec.Batch > 0:
			t.putSpan, t.getSpan = spanClientMPut, spanClientMGet
		case s.spec.Net:
			t.putSpan, t.getSpan = spanClientPut, spanClientGet
		default:
			t.putSpan, t.getSpan = spanStorePut, spanStoreGet
		}
		if tr != nil {
			t.spans = make([]span, 0, expectOps)
		}
		ts[i] = t
	}
	return ts
}

// drive runs every thread for d and returns how long the slowest took to
// finish its last op. With record false nothing is measured (warm-up), but
// acknowledged writes are still remembered: the store keeps them.
func drive(ts []*thread, d time.Duration, record bool) time.Duration {
	start := time.Now()
	deadline := start.Add(d)
	ends := make([]time.Time, len(ts))
	var wg sync.WaitGroup
	for i, t := range ts {
		t.winStart = start
		wg.Add(1)
		go func(i int, t *thread) {
			defer wg.Done()
			now := time.Now()
			for now.Before(deadline) {
				if t.w.Batch > 0 {
					now = t.frame(record)
				} else {
					now = t.single(record)
				}
			}
			ends[i] = now
		}(i, t)
	}
	wg.Wait()
	last := ends[0]
	for _, e := range ends[1:] {
		if e.After(last) {
			last = e
		}
	}
	return last.Sub(start)
}

// single issues one Get or Put and returns when it finished.
func (t *thread) single(record bool) time.Time {
	op, key := t.gen.Next()
	if op == ycsb.OpRead {
		start := time.Now()
		var err error
		t.buf, err = t.call.Get(key, t.buf[:0])
		end := time.Now()
		bad := uint64(0)
		if _, _, ok := check(t.buf, key, t.w.ValueBytes); err != nil || !ok {
			bad = 1
		}
		if record {
			t.note(t.getSpan, key, start, end, 1, bad)
		}
		return end
	}
	t.version++
	stamp(t.val, key, uint32(t.id+1), t.version)
	start := time.Now()
	err := t.call.Put(key, t.val)
	end := time.Now()
	bad := uint64(1)
	if err == nil {
		bad = 0
		t.acked[keyIndex(key)] = t.version
	}
	if record {
		t.userBytes += uint64(len(t.val))
		t.note(t.putSpan, key, start, end, 1, bad)
	}
	return end
}

// frame issues one MGet or MPut of Batch distinct zipfian keys.
func (t *thread) frame(record bool) time.Time {
	n := t.w.Batch
	t.keys = t.keys[:0]
	clear(t.seen)
	for len(t.keys) < n {
		_, key := t.gen.Next()
		if _, dup := t.seen[key]; dup {
			continue
		}
		t.seen[key] = struct{}{}
		t.keys = append(t.keys, key)
	}
	t.frames++
	bad := uint64(0)
	if t.frames%2 == 1 {
		start := time.Now()
		vals, errs := t.kv.MGet(t.keys)
		end := time.Now()
		for i, key := range t.keys {
			if i >= len(vals) || i >= len(errs) || errs[i] != nil {
				bad++
			} else if _, _, ok := check(vals[i], key, t.w.ValueBytes); !ok {
				bad++
			}
		}
		if record {
			t.note(t.getSpan, t.keys[0], start, end, uint64(n), bad)
		}
		return end
	}
	for i, key := range t.keys {
		t.version++
		t.vers[i] = t.version
		stamp(t.vals[i], key, uint32(t.id+1), t.version)
	}
	start := time.Now()
	errs := t.kv.MPut(t.keys, t.vals)
	end := time.Now()
	for i, key := range t.keys {
		if i >= len(errs) || errs[i] != nil {
			bad++
		} else {
			t.acked[keyIndex(key)] = t.vers[i]
		}
	}
	if record {
		t.userBytes += uint64(n * t.w.ValueBytes)
		t.note(t.putSpan, t.keys[0], start, end, uint64(n), bad)
	}
	return end
}

// note records one finished call of the measured window.
func (t *thread) note(name uint8, key string, start, end time.Time, ops, bad uint64) {
	for end.Sub(t.winStart) >= time.Duration(len(t.marks)+1)*t.slice {
		mk := mark{reads: len(t.readNs), updates: len(t.updateNs), ops: t.ops}
		if t.id == 0 {
			mk.cpu, mk.stolen = cpuTime(), stolenTicks()
		}
		t.marks = append(t.marks, mk)
	}
	d := end.Sub(start)
	ns := uint32(math.MaxUint32)
	if d < time.Duration(math.MaxUint32) {
		ns = uint32(d)
	}
	if name == t.getSpan {
		t.readNs = append(t.readNs, ns)
	} else {
		t.updateNs = append(t.updateNs, ns)
	}
	t.ops += ops
	t.failed += bad
	if d > t.w.SlowLimit || bad > 0 {
		t.slow++
	}
	if t.tr != nil {
		t.spans = append(t.spans, t.tr.span(name, int8(t.id), keyHash(key), start, end))
	}
}

// fixedState is the state the recovery phase leaves: records below
// fixedKeys hold the recovery writer's value of this version.
type fixedState struct {
	keys    int
	version uint64
}

// sweep reads every record straight from the store and counts those that
// hold neither the preload value nor the last acknowledged write of one of
// the load threads (nor, below fixed.keys, the recovery phase's write).
func (s *sut) sweep(ts []*thread, fixed fixedState) (checked, bad uint64) {
	bads := make([]uint64, clients)
	_ = inParallel(func(t int) error { // a failed Get is a bad record, not an error
		c := s.api.NewContext()
		defer c.Finalize()
		var buf []byte
		for i := t; i < s.spec.Records; i += clients {
			key := ycsb.Key(i)
			var gerr error
			buf, gerr = c.Get(key, buf[:0])
			writer, version, ok := check(buf, key, s.spec.ValueBytes)
			if gerr != nil || !ok || !holds(ts, fixed, i, writer, version) {
				bads[t]++
			}
		}
		return nil
	})
	for _, b := range bads {
		bad += b
	}
	return uint64(s.spec.Records), bad
}

// holds reports whether (writer, version) is a value record i may hold.
func holds(ts []*thread, fixed fixedState, i int, writer uint32, version uint64) bool {
	if i < fixed.keys {
		return writer == writerRecovery && version == fixed.version
	}
	wrote := false
	for _, t := range ts {
		if t.acked[i] == 0 {
			continue
		}
		wrote = true
		if writer == uint32(t.id+1) && version == t.acked[i] {
			return true
		}
	}
	return !wrote && writer == writerPreload && version == 0
}

// recovery is what the recovery phase measured, each the median over the
// cycles after the first.
type recovery struct {
	totalMs    float64   // Open call to the first successful Get
	metadataMs float64   // dipper.RecoveryBreakdown: rebuild the volatile space
	replayMs   float64   // dipper.RecoveryBreakdown: replay the active log
	cycles     []float64 // totalMs of each cycle after the first
	state      fixedState
	checked    uint64
	bad        uint64
}

// recoverCycles runs the recovery phase: cycles times, checkpoint, write
// fixedPuts values (sized to fit one log without an automatic checkpoint),
// close without the final checkpoint, recover from the same devices, and
// read one key back.
func (s *sut) recoverCycles(cycles, fixedPuts int) (recovery, error) {
	var r recovery
	r.state.keys = min(fixedPuts, s.spec.Records)
	var total, metadata, replay []float64
	for c := 1; c <= cycles; c++ {
		if err := s.api.CheckpointNow(); err != nil {
			return r, fmt.Errorf("recovery cycle %d: checkpoint: %w", c, err)
		}
		r.state.version = uint64(c)
		err := inParallel(func(t int) error {
			ctx := s.api.NewContext()
			defer ctx.Finalize()
			val := make([]byte, s.spec.ValueBytes)
			for i := t; i < fixedPuts; i += clients {
				key := ycsb.Key(i % s.spec.Records)
				stamp(val, key, writerRecovery, r.state.version)
				if err := ctx.Put(key, val); err != nil {
					return fmt.Errorf("recovery cycle %d: put %s: %w", c, key, err)
				}
			}
			return nil
		})
		if err != nil {
			return r, err
		}
		start, err := s.reopen()
		if err != nil {
			return r, fmt.Errorf("recovery cycle %d: reopen: %w", c, err)
		}
		ctx := s.api.NewContext()
		key := ycsb.Key(0)
		buf, gerr := ctx.Get(key, nil)
		took := time.Since(start)
		ctx.Finalize()
		r.checked++
		if w, v, ok := check(buf, key, s.spec.ValueBytes); gerr != nil || !ok || w != writerRecovery || v != r.state.version {
			r.bad++
		}
		if c == 1 {
			continue // the first cycle replays whatever the window left
		}
		var metaNs, replayNs int64
		for _, e := range s.engines {
			m, p := e.Engine().RecoveryBreakdown()
			metaNs, replayNs = max(metaNs, m), max(replayNs, p)
		}
		total = append(total, float64(took)/1e6)
		metadata = append(metadata, float64(metaNs)/1e6)
		replay = append(replay, float64(replayNs)/1e6)
	}
	r.cycles = total
	r.totalMs, r.metadataMs, r.replayMs = median(total), median(metadata), median(replay)
	return r, nil
}
