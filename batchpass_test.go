package dstore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"dstore/internal/fault"
	"dstore/internal/latency"
)

// Tests of the batch pass (write.go): an MPut group is one run of the
// pipeline, each sub-op its own record, and the pass never waits while it
// holds a record it appended.

// finishBy fails the test, with every goroutine's stack, unless done closes
// before the deadline.
func finishBy(t *testing.T, d time.Duration, done <-chan struct{}) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(d):
		buf := make([]byte, 1<<20)
		t.Fatalf("not finished after %v:\n%s", d, buf[:runtime.Stack(buf, true)])
	}
}

// Two writers MPut the same eight keys in opposite orders, a reader MGets
// them and a lock holder keeps taking one of them, and every round finishes.
// (Each append section is atomic under the pool lock, so two passes never
// each hold what the other waits for; a pass waiting on its own record is
// TestMPutNamesKeyTwice's hazard.)
func TestBatchOppositeOrdersFinish(t *testing.T) {
	sh, err := FormatSharded(2, Config{Blocks: 1024, MaxObjects: 256, LogBytes: 1 << 18})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	keys := make([]string, 8)
	for i := range keys {
		keys[i] = fmt.Sprintf("opp%d", i)
	}
	rev := make([]string, len(keys))
	for i, k := range keys {
		rev[len(keys)-1-i] = k
	}
	const rounds = 1000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errc := make(chan error, 4)
	writer := func(id byte, ks []string) {
		defer wg.Done()
		vals := make([][]byte, len(ks))
		for r := 0; r < rounds; r++ {
			for i := range vals {
				vals[i] = []byte{id, byte(r), byte(r >> 8)}
			}
			if err := errors.Join(sh.MPut(0, ks, vals)...); err != nil {
				errc <- fmt.Errorf("writer %d round %d: %w", id, r, err)
				return
			}
		}
	}
	wg.Add(2)
	go writer(1, keys)
	go writer(2, rev)
	var bg sync.WaitGroup
	bg.Add(2)
	go func() { // reader
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_, errs := sh.MGet(0, keys)
			for _, err := range errs {
				if err != nil && !errors.Is(err, ErrNotFound) {
					errc <- fmt.Errorf("reader: %w", err)
					return
				}
			}
		}
	}()
	go func() { // lock holder
		defer bg.Done()
		c := sh.Init()
		defer c.Finalize()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := c.Lock(keys[3]); err != nil {
				errc <- fmt.Errorf("lock: %w", err)
				return
			}
			runtime.Gosched()
			if err := c.Unlock(keys[3]); err != nil {
				errc <- fmt.Errorf("unlock: %w", err)
				return
			}
		}
	}()
	done := make(chan struct{})
	go func() { wg.Wait(); close(stop); bg.Wait(); close(done) }()
	finishBy(t, 2*time.Minute, done)
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	c := sh.Init()
	defer c.Finalize()
	last := rounds - 1
	for _, k := range keys {
		if v, err := c.Get(k, nil); err != nil || len(v) != 3 || v[1] != byte(last) || v[2] != byte(last>>8) {
			t.Errorf("Get(%s) = %v, %v; want a last-round value", k, v, err)
		}
	}
	if err := sh.Check(); err != nil {
		t.Fatal(err)
	}
}

// An MPut that names a key twice commits both sub-ops, in issue order: the
// later value is the one a Get returns, before and after a crash.
func TestMPutNamesKeyTwice(t *testing.T) {
	cfg := testConfig()
	s := newStoreT(t, cfg)
	keys := []string{"twice", "other", "twice"}
	vals := [][]byte{val('a', 5000), val('b', 300), val('c', 700)}
	var errs []error
	done := make(chan struct{})
	go func() { errs = s.MPut(0, keys, vals); close(done) }()
	finishBy(t, 30*time.Second, done) // a pass that waited for its own record would not
	for i, err := range errs {
		if err != nil {
			t.Fatalf("sub-op %d: %v", i, err)
		}
	}
	check := func(s *Store, when string) {
		t.Helper()
		c := s.Init()
		defer c.Finalize()
		for k, want := range map[string][]byte{"twice": vals[2], "other": vals[1]} {
			if got, err := c.Get(k, nil); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%s: Get(%s) = %d bytes, %v; want %d bytes", when, k, len(got), err, len(want))
			}
		}
		if err := s.Check(); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
	}
	check(s, "before the crash")
	s = reopen(t, s, cfg, 7, true)
	defer s.Close()
	check(s, "after the crash")
}

// A permanent fault on one sub-op's block quarantines that block and writes
// the sub-op to a fresh one; the rest of the batch is untouched.
func TestMPutPermanentFaultOnOneBlock(t *testing.T) {
	s := wtStore(t, 1<<20)
	defer s.Close()
	c := s.Init()
	defer c.Finalize()
	if err := c.Put("probe", val(1, 10)); err != nil {
		t.Fatal(err)
	}
	_, probe, err := s.lookup([]byte("probe"), nil)
	if err != nil {
		t.Fatal(err)
	}
	// The pool is a FIFO of ascending ids: the batch's sub-ops take the next
	// blocks in order, and the second sub-op's is probe+2.
	dead := probe.Blocks[0] + 2
	_, data := s.Devices()
	data.SetFaultPlan(fault.NewPlan(fault.Config{BadPages: []uint64{s.dataOff(dead) / blockSize}}))
	keys := []string{"f0", "f1", "f2", "f3"}
	vals := [][]byte{val(2, 4096), val(3, 4096), val(4, 100), val(5, 4096)}
	for i, err := range s.MPut(0, keys, vals) {
		if err != nil {
			t.Fatalf("sub-op %d: %v", i, err)
		}
	}
	if q := s.Health().QuarantinedBlocks; len(q) != 1 || q[0] != dead {
		t.Fatalf("quarantined %v, want [%d]", q, dead)
	}
	for i, k := range keys {
		_, e, err := s.lookup([]byte(k), nil)
		if err != nil {
			t.Fatal(err)
		}
		if e.Blocks[0] == dead {
			t.Fatalf("%s lives on the quarantined block", k)
		}
		if got, err := c.Get(k, nil); err != nil || !bytes.Equal(got, vals[i]) {
			t.Fatalf("Get(%s) = %d bytes, %v", k, len(got), err)
		}
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
}

// A batch whose values do not pair one to one with its keys is refused
// whole, one error per key and nothing written, on a bare store and on a
// 2-shard ring: nil values are not a delete, and too few values are not an
// index panic on a pool worker.
func TestMPutRefusesMismatchedValues(t *testing.T) {
	s := newStoreT(t, testConfig())
	defer s.Close()
	sh, err := FormatSharded(2, shardTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	keys := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	if sh.ShardFor("a") == sh.ShardFor("b") && sh.ShardFor("a") == sh.ShardFor("c") {
		t.Fatal("keys a-c do not span the ring")
	}
	for name, api := range map[string]API{"store": s, "ring": sh} {
		c := api.NewContext()
		for _, k := range keys {
			if err := c.Put(k, val(7, 40)); err != nil {
				t.Fatal(err)
			}
		}
		for _, vals := range [][][]byte{nil, {val(8, 40)}} {
			errs := api.MPut(0, keys, vals)
			if len(errs) != len(keys) {
				t.Fatalf("%s: %d verdicts for %d keys", name, len(errs), len(keys))
			}
			for j, err := range errs {
				if err == nil {
					t.Fatalf("%s: MPut of %d keys with %d values accepted %q", name, len(keys), len(vals), keys[j])
				}
			}
		}
		for _, k := range keys {
			if got, err := c.Get(k, nil); err != nil || !bytes.Equal(got, val(7, 40)) {
				t.Fatalf("%s: %q after refused batches: %d bytes, %v", name, k, len(got), err)
			}
		}
		c.Finalize()
	}
}

// MPuts into a 16 KiB log fill it again and again: each refusal settles the
// pass's prefix, checkpoints in the foreground (counted) and goes on, so the
// batches finish.
func TestMPutSmallLogCheckpointsInForeground(t *testing.T) {
	s := newStoreT(t, Config{Blocks: 1024, MaxObjects: 256, LogBytes: 16 << 10, CheckpointThreshold: 1e-9})
	defer s.Close()
	done := make(chan struct{})
	errc := make(chan error, 2)
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				keys, vals := make([]string, 16), make([][]byte, 16)
				for r := 0; r < 60; r++ {
					for i := range keys {
						keys[i], vals[i] = fmt.Sprintf("w%d-%02d", w, (r+i)%40), val(byte(r), 200)
					}
					if err := errors.Join(s.MPut(0, keys, vals)...); err != nil {
						errc <- err
						return
					}
				}
			}(w)
		}
		wg.Wait()
	}()
	finishBy(t, time.Minute, done)
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if st := s.Stats(); st.ForegroundCheckpoints == 0 || st.ForegroundCheckpointNanos == 0 {
		t.Fatalf("a 16 KiB log took %d foreground checkpoints (%d ns)", st.ForegroundCheckpoints, st.ForegroundCheckpointNanos)
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
}

// Under emb_a's mix — two clients, zipfian 50/50 reads and 4 KiB updates,
// device latency on — the default 4 MiB log leaves checkpoints to the
// background: no writer ever finds it full.
func TestDefaultLogNeedsNoForegroundCheckpoint(t *testing.T) {
	const records = 2000
	s := newStoreT(t, Config{Blocks: records + 2048, MaxObjects: records + 1024, MaxBlocksPerObject: 4, DeviceLatency: true})
	defer s.Close()
	latency.Enable()
	defer latency.Disable()
	var wg sync.WaitGroup
	deadline := time.Now().Add(6 * time.Second) // or two background checkpoints
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			zipf := rand.NewZipf(rng, 1.1, 1, records-1)
			c := s.Init()
			defer c.Finalize()
			v, buf := make([]byte, 4096), []byte(nil)
			for time.Now().Before(deadline) && s.eng.Stats().Checkpoints < 2 {
				k := fmt.Sprintf("user%06d", zipf.Uint64())
				if rng.Intn(2) == 0 {
					buf, _ = c.Get(k, buf[:0])
				} else if err := c.Put(k, v); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
	if st := s.Stats(); st.ForegroundCheckpoints != 0 {
		t.Fatalf("%d foreground checkpoints (%d background) at the default log size", st.ForegroundCheckpoints, st.Engine.Checkpoints)
	} else {
		t.Logf("%d puts, %d background checkpoints, 0 in the foreground", st.Puts, st.Engine.Checkpoints)
	}
}

// No free block has a cache entry after a seeded mix of concurrent puts,
// deletes, MPuts and gets — the invariant that lets the data phase and the
// deferred free skip their invalidations — and Check catches one planted.
func TestFreeBlocksAreNeverCached(t *testing.T) {
	s := wtStore(t, 4<<20)
	defer s.Close()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			c := s.Init()
			defer c.Finalize()
			key := func() string { return fmt.Sprintf("fc%02d", rng.Intn(24)) }
			for i := 0; i < 600; i++ {
				var err error
				switch r := rng.Intn(10); {
				case r < 4:
					_, err = c.Get(key(), nil)
				case r < 7:
					err = c.Put(key(), val(byte(i), 1+rng.Intn(3*blockSize)))
				case r < 8:
					err = c.Delete(key())
				default:
					err = errors.Join(s.MPut(0, []string{key(), key(), key()}, [][]byte{val(1, 900), val(2, 5000), val(3, 64)})...)
				}
				if err != nil && !errors.Is(err, ErrNotFound) {
					t.Error(err)
					return
				}
			}
		}(int64(w) + 41)
	}
	wg.Wait()
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
	if cs := s.CacheStats(); cs.Bytes == 0 {
		t.Fatalf("nothing cached: the script does not exercise the invariant (%+v)", cs)
	}
	s.poolMu.Lock()
	free, _ := s.blockPool.Get()
	s.blockPool.Put(free) //nolint:errcheck
	s.poolMu.Unlock()
	s.bcache.Insert(free, 1, val(9, 10))
	if err := s.Check(); err == nil {
		t.Fatalf("Check passed with free block %d cached", free)
	}
}

// A transaction whose read set is already stale when it commits is refused
// before the data phase: it writes nothing to the SSD and keeps no block.
func TestConflictingCommitWritesNoData(t *testing.T) {
	s, err := Format(Config{Blocks: 256, MaxObjects: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := s.Init()
	defer c.Finalize()
	if err := c.Put("k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Get("k", nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Put("k", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Put("big", bytes.Repeat([]byte{7}, 4*blockSize)); err != nil {
		t.Fatal(err)
	}
	_, data := s.Devices()
	written := data.Stats().BytesWritten
	s.poolMu.Lock()
	free := s.blockPool.Free()
	s.poolMu.Unlock()
	if err := tx.Commit(); !errors.Is(err, ErrTxnConflict) {
		t.Fatalf("commit over a stale read: %v, want ErrTxnConflict", err)
	}
	if got := data.Stats().BytesWritten; got != written {
		t.Fatalf("the refused commit wrote %d SSD bytes", got-written)
	}
	s.poolMu.Lock()
	defer s.poolMu.Unlock()
	if got := s.blockPool.Free(); got != free {
		t.Fatalf("%d free blocks after the refused commit, %d before", got, free)
	}
}
