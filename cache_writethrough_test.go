package dstore

// The write-through contract of the block cache (DESIGN.md §9): a write
// publishes the blocks it wrote and drops the ones it displaced, never evicts
// to do so, and leaves no entry for a block that died with its write. The
// seeded cached-vs-uncached script in cache_equiv_test.go checks that none of
// this ever serves a stale byte; the cases here check what is cached.

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"dstore/internal/fault"
)

func wtStore(t *testing.T, cacheBytes uint64) *Store {
	t.Helper()
	s, err := Format(Config{Blocks: 2048, MaxObjects: 512, LogBytes: 1 << 18, CacheBytes: cacheBytes})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// wtValue is n bytes of one repeated byte: a reader that sees two different
// bytes, or the wrong length, saw a torn or stale object.
func wtValue(n int, fill byte) []byte { return bytes.Repeat([]byte{fill}, n) }

// ssdRead reports the bytes the store has read from its SSD so far.
func ssdRead(s *Store) uint64 {
	_, data := s.Devices()
	return data.Stats().BytesRead
}

// mustHit reads key and demands want, served without touching the SSD.
func mustHit(t *testing.T, s *Store, ctx Context, key string, want []byte) {
	t.Helper()
	before := ssdRead(s)
	got, err := ctx.Get(key, nil)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("Get(%s) = %d bytes, %v; want %d bytes", key, len(got), err, len(want))
	}
	if n := ssdRead(s) - before; n != 0 {
		t.Fatalf("Get(%s) right after its write read %d bytes from the SSD", key, n)
	}
}

func TestWritePublishesWhatItWrote(t *testing.T) {
	s := wtStore(t, 8<<20)
	defer s.Close()
	ctx := s.Init()
	defer ctx.Finalize()

	// Put → Get: a hit, on every block of the value.
	v1 := wtValue(2*4096+100, 1)
	if err := ctx.Put("k", v1); err != nil {
		t.Fatal(err)
	}
	mustHit(t, s, ctx, "k", v1)
	if cs := s.CacheStats(); cs.Misses != 0 || cs.Hits != 3 || cs.Bytes != uint64(len(v1)) {
		t.Fatalf("after put+get: %+v", cs)
	}

	// Overwrite: the new version in, the old one out — Bytes flat, nothing
	// under the old blocks.
	_, old, err := s.lookup([]byte("k"))
	if err != nil {
		t.Fatal(err)
	}
	v2 := wtValue(len(v1), 2)
	if err := ctx.Put("k", v2); err != nil {
		t.Fatal(err)
	}
	if cs := s.CacheStats(); cs.Bytes != uint64(len(v2)) || cs.Invalidations != 3 {
		t.Fatalf("after overwrite: %+v, want Bytes flat at %d and the 3 old entries dropped", cs, len(v2))
	}
	mustHit(t, s, ctx, "k", v2)
	assertUncached(t, s, old.Blocks, old.Sums, old.Size)
	probes := s.CacheStats().Misses // assertUncached's own

	// A transaction commit and an MPut publish their sub-ops the same way.
	tx, err := ctx.Begin()
	if err != nil {
		t.Fatal(err)
	}
	ta, tb := wtValue(4096, 3), wtValue(300, 4)
	if err := errors.Join(tx.Put("ta", ta), tx.Put("tb", tb), tx.Delete("k"), tx.Commit()); err != nil {
		t.Fatal(err)
	}
	mustHit(t, s, ctx, "ta", ta)
	mustHit(t, s, ctx, "tb", tb)
	ma, mb := wtValue(5000, 5), wtValue(1, 6)
	for _, err := range s.MPut(0, []string{"ma", "mb"}, [][]byte{ma, mb}) {
		if err != nil {
			t.Fatal(err)
		}
	}
	mustHit(t, s, ctx, "ma", ma)
	mustHit(t, s, ctx, "mb", mb)
	if cs, want := s.CacheStats(), uint64(len(ta)+len(tb)+len(ma)+len(mb)); cs.Bytes != want || cs.Misses != probes {
		t.Fatalf("after txn (which deleted k) and MPut: %+v, want Bytes %d and no read miss yet", cs, want)
	}

	// Deletes take their entries with them.
	for _, k := range []string{"ta", "tb", "ma", "mb"} {
		if err := ctx.Delete(k); err != nil {
			t.Fatal(err)
		}
	}
	if cs := s.CacheStats(); cs.Bytes != 0 || cs.Evictions != 0 {
		t.Fatalf("after deleting everything: %+v", cs)
	}
}

// assertUncached fails if the cache would serve any of a dead version's blocks.
func assertUncached(t *testing.T, s *Store, blocks []uint64, sums []uint32, size uint64) {
	t.Helper()
	for i, b := range blocks {
		span := min(size-uint64(i)*blockSize, blockSize)
		if s.bcache.Get(b, sums[i], make([]byte, span)) {
			t.Fatalf("block %d (index %d of a dead version) is still cached", b, i)
		}
	}
}

// A write never runs the CLOCK hand: a put-only burst over a full cache evicts
// nothing, and a write into a cache with room lands.
func TestWriteNeverEvicts(t *testing.T) {
	s := wtStore(t, 64<<10) // one shard, 16 blocks
	defer s.Close()
	ctx := s.Init()
	defer ctx.Finalize()
	const keys = 64
	key := func(i int) string { return fmt.Sprintf("k%02d", i) }
	for i := 0; i < keys; i++ {
		if err := ctx.Put(key(i), wtValue(4096, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	cs := s.CacheStats()
	if cs.Evictions != 0 || cs.Bytes != 64<<10 {
		t.Fatalf("loading 64 blocks through a 16-block cache: %+v, want it full and nothing evicted", cs)
	}
	// Readers make it theirs: the misses evict.
	for i := 0; i < keys; i++ {
		if _, err := ctx.Get(key(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	before := s.CacheStats()
	if before.Evictions == 0 {
		t.Fatalf("reads over four times the cache evicted nothing: %+v", before)
	}
	// Overwrite everything, three times over.
	for round := 1; round <= 3; round++ {
		for i := 0; i < keys; i++ {
			if err := ctx.Put(key(i), wtValue(4096, byte(i+round))); err != nil {
				t.Fatal(err)
			}
		}
	}
	after := s.CacheStats()
	if after.Evictions != before.Evictions {
		t.Fatalf("a put-only burst evicted %d entries", after.Evictions-before.Evictions)
	}
	if after.Bytes != 64<<10 {
		t.Fatalf("the overwritten residents did not keep their place: %+v", after)
	}
	for i := 0; i < keys; i++ {
		got, err := ctx.Get(key(i), nil)
		if err != nil || !bytes.Equal(got, wtValue(4096, byte(i+3))) {
			t.Fatalf("Get(%s) after the burst: %v", key(i), err)
		}
	}
}

// A data-phase write that hits a bad page quarantines the block and reruns on
// fresh ones: what is published is the rerun's blocks, never the dead one.
func TestPermanentWriteFaultLeavesNoEntry(t *testing.T) {
	s := wtStore(t, 8<<20)
	defer s.Close()
	ctx := s.Init()
	defer ctx.Finalize()
	if err := ctx.Put("probe", wtValue(10, 1)); err != nil {
		t.Fatal(err)
	}
	_, probe, err := s.lookup([]byte("probe"))
	if err != nil {
		t.Fatal(err)
	}
	// A fresh pool hands out ascending ids: the next write's second block is
	// probe+2, on page probe+3 (page 0 is the superblock).
	dead := probe.Blocks[0] + 2
	_, data := s.Devices()
	data.SetFaultPlan(fault.NewPlan(fault.Config{BadPages: []uint64{dead + 1}}))
	v := wtValue(3*4096, 7)
	if err := ctx.Put("victim", v); err != nil {
		t.Fatal(err)
	}
	if q := s.quarantinedBlocks(); len(q) != 1 || q[0] != dead {
		t.Fatalf("quarantined %v, want [%d]: the test no longer reaches the rerun", q, dead)
	}
	_, e, err := s.lookup([]byte("victim"))
	if err != nil {
		t.Fatal(err)
	}
	mustHit(t, s, ctx, "victim", v)
	if cs := s.CacheStats(); cs.Bytes != uint64(len(v))+probe.Size {
		t.Fatalf("%+v: want exactly the live versions cached", cs)
	}
	// The first attempt's blocks — the quarantined one and its neighbours,
	// which went back to the pool — hold nothing, under any of the sums.
	for _, b := range []uint64{dead - 1, dead, dead + 1} {
		for i := range e.Sums {
			assertUncached(t, s, []uint64{b}, e.Sums[i:i+1], blockSize)
		}
	}
}

func TestDegradedStorePublishesNothing(t *testing.T) {
	s := wtStore(t, 8<<20)
	defer s.CloseNoCheckpoint()
	s.degrade(errors.New("test"))
	// No write gets as far as the publish once the store is degraded, except
	// one that was already past the gate when it degraded.
	v := wtValue(4096, 1)
	s.cachePublish(&subOp{op: opPut, blocks: []uint64{5}, sums: blockSums(v), data: v})
	if cs := s.CacheStats(); cs.Bytes != 0 {
		t.Fatalf("degraded store published: %+v", cs)
	}
}

// A standby applies the same publish the primary does, so the store a Promote
// opens for writes serves the replicated keys from DRAM — and holds nothing
// for the versions overwrites and deletes displaced.
func TestPromotedStandbyStartsWarm(t *testing.T) {
	primary := wtStore(t, 0)
	defer primary.Close()
	sb := wtStore(t, 8<<20)
	defer sb.Close()
	sb.BeginStandby()

	ctx := primary.Init()
	defer ctx.Finalize()
	model := map[string][]byte{}
	put := func(k string, v []byte) {
		t.Helper()
		if err := ctx.Put(k, v); err != nil {
			t.Fatal(err)
		}
		model[k] = v
	}
	for i := 0; i < 20; i++ {
		put(fmt.Sprintf("k%02d", i), wtValue(100+400*i, byte(i)))
	}
	if err := pump(primary, sb, modelOf(model)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ { // overwrites, shipped after the standby cached the first versions
		put(fmt.Sprintf("k%02d", i), wtValue(5000-300*i, byte(100+i)))
	}
	tx, err := ctx.Begin()
	if err != nil {
		t.Fatal(err)
	}
	ta := wtValue(4096, 0xAA)
	if err := errors.Join(tx.Put("ta", ta), tx.Delete("k19"), tx.Commit()); err != nil {
		t.Fatal(err)
	}
	model["ta"] = ta
	delete(model, "k19")
	if err := ctx.Delete("k18"); err != nil {
		t.Fatal(err)
	}
	delete(model, "k18")
	if err := pump(primary, sb, modelOf(model)); err != nil {
		t.Fatal(err)
	}

	if err := sb.Promote(); err != nil {
		t.Fatal(err)
	}
	sctx := sb.Init()
	defer sctx.Finalize()
	var live uint64
	for k, v := range model {
		mustHit(t, sb, sctx, k, v)
		live += uint64(len(v))
	}
	if cs := sb.CacheStats(); cs.Bytes != live || cs.Misses != 0 {
		t.Fatalf("promoted standby: %+v, want exactly the %d live bytes cached and no miss", cs, live)
	}
}

func TestReopenStartsCold(t *testing.T) {
	cfg := Config{Blocks: 2048, MaxObjects: 512, LogBytes: 1 << 18, CacheBytes: 8 << 20}
	s, err := Format(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := s.Init()
	v := wtValue(4096, 9)
	if err := ctx.Put("k", v); err != nil {
		t.Fatal(err)
	}
	mustHit(t, s, ctx, "k", v)
	ctx.Finalize()
	if err := s.CloseNoCheckpoint(); err != nil { // as a crash leaves it: the put only in the log
		t.Fatal(err)
	}
	cfg.PMEM, cfg.SSD = s.Devices()
	r, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if cs := r.CacheStats(); cs.Bytes != 0 {
		t.Fatalf("recovery replay populated the cache: %+v", cs)
	}
	rctx := r.Init()
	defer rctx.Finalize()
	before := ssdRead(r)
	if got, err := rctx.Get("k", nil); err != nil || !bytes.Equal(got, v) {
		t.Fatalf("Get after reopen: %v", err)
	}
	if cs := r.CacheStats(); cs.Misses != 1 || ssdRead(r)-before != 4096 {
		t.Fatalf("first read after reopen was not a verified device read: %+v", cs)
	}
}

// With the block published, a bit that flips on the medium after the Put is
// masked: reads are served, correctly, from DRAM. It surfaces where the
// medium is read — at Scrub, or at the first read after the entry is gone.
func TestPublishedEntryMasksAtRestCorruptionUntilScrubOrEviction(t *testing.T) {
	s := wtStore(t, 8<<20)
	defer s.Close()
	ctx := s.Init()
	defer ctx.Finalize()
	v := wtValue(4096, 0x5A)
	if err := ctx.Put("k", v); err != nil {
		t.Fatal(err)
	}
	_, e, err := s.lookup([]byte("k"))
	if err != nil {
		t.Fatal(err)
	}
	_, data := s.Devices()
	flipped := []byte{v[0] ^ 1}
	if err := data.WriteAt(s.dataOff(e.Blocks[0])+17, flipped); err != nil {
		t.Fatal(err)
	}

	mustHit(t, s, ctx, "k", v)
	rep, err := s.Scrub(false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Corrupt) != 1 || rep.Corrupt[0].Block != e.Blocks[0] {
		t.Fatalf("Scrub reads the medium and must find the flip: %+v", rep)
	}
	mustHit(t, s, ctx, "k", v) // Scrub reports; it does not touch the cache

	s.resizeCache(0) // evict everything
	if _, err := ctx.Get("k", nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get after eviction = %v, want ErrCorrupt from the verified device read", err)
	}
}

// Readers and writers on the same few keys, with the cache resident and under
// pressure: whatever interleaving of publish, invalidate, miss-insert and
// evict they produce, a reader sees one whole version.
func TestConcurrentReadersAndWritersSameKeys(t *testing.T) {
	for _, cacheBytes := range []uint64{8 << 20, 32 << 10} {
		t.Run(fmt.Sprintf("cache=%dK", cacheBytes>>10), func(t *testing.T) {
			s := wtStore(t, cacheBytes)
			defer s.Close()
			const keys, size, ops = 8, 2*4096 + 512, 400
			key := func(i int) string { return fmt.Sprintf("hot-%d", i) }
			ctx := s.Init()
			for i := 0; i < keys; i++ {
				if err := ctx.Put(key(i), wtValue(size, 0)); err != nil {
					t.Fatal(err)
				}
			}
			ctx.Finalize()
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(2)
				go func(g int) { // writer
					defer wg.Done()
					c := s.Init()
					defer c.Finalize()
					for i := 0; i < ops; i++ {
						if err := c.Put(key((g+i)%keys), wtValue(size, byte(1+g+4*i))); err != nil {
							t.Error(err)
							return
						}
					}
				}(g)
				go func(g int) { // reader
					defer wg.Done()
					c := s.Init()
					defer c.Finalize()
					var buf []byte
					for i := 0; i < 2*ops; i++ {
						var err error
						if buf, err = c.Get(key((g+3*i)%keys), buf[:0]); err != nil {
							t.Error(err)
							return
						}
						if len(buf) != size || !bytes.Equal(buf, wtValue(size, buf[0])) {
							t.Errorf("Get(%s): a torn version (%d bytes)", key((g+3*i)%keys), len(buf))
							return
						}
					}
				}(g)
			}
			wg.Wait()
			if cs := s.CacheStats(); cs.Bytes > cs.Capacity || cs.Hits == 0 {
				t.Fatalf("%+v", cs)
			}
			if err := s.Check(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
