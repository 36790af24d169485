package dstore

// Cache equivalence property test: a cached store and an uncached store
// receive an identical operation stream — concurrent puts, MPuts, transaction
// commits, deletes and object WriteAt — and every read must observe
// byte-identical state on both. It runs twice: with a deliberately small cache
// (so CLOCK evicts constantly and most writes find no room to publish into)
// and with one that holds the whole working set (so every write publishes and
// every verified read is answered from what a write put there). Per-stripe RW
// locks make each key quiescent while a reader compares the two stores; the
// cache itself is exercised lock-free underneath. Run with -race: the point is
// that hits, publishes, inserts, invalidations, and evictions interleaving
// with the write pipeline never surface a stale block.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"dstore/internal/fault"
)

const (
	equivKeys    = 64
	equivStripes = 16
)

func equivStore(t *testing.T, cacheBytes uint64, seed int64) *Store {
	t.Helper()
	// Transient-only faults: the store retries them internally or surfaces a
	// typed error the driver retries; neither may ever yield stale data.
	plan := fault.NewPlan(fault.Config{
		Seed:         seed,
		ReadErrRate:  0,
		WriteErrRate: 0,
	})
	s, err := Format(Config{
		Blocks:     8192,
		MaxObjects: 256,
		LogBytes:   1 << 19,
		SSDFaults:  plan,
		CacheBytes: cacheBytes,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// equivRetry runs f until it succeeds, retrying surfaced transient faults.
// Any other error fails the test.
func equivRetry(t *testing.T, what string, f func() error) {
	t.Helper()
	for attempt := 0; ; attempt++ {
		err := f()
		if err == nil {
			return
		}
		if !fault.IsTransient(err) || attempt > 100 {
			t.Fatalf("%s: %v (attempt %d)", what, err, attempt)
		}
	}
}

func equivKey(i int) string { return fmt.Sprintf("equiv-%02d", i) }

func TestCacheEquivalenceUnderConcurrency(t *testing.T) {
	// Working set: up to 64 keys x 3 blocks = ~768 KiB. A 128 KiB cache
	// keeps CLOCK under constant capacity pressure; 8 MiB never fills.
	t.Run("pressure", func(t *testing.T) { cacheEquivalence(t, 128<<10) })
	t.Run("resident", func(t *testing.T) { cacheEquivalence(t, 8<<20) })
}

func cacheEquivalence(t *testing.T, cacheBytes uint64) {
	const seed = 42
	cached := equivStore(t, cacheBytes, seed)
	defer cached.Close()
	plain := equivStore(t, 0, seed+1)
	defer plain.Close()

	var stripes [equivStripes]sync.RWMutex
	stripeOf := func(key int) *sync.RWMutex { return &stripes[key%equivStripes] }

	const (
		writers   = 4
		readers   = 4
		writerOps = 300
		readerOps = 600
	)
	var wg sync.WaitGroup

	// Writers apply the identical mutation to both stores under the key's
	// exclusive stripe lock, retrying surfaced transient faults per store
	// until both have settled on the same state.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)*7919))
			cctx, pctx := cached.Init(), plain.Init()
			defer cctx.Finalize()
			defer pctx.Finalize()
			for i := 0; i < writerOps; i++ {
				ki := rng.Intn(equivKeys)
				k := equivKey(ki)
				mu := stripeOf(ki)
				switch r := rng.Intn(12); {
				case r < 6: // put
					v := make([]byte, 1+rng.Intn(3*4096))
					rng.Read(v)
					mu.Lock()
					equivRetry(t, "cached Put", func() error { return cctx.Put(k, v) })
					equivRetry(t, "plain Put", func() error { return pctx.Put(k, v) })
					mu.Unlock()
				case r >= 10: // two keys of one stripe in one MPut or one transaction
					k2 := equivKey((ki + equivStripes) % equivKeys)
					v, v2 := make([]byte, 1+rng.Intn(3*4096)), make([]byte, 1+rng.Intn(4096))
					rng.Read(v)
					rng.Read(v2)
					both := func(s *Store, c *Ctx) func() error {
						if r == 10 {
							return func() error { return errors.Join(s.MPut(0, []string{k, k2}, [][]byte{v, v2})...) }
						}
						return func() error {
							tx, err := c.Begin()
							if err != nil {
								return err
							}
							return errors.Join(tx.Put(k, v), tx.Put(k2, v2), tx.Commit())
						}
					}
					mu.Lock()
					equivRetry(t, "cached MPut/txn", both(cached, cctx))
					equivRetry(t, "plain MPut/txn", both(plain, pctx))
					mu.Unlock()
				case r < 8: // delete
					del := func(c *Ctx) func() error {
						return func() error {
							if err := c.Delete(k); err != nil && err != ErrNotFound {
								return err
							}
							return nil
						}
					}
					mu.Lock()
					equivRetry(t, "cached Delete", del(cctx))
					equivRetry(t, "plain Delete", del(pctx))
					mu.Unlock()
				default: // overwrite a span in place (invalidateSums path)
					span := make([]byte, 1+rng.Intn(4096))
					rng.Read(span)
					off := int64(rng.Intn(8192 - len(span)))
					writeAt := func(c *Ctx) func() error {
						return func() error {
							o, err := c.Open(k, 8192, OpenCreate|OpenRead|OpenWrite)
							if err != nil {
								return err
							}
							_, err = o.WriteAt(span, off)
							o.Close()
							return err
						}
					}
					mu.Lock()
					equivRetry(t, "cached WriteAt", writeAt(cctx))
					equivRetry(t, "plain WriteAt", writeAt(pctx))
					mu.Unlock()
				}
			}
		}(w)
	}

	// Readers hold the stripe read lock (keeping the key quiescent, not the
	// stores) and demand byte-identical results from both stores, via Get
	// and via Object.ReadAt sub-spans.
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + 1000 + int64(r)*104729))
			cctx, pctx := cached.Init(), plain.Init()
			defer cctx.Finalize()
			defer pctx.Finalize()
			for i := 0; i < readerOps; i++ {
				ki := rng.Intn(equivKeys)
				k := equivKey(ki)
				mu := stripeOf(ki)
				mu.RLock()
				if rng.Intn(4) > 0 {
					compareGet(t, cctx, pctx, k)
				} else {
					compareReadAt(t, cctx, pctx, k, rng)
				}
				mu.RUnlock()
				if t.Failed() {
					return
				}
			}
		}(r)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Quiescent sweep: every key byte-identical, object counts equal.
	cctx, pctx := cached.Init(), plain.Init()
	defer cctx.Finalize()
	defer pctx.Finalize()
	for i := 0; i < equivKeys; i++ {
		compareGet(t, cctx, pctx, equivKey(i))
	}
	if cc, pc := cached.Count(), plain.Count(); cc != pc {
		t.Fatalf("object counts diverged: cached=%d plain=%d", cc, pc)
	}
	if err := cached.Check(); err != nil {
		t.Fatalf("fsck cached: %v", err)
	}
	if err := plain.Check(); err != nil {
		t.Fatalf("fsck plain: %v", err)
	}

	// The run must actually have exercised the cache the way its size says.
	// (Under pressure Invalidations is not asserted: it only counts drops of
	// *resident* entries, and under that much eviction churn the mutated
	// blocks are often already gone.)
	cs := cached.CacheStats()
	if cacheBytes < 768<<10 {
		if cs.Hits == 0 || cs.Misses == 0 {
			t.Errorf("cache under-exercised: %+v", cs)
		}
		if cs.Evictions == 0 {
			t.Errorf("no evictions — cache not under capacity pressure: %+v", cs)
		}
	} else if cs.Hits == 0 || cs.Misses != 0 || cs.Evictions != 0 || cs.Invalidations == 0 {
		// Every verified block a reader asks for was published by the write
		// that recorded its checksum, and nothing but a displacing write
		// removes it: no read ever misses.
		t.Errorf("resident cache: %+v, want hits and invalidations only", cs)
	}
	if ps := plain.CacheStats(); ps.Capacity != 0 || ps.Hits != 0 {
		t.Errorf("uncached store reports cache activity: %+v", ps)
	}
}

// compareGet demands both stores agree on presence and bytes for key k.
// The caller holds k's stripe lock (at least shared).
func compareGet(t *testing.T, cctx, pctx *Ctx, k string) {
	t.Helper()
	var cv, pv []byte
	var cerr, perr error
	equivRetry(t, "cached Get", func() error {
		cv, cerr = cctx.Get(k, nil)
		if fault.IsTransient(cerr) {
			return cerr
		}
		return nil
	})
	equivRetry(t, "plain Get", func() error {
		pv, perr = pctx.Get(k, nil)
		if fault.IsTransient(perr) {
			return perr
		}
		return nil
	})
	if (cerr == ErrNotFound) != (perr == ErrNotFound) {
		t.Errorf("Get(%s) presence diverged: cached err=%v plain err=%v", k, cerr, perr)
		return
	}
	if cerr != nil || perr != nil {
		if cerr != ErrNotFound {
			t.Errorf("Get(%s): cached=%v plain=%v", k, cerr, perr)
		}
		return
	}
	if !bytes.Equal(cv, pv) {
		t.Errorf("Get(%s) diverged: cached %d bytes, plain %d bytes", k, len(cv), len(pv))
	}
}

// compareReadAt opens k on both stores and demands an identical random
// sub-span. The caller holds k's stripe lock (at least shared).
func compareReadAt(t *testing.T, cctx, pctx *Ctx, k string, rng *rand.Rand) {
	t.Helper()
	co, cerr := cctx.Open(k, 0, OpenRead)
	po, perr := pctx.Open(k, 0, OpenRead)
	if (cerr == nil) != (perr == nil) {
		t.Errorf("Open(%s) presence diverged: cached err=%v plain err=%v", k, cerr, perr)
	}
	if cerr != nil || perr != nil {
		if cerr != nil && perr != nil &&
			!errors.Is(cerr, ErrNotFound) && !fault.IsTransient(cerr) {
			t.Errorf("Open(%s): cached=%v plain=%v", k, cerr, perr)
		}
		if cerr == nil {
			co.Close()
		}
		if perr == nil {
			po.Close()
		}
		return
	}
	defer co.Close()
	defer po.Close()
	csz, _ := co.Size()
	psz, _ := po.Size()
	if csz != psz {
		t.Errorf("Size(%s) diverged: cached=%d plain=%d", k, csz, psz)
		return
	}
	if csz == 0 {
		return
	}
	n := 1 + rng.Intn(int(csz))
	off := int64(rng.Intn(int(csz) - n + 1))
	cbuf, pbuf := make([]byte, n), make([]byte, n)
	equivRetry(t, "cached ReadAt", func() error {
		_, err := co.ReadAt(cbuf, off)
		return err
	})
	equivRetry(t, "plain ReadAt", func() error {
		_, err := po.ReadAt(pbuf, off)
		return err
	})
	if !bytes.Equal(cbuf, pbuf) {
		t.Errorf("ReadAt(%s, %d, %d) diverged", k, off, n)
	}
}
