// Package btreestore models MongoDB-PM (WiredTiger with PMEM journal and
// index; paper §2.1, §5.1): a cached system with a *periodic* asynchronous
// checkpoint.
//
// Mechanisms reproduced:
//
//   - a DRAM page cache over SSD-resident data pages, with a physical
//     (key+value) journal on PMEM;
//   - periodic checkpoints that write-lock the page cache for their whole
//     duration while every dirty page is written to SSD ("On checkpoint,
//     the page cache is locked until all pages are made durable" — the
//     Fig. 1 tail-latency source), after which the journal truncates;
//   - crash recovery = metadata (mapping) rebuild + journal replay, which
//     dominates (Table 4: MongoDB-PM crash replay is the largest of all
//     systems); clean shutdown checkpoints first.
package btreestore

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"dstore/internal/baselines"
	"dstore/internal/kvapi"
	"dstore/internal/latency"
)

// Config sizes and tunes the model.
type Config struct {
	// RigConfig chooses the devices; Blocks defaults to 65536.
	baselines.RigConfig
	// JournalBytes is the PMEM journal capacity; a checkpoint triggers when
	// it is ~70% full. Default 16 MiB.
	JournalBytes uint64
	// CacheBytes caps the DRAM page cache; eviction writes dirty pages
	// through. Default 32 MiB.
	CacheBytes uint64
	// DisableCheckpoints models Fig. 1's no-checkpoint series (journal
	// recycles unsafely, the cache is never locked).
	DisableCheckpoints bool
}

const (
	blockSize = baselines.BlockSize
	// reservedCacheBytes models the cache DRAM reserved up front (paper
	// §5.6).
	reservedCacheBytes = 96 << 20
	// softwareNs is fixed per-op stack latency, calibrated to the MongoDB
	// document layer above WiredTiger (~25-50us measured).
	softwareNs = 25 * time.Microsecond
)

type page struct {
	val      []byte
	dirty    bool
	evicting bool // claimed by an evictor (guarded by stateMu)
}

// Store is the MongoDB-PM model.
type Store struct {
	*baselines.Rig // devices, block allocator (under stateMu), closed, Crash
	cfg            Config

	// cacheMu is the page-cache lock the paper describes: readers and
	// writers take it shared, a checkpoint takes it exclusive for its whole
	// duration.
	cacheMu sync.RWMutex

	stateMu    sync.Mutex // guards everything below
	cache      map[string]*page
	cacheBytes uint64
	mapping    map[string]uint64   // key -> block
	journal    *baselines.ValueLog // physical journal, truncated by a checkpoint
	table      *baselines.Table    // the mapping as of the last checkpoint

	ckptMu      sync.Mutex // one checkpoint at a time
	checkpoints uint64

	// blkMu stripes device I/O per block so an eviction writeback and a
	// concurrent miss-read of the same block serialize (the page latch of
	// a real engine).
	blkMu [64]sync.Mutex
}

func (s *Store) blockLock(blk uint64) *sync.Mutex { return &s.blkMu[blk%64] }

// New creates and formats a store.
func New(cfg Config) (*Store, error) {
	if cfg.JournalBytes == 0 {
		cfg.JournalBytes = 16 << 20
	}
	if cfg.CacheBytes == 0 {
		cfg.CacheBytes = 32 << 20
	}
	s := &Store{cfg: cfg, cache: map[string]*page{}, mapping: map[string]uint64{}}
	s.Rig, s.journal, s.table = baselines.NewLoggedRig(cfg.RigConfig, cfg.JournalBytes, nil)
	return s, nil
}

// Label implements kvapi.Store.
func (s *Store) Label() string { return "MongoDB-PM" }

// Put implements kvapi.Store: journal append (physical), then a dirty cache
// page. Blocks behind any running checkpoint (the cache lock).
func (s *Store) Put(key string, value []byte) error {
	if len(value) > blockSize {
		return fmt.Errorf("btreestore: value exceeds block size")
	}
	latency.Spin(softwareNs)

	s.cacheMu.RLock()
	s.stateMu.Lock()
	if s.Closed() {
		s.stateMu.Unlock()
		s.cacheMu.RUnlock()
		return errors.New("btreestore: closed")
	}
	if !s.journal.Fits(key, value) {
		if s.cfg.DisableCheckpoints {
			s.journal.Recycle() // per the experiment
		} else {
			// Backpressure: finish a checkpoint inline, like WiredTiger's
			// forced eviction. Drop locks, checkpoint, retry.
			s.stateMu.Unlock()
			s.cacheMu.RUnlock()
			if err := s.Checkpoint(); err != nil {
				return err
			}
			return s.Put(key, value)
		}
	}
	s.journal.Append(key, value)

	// Dirty the cached page.
	if pg, ok := s.cache[key]; ok {
		s.cacheBytes -= uint64(len(pg.val))
	}
	cp := append([]byte(nil), value...)
	s.cache[key] = &page{val: cp, dirty: true}
	s.cacheBytes += uint64(len(cp))
	if _, ok := s.mapping[key]; !ok {
		s.mapping[key] = s.AllocBlock()
	}
	needCkpt := !s.cfg.DisableCheckpoints && s.journal.Used() > s.cfg.JournalBytes*7/10
	var evictKey string
	var evictPage *page
	var evictBlk uint64
	var evictDirty bool
	if s.cacheBytes > s.cfg.CacheBytes {
		for k, pg := range s.cache {
			if k != key && !pg.evicting {
				evictKey, evictPage = k, pg
				break
			}
		}
		if evictPage != nil {
			evictPage.evicting = true // exclusive claim, under stateMu
			evictDirty = evictPage.dirty
			evictBlk = s.mapping[evictKey]
		}
	}
	s.stateMu.Unlock()

	// Write-through eviction: write back under the block's latch while the
	// page stays cached (readers see it until the block is durable), then
	// drop it from the cache.
	if evictPage != nil {
		if evictDirty {
			lk := s.blockLock(evictBlk)
			lk.Lock()
			buf := make([]byte, blockSize)
			copy(buf, evictPage.val)
			werr := s.SSD.WriteAt(evictBlk*blockSize, buf)
			lk.Unlock()
			if werr != nil {
				return fmt.Errorf("btreestore: evict block %d: %w", evictBlk, werr)
			}
		}
		s.stateMu.Lock()
		if pg, ok := s.cache[evictKey]; ok && pg == evictPage {
			delete(s.cache, evictKey)
			s.cacheBytes -= uint64(len(evictPage.val))
		}
		s.stateMu.Unlock()
	}
	s.cacheMu.RUnlock()

	if needCkpt {
		// A failed async checkpoint leaves its pages dirty; the next trigger
		// retries them and Close reports what still fails.
		go s.Checkpoint() //nolint:errcheck
	}
	return nil
}

// Get implements kvapi.Store: cache hit, else SSD read (filling the cache).
func (s *Store) Get(key string, buf []byte) ([]byte, error) {
	latency.Spin(softwareNs)
	s.cacheMu.RLock()
	s.stateMu.Lock()
	if pg, ok := s.cache[key]; ok {
		out := append(buf, pg.val...)
		s.stateMu.Unlock()
		s.cacheMu.RUnlock()
		return out, nil
	}
	blk, ok := s.mapping[key]
	s.stateMu.Unlock()
	if !ok {
		s.cacheMu.RUnlock()
		return nil, kvapi.ErrNotFound
	}
	start := len(buf)
	buf = baselines.GrowBuf(buf, blockSize)
	lk := s.blockLock(blk)
	lk.Lock()
	rerr := s.SSD.ReadAt(blk*blockSize, buf[start:])
	lk.Unlock()
	s.cacheMu.RUnlock()
	if rerr != nil {
		return nil, fmt.Errorf("btreestore: read block %d: %w", blk, rerr)
	}
	return buf, nil
}

// Delete implements kvapi.Store.
func (s *Store) Delete(key string) error {
	latency.Spin(softwareNs)
	s.cacheMu.RLock()
	s.stateMu.Lock()
	if pg, ok := s.cache[key]; ok {
		s.cacheBytes -= uint64(len(pg.val))
		delete(s.cache, key)
	}
	if blk, ok := s.mapping[key]; ok {
		delete(s.mapping, key)
		s.FreeBlock(blk)
	}
	s.stateMu.Unlock()
	s.cacheMu.RUnlock()
	return nil
}

// Checkpoint write-locks the page cache, persists every dirty page to SSD,
// persists the mapping, and truncates the journal — the paper's periodic
// async checkpoint whose cache lock produces the Fig. 1 tails.
func (s *Store) Checkpoint() error {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()

	s.cacheMu.Lock() // every client blocks here until the checkpoint ends
	defer s.cacheMu.Unlock()

	s.stateMu.Lock()
	type dp struct {
		blk uint64
		pg  *page
	}
	var dirty []dp
	for k, pg := range s.cache {
		if pg.dirty {
			dirty = append(dirty, dp{blk: s.mapping[k], pg: pg})
		}
	}
	s.stateMu.Unlock()

	buf := make([]byte, blockSize)
	for _, d := range dirty {
		copy(buf, d.pg.val)
		clear(buf[len(d.pg.val):])
		if err := s.SSD.WriteAt(d.blk*blockSize, buf); err != nil {
			return fmt.Errorf("btreestore: checkpoint block %d: %w", d.blk, err)
		}
		d.pg.dirty = false
	}
	if err := s.SSD.Sync(); err != nil {
		return fmt.Errorf("btreestore: checkpoint sync: %w", err)
	}

	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	// The journal goes only once the mapping that replaces it is durable.
	if err := s.table.Store(s.mapping); err != nil {
		return fmt.Errorf("btreestore: checkpoint mapping: %w", err)
	}
	s.journal.Truncate(s.journal.Tail())
	s.checkpoints++
	return nil
}

// Close checkpoints and shuts down cleanly.
func (s *Store) Close() error {
	if !s.cfg.DisableCheckpoints {
		if err := s.Checkpoint(); err != nil {
			return err
		}
	}
	s.Halt()
	return nil
}

// FootprintBytes implements kvapi.FootprintReporter.
func (s *Store) FootprintBytes() (dram, pmemB, ssdB uint64) {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	return reservedCacheBytes + s.cacheBytes, uint64(s.PM.Size()), s.LiveBlocks() * blockSize
}

// Recover implements kvapi.Crasher: rebuild the mapping from the persisted
// copy (metadata) and replay the journal (replay — with full values, this is
// the dominant phase, matching Table 4).
func (s *Store) Recover() (metadataNs, replayNs int64, err error) {
	t0 := time.Now()
	s.stateMu.Lock()
	s.cache = map[string]*page{}
	s.cacheBytes = 0
	s.mapping = map[string]uint64{}
	s.ResetBlocks()
	s.table.Load(func(key string, blk uint64) {
		s.mapping[key] = blk
		s.UseBlock(blk)
	})
	metadataNs = time.Since(t0).Nanoseconds()

	t1 := time.Now()
	s.journal.Replay(func(key string, value []byte) {
		s.cache[key] = &page{val: value, dirty: true}
		s.cacheBytes += uint64(len(value))
		if _, ok := s.mapping[key]; !ok {
			s.mapping[key] = s.AllocBlock()
		}
		// Journal replay re-executes the update path through the stack.
		// Recovery runs before the store opens for traffic, so holding
		// stateMu across the simulated replay latency is the point: nothing
		// else may observe the half-replayed state.
		latency.Spin(softwareNs)
	})
	replayNs = time.Since(t1).Nanoseconds()
	s.Reopen()
	s.stateMu.Unlock()
	return metadataNs, replayNs, nil
}

var _ kvapi.IOStatsReporter = (*Store)(nil)
var _ kvapi.Store = (*Store)(nil)
var _ kvapi.FootprintReporter = (*Store)(nil)
var _ kvapi.Crasher = (*Store)(nil)
