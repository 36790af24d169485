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
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"dstore/internal/kvapi"
	"dstore/internal/latency"
	"dstore/internal/pmem"
	"dstore/internal/ssd"
)

// Config sizes and tunes the model.
type Config struct {
	// JournalBytes is the PMEM journal capacity; a checkpoint triggers when
	// it is ~70% full. Default 16 MiB.
	JournalBytes uint64
	// MappingBytes is the PMEM region persisting the key→block mapping at
	// each checkpoint. Default 4 MiB.
	MappingBytes uint64
	// Blocks is the SSD capacity in 4 KB blocks. Default 65536.
	Blocks uint64
	// CacheBytes caps the DRAM page cache; eviction writes dirty pages
	// through. Default 32 MiB.
	CacheBytes uint64
	// ReservedCacheBytes models the cache DRAM reserved up front (paper
	// §5.6). Default 96 MiB.
	ReservedCacheBytes uint64
	// DisableCheckpoints models Fig. 1's no-checkpoint series (journal
	// recycles unsafely, the cache is never locked).
	DisableCheckpoints bool
	// SoftwareNs is fixed per-op stack latency, calibrated to the MongoDB
	// document layer above WiredTiger (~25-50us measured). Default 25000.
	SoftwareNs time.Duration
	// DeviceLatency enables calibrated device latencies on created devices.
	DeviceLatency bool
	// TrackPersistence enables the PMEM crash model on created devices.
	TrackPersistence bool
	// PMEM / SSD inject devices.
	PMEM *pmem.Device
	SSD  *ssd.Device
}

func (c *Config) setDefaults() {
	if c.JournalBytes == 0 {
		c.JournalBytes = 16 << 20
	}
	if c.MappingBytes == 0 {
		c.MappingBytes = 4 << 20
	}
	if c.Blocks == 0 {
		c.Blocks = 65536
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 32 << 20
	}
	if c.ReservedCacheBytes == 0 {
		c.ReservedCacheBytes = 96 << 20
	}
	if c.SoftwareNs == 0 {
		c.SoftwareNs = 25 * time.Microsecond
	}
}

const (
	blockSize = 4096
	// PMEM layout: [0,64) header | journal | mapping.
	hdrJournalTail = 0
	hdrMappingLen  = 8
	journalBase    = 64
)

type page struct {
	val      []byte
	dirty    bool
	evicting bool // claimed by an evictor (guarded by stateMu)
}

// Store is the MongoDB-PM model.
type Store struct {
	cfg Config
	pm  *pmem.Device
	dev *ssd.Device

	// cacheMu is the page-cache lock the paper describes: readers and
	// writers take it shared, a checkpoint takes it exclusive for its whole
	// duration.
	cacheMu sync.RWMutex

	stateMu     sync.Mutex // guards everything below
	cache       map[string]*page
	cacheBytes  uint64
	mapping     map[string]uint64 // key -> block
	nextBlk     uint64
	freeBlks    []uint64
	journalTail uint64
	closed      bool

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
	cfg.setDefaults()
	s := attach(cfg)
	s.pm.PutU64(hdrJournalTail, journalBase)
	s.pm.PutU64(hdrMappingLen, 0)
	s.pm.Persist(0, 16)
	s.journalTail = journalBase
	return s, nil
}

func attach(cfg Config) *Store {
	s := &Store{
		cfg:     cfg,
		cache:   map[string]*page{},
		mapping: map[string]uint64{},
	}
	s.pm = cfg.PMEM
	if s.pm == nil {
		var lat pmem.Latencies
		if cfg.DeviceLatency {
			lat = pmem.DefaultLatencies()
		}
		s.pm = pmem.New(pmem.Config{
			Size:             int(64 + cfg.JournalBytes + cfg.MappingBytes),
			TrackPersistence: cfg.TrackPersistence,
			Latency:          lat,
		})
	}
	s.dev = cfg.SSD
	if s.dev == nil {
		var lat ssd.Latencies
		if cfg.DeviceLatency {
			lat = ssd.DefaultLatencies()
		}
		s.dev = ssd.New(ssd.Config{Pages: int(cfg.Blocks), PowerProtected: true, Latency: lat})
	}
	return s
}

// Label implements kvapi.Store.
func (s *Store) Label() string { return "MongoDB-PM" }

// Devices returns the simulated devices, for crash hooks and traffic counters.
func (s *Store) Devices() (*pmem.Device, *ssd.Device) { return s.pm, s.dev }

// Put implements kvapi.Store: journal append (physical), then a dirty cache
// page. Blocks behind any running checkpoint (the cache lock).
func (s *Store) Put(key string, value []byte) error {
	if len(value) > blockSize {
		return fmt.Errorf("btreestore: value exceeds block size")
	}
	latency.Spin(s.cfg.SoftwareNs)

	s.cacheMu.RLock()
	s.stateMu.Lock()
	if s.closed {
		s.stateMu.Unlock()
		s.cacheMu.RUnlock()
		return errors.New("btreestore: closed")
	}
	// Journal append.
	rec := uint64(8 + len(key) + len(value))
	if s.journalTail+rec > journalBase+s.cfg.JournalBytes {
		if s.cfg.DisableCheckpoints {
			s.journalTail = journalBase // unsafe recycle, per the experiment
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
	off := s.journalTail
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(key)))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(value)))
	s.pm.WriteAt(off, hdr[:])
	s.pm.WriteAt(off+8, []byte(key))
	s.pm.WriteAt(off+8+uint64(len(key)), value)
	s.pm.Persist(off, rec)
	s.journalTail = off + rec
	s.pm.PutU64(hdrJournalTail, s.journalTail)
	s.pm.Persist(hdrJournalTail, 8)

	// Dirty the cached page.
	if pg, ok := s.cache[key]; ok {
		s.cacheBytes -= uint64(len(pg.val))
	}
	cp := append([]byte(nil), value...)
	s.cache[key] = &page{val: cp, dirty: true}
	s.cacheBytes += uint64(len(cp))
	if _, ok := s.mapping[key]; !ok {
		blk := s.allocBlockLocked()
		s.mapping[key] = blk
	}
	needCkpt := !s.cfg.DisableCheckpoints &&
		(s.journalTail-journalBase) > s.cfg.JournalBytes*7/10
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
			werr := s.dev.WriteAt(evictBlk*blockSize, buf)
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

func (s *Store) allocBlockLocked() uint64 {
	if n := len(s.freeBlks); n > 0 {
		blk := s.freeBlks[n-1]
		s.freeBlks = s.freeBlks[:n-1]
		return blk
	}
	blk := s.nextBlk
	s.nextBlk++
	return blk
}

// Get implements kvapi.Store: cache hit, else SSD read (filling the cache).
func (s *Store) Get(key string, buf []byte) ([]byte, error) {
	latency.Spin(s.cfg.SoftwareNs)
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
	buf = growBuf(buf, blockSize)
	lk := s.blockLock(blk)
	lk.Lock()
	rerr := s.dev.ReadAt(blk*blockSize, buf[start:])
	lk.Unlock()
	s.cacheMu.RUnlock()
	if rerr != nil {
		return nil, fmt.Errorf("btreestore: read block %d: %w", blk, rerr)
	}
	return buf, nil
}

// growBuf extends buf by n bytes reusing capacity.
func growBuf(buf []byte, n int) []byte {
	need := len(buf) + n
	if cap(buf) >= need {
		return buf[:need]
	}
	nb := make([]byte, need, need*2)
	copy(nb, buf)
	return nb
}

// Delete implements kvapi.Store.
func (s *Store) Delete(key string) error {
	latency.Spin(s.cfg.SoftwareNs)
	s.cacheMu.RLock()
	s.stateMu.Lock()
	if pg, ok := s.cache[key]; ok {
		s.cacheBytes -= uint64(len(pg.val))
		delete(s.cache, key)
	}
	if blk, ok := s.mapping[key]; ok {
		delete(s.mapping, key)
		s.freeBlks = append(s.freeBlks, blk)
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
		for i := len(d.pg.val); i < blockSize; i++ {
			buf[i] = 0
		}
		if err := s.dev.WriteAt(d.blk*blockSize, buf); err != nil {
			return fmt.Errorf("btreestore: checkpoint block %d: %w", d.blk, err)
		}
		d.pg.dirty = false
	}
	if err := s.dev.Sync(); err != nil {
		return fmt.Errorf("btreestore: checkpoint sync: %w", err)
	}

	s.stateMu.Lock()
	s.persistMappingLocked()
	s.journalTail = journalBase
	s.pm.PutU64(hdrJournalTail, s.journalTail)
	s.pm.Persist(hdrJournalTail, 8)
	s.checkpoints++
	s.stateMu.Unlock()
	return nil
}

func (s *Store) persistMappingLocked() {
	base := journalBase + s.cfg.JournalBytes
	off := base
	for k, blk := range s.mapping {
		need := uint64(12 + len(k))
		if off+need > base+s.cfg.MappingBytes {
			break
		}
		var hdr [12]byte
		binary.LittleEndian.PutUint32(hdr[0:], uint32(len(k)))
		binary.LittleEndian.PutUint64(hdr[4:], blk)
		s.pm.WriteAt(off, hdr[:])
		s.pm.WriteAt(off+12, []byte(k))
		off += need
	}
	s.pm.Persist(base, off-base)
	s.pm.PutU64(hdrMappingLen, off-base)
	s.pm.Persist(hdrMappingLen, 8)
}

// Checkpoints reports how many checkpoints have completed.
func (s *Store) Checkpoints() uint64 {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	return s.checkpoints
}

// Close checkpoints and shuts down cleanly.
func (s *Store) Close() error {
	if !s.cfg.DisableCheckpoints {
		if err := s.Checkpoint(); err != nil {
			return err
		}
	}
	s.stateMu.Lock()
	s.closed = true
	s.stateMu.Unlock()
	return nil
}

// FootprintBytes implements kvapi.FootprintReporter.
func (s *Store) FootprintBytes() (dram, pmemB, ssdB uint64) {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	dram = s.cfg.ReservedCacheBytes + s.cacheBytes
	pmemB = 64 + s.cfg.JournalBytes + s.cfg.MappingBytes
	ssdB = (s.nextBlk - uint64(len(s.freeBlks))) * blockSize
	return
}

// Crash implements kvapi.Crasher.
func (s *Store) Crash(seed int64) error {
	s.stateMu.Lock()
	s.closed = true
	s.stateMu.Unlock()
	if s.cfg.TrackPersistence {
		if err := s.pm.Crash(pmem.CrashDropDirty, seed); err != nil {
			return err
		}
	}
	s.dev.Crash(seed)
	return nil
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
	s.nextBlk = 0
	s.freeBlks = nil

	base := journalBase + s.cfg.JournalBytes
	mlen := s.pm.GetU64(hdrMappingLen)
	off := base
	for off < base+mlen {
		var hdr [12]byte
		s.pm.ReadAt(off, hdr[:])
		kl := uint64(binary.LittleEndian.Uint32(hdr[0:]))
		blk := binary.LittleEndian.Uint64(hdr[4:])
		if kl == 0 || off+12+kl > base+mlen {
			break
		}
		kb := make([]byte, kl)
		s.pm.ReadAt(off+12, kb)
		s.mapping[string(kb)] = blk
		if blk >= s.nextBlk {
			s.nextBlk = blk + 1
		}
		off += 12 + kl
	}
	metadataNs = time.Since(t0).Nanoseconds()

	t1 := time.Now()
	tail := s.pm.GetU64(hdrJournalTail)
	off = journalBase
	for off+8 <= tail {
		var hdr [8]byte
		s.pm.ReadAt(off, hdr[:])
		kl := uint64(binary.LittleEndian.Uint32(hdr[0:]))
		vl := uint64(binary.LittleEndian.Uint32(hdr[4:]))
		if off+8+kl+vl > tail {
			break
		}
		kb := make([]byte, kl)
		vb := make([]byte, vl)
		s.pm.ReadAt(off+8, kb)
		s.pm.ReadAt(off+8+kl, vb)
		key := string(kb)
		s.cache[key] = &page{val: vb, dirty: true}
		s.cacheBytes += vl
		if _, ok := s.mapping[key]; !ok {
			s.mapping[key] = s.allocBlockLocked()
		}
		off += 8 + kl + vl
		// Journal replay re-executes the update path through the stack.
		// Recovery runs before the store opens for traffic, so holding
		// stateMu across the simulated replay latency is the point: nothing
		// else may observe the half-replayed state.
		latency.Spin(s.cfg.SoftwareNs) //nolint:lock-order // exclusive recovery section
	}
	replayNs = time.Since(t1).Nanoseconds()
	s.closed = false
	s.stateMu.Unlock()
	return metadataNs, replayNs, nil
}

// IOBytes implements kvapi.IOStatsReporter.
func (s *Store) IOBytes() (pmemBytes, ssdBytes uint64) {
	ps := s.pm.Stats()
	ds := s.dev.Stats()
	return ps.BytesRead + ps.BytesWritten, ds.BytesRead + ds.BytesWritten
}

var _ kvapi.IOStatsReporter = (*Store)(nil)
var _ kvapi.Store = (*Store)(nil)
var _ kvapi.FootprintReporter = (*Store)(nil)
var _ kvapi.Crasher = (*Store)(nil)
