// Package lsmstore models PMEM-RocksDB (paper §2.1, §5.1): a cached system
// with a continuous asynchronous checkpoint — the log-structured merge tree
// with a PMEM-resident write-ahead log.
//
// Mechanisms reproduced, at the level the paper's analysis depends on:
//
//   - a DRAM memtable with a physical (key+value) WAL on PMEM: every put
//     pays a full-value PMEM write + flush, unlike DStore's 32-byte logical
//     records;
//   - level 0 kept in DRAM (the pmem-rocksdb configuration the paper
//     evaluates): memtables rotate into L0 files, and a background
//     compaction merges L0 into an SSD-resident L1;
//   - write stalls: when L0 reaches its file limit or the WAL fills,
//     frontend writes block until compaction catches up ("for a short
//     duration, it was unable to serve any update requests, violating
//     quiescent freedom", §5.3);
//   - the WAL can only be truncated once L0 reaches the SSD, so WAL
//     pressure and compaction are coupled;
//   - crash recovery replays the WAL and reloads the manifest, clean
//     shutdown flushes everything first (Table 4 behaviour).
//
// The model stores one object per SSD block (the paper's 4 KB operations)
// and keeps the L1 manifest in a PMEM region, persisted at each compaction.
package lsmstore

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
	// RigConfig chooses the devices; Blocks (the L1 capacity) defaults to
	// 65536.
	baselines.RigConfig
	// MemtableBytes rotates the memtable when exceeded. Default 1 MiB.
	MemtableBytes uint64
	// MaxL0Files stalls writers when reached. Default 4.
	MaxL0Files int
	// WALBytes is the PMEM log capacity. Default 16 MiB.
	WALBytes uint64
	// DisableCompaction models the "checkpoints disabled" series of Fig. 1:
	// L0 grows without bound and writers never stall (the WAL is truncated
	// unsafely, as the experiment requires).
	DisableCompaction bool
}

const (
	blockSize = baselines.BlockSize
	// reservedCacheBytes models the block cache RocksDB reserves up front
	// (paper §5.6: reserved but underutilized DRAM).
	reservedCacheBytes = 64 << 20
	// softwareNs is fixed software-stack latency per operation, calibrated
	// to RocksDB's measured path length (WriteBatch, version sets, level
	// probes — ~15-25us on comparable hardware).
	softwareNs = 18 * time.Microsecond
)

// Store is the PMEM-RocksDB model.
type Store struct {
	*baselines.Rig // devices, block allocator (under mu), closed, Crash
	cfg            Config

	mu        sync.Mutex
	stallCond *sync.Cond

	mem      map[string][]byte
	memBytes uint64
	l0       []map[string][]byte // frozen memtables, oldest first
	l0Bytes  uint64
	l1       map[string]uint64   // key -> block id
	wal      *baselines.ValueLog // truncated once its prefix reaches L1
	manifest *baselines.Table    // the L1 index as of the last compaction

	compacting bool
	bgWake     chan struct{}
	bgQuit     chan struct{}
	bgDone     chan struct{}

	stalls uint64
}

// New creates (and formats) a store.
func New(cfg Config) (*Store, error) {
	if cfg.MemtableBytes == 0 {
		cfg.MemtableBytes = 1 << 20
	}
	if cfg.MaxL0Files == 0 {
		cfg.MaxL0Files = 4
	}
	if cfg.WALBytes == 0 {
		cfg.WALBytes = 16 << 20
	}
	s := &Store{cfg: cfg, mem: map[string][]byte{}, l1: map[string]uint64{}}
	s.stallCond = sync.NewCond(&s.mu)
	s.Rig, s.wal, s.manifest = baselines.NewLoggedRig(cfg.RigConfig, cfg.WALBytes, s.stop)
	s.start()
	return s, nil
}

// start runs the compactor.
func (s *Store) start() {
	s.bgWake = make(chan struct{}, 1)
	s.bgQuit = make(chan struct{})
	s.bgDone = make(chan struct{})
	go func() {
		defer close(s.bgDone)
		for {
			select {
			case <-s.bgQuit:
				return
			case <-s.bgWake:
				// A failed compaction left L0 and the WAL as they were;
				// the next wake retries it.
				s.compact() //nolint:errcheck
			}
		}
	}()
}

// stop is the rig's halt hook: it wakes stalled writers to see the store
// closed and stops the compactor.
func (s *Store) stop() {
	s.mu.Lock()
	s.stallCond.Broadcast()
	s.mu.Unlock()
	close(s.bgQuit)
	<-s.bgDone
}

// Label implements kvapi.Store.
func (s *Store) Label() string { return "PMEM-RocksDB" }

// Put implements kvapi.Store: WAL append (physical record: key AND value to
// PMEM), then memtable insert, stalling on L0/WAL pressure.
func (s *Store) Put(key string, value []byte) error {
	if len(value) > blockSize {
		return fmt.Errorf("lsmstore: value exceeds block size")
	}
	latency.Spin(softwareNs)

	s.mu.Lock()
	if s.Closed() {
		s.mu.Unlock()
		return errors.New("lsmstore: closed")
	}
	// Write stall: too many L0 files or WAL out of space.
	for !s.cfg.DisableCompaction &&
		(len(s.l0) >= s.cfg.MaxL0Files || !s.wal.Fits(key, value)) {
		s.stalls++
		s.kickCompaction()
		s.stallCond.Wait()
		if s.Closed() {
			s.mu.Unlock()
			return errors.New("lsmstore: closed")
		}
	}
	if s.cfg.DisableCompaction && !s.wal.Fits(key, value) {
		s.wal.Recycle() // Fig. 1's no-checkpoint configuration
	}
	s.wal.Append(key, value) // the RocksDB WAL sync

	// Memtable insert.
	if old, ok := s.mem[key]; ok {
		s.memBytes -= uint64(len(old) + len(key))
	}
	cp := append([]byte(nil), value...)
	s.mem[key] = cp
	s.memBytes += uint64(len(cp) + len(key))
	if s.memBytes >= s.cfg.MemtableBytes {
		s.rotateLocked()
	}
	s.mu.Unlock()
	return nil
}

// rotateLocked moves the memtable into a new L0 file.
func (s *Store) rotateLocked() {
	if len(s.mem) == 0 {
		return
	}
	s.l0 = append(s.l0, s.mem)
	s.l0Bytes += s.memBytes
	s.mem = map[string][]byte{}
	s.memBytes = 0
	if !s.cfg.DisableCompaction {
		s.kickCompaction()
	}
}

func (s *Store) kickCompaction() {
	select {
	case s.bgWake <- struct{}{}:
	default:
	}
}

// compact merges all L0 files into L1 on SSD — the continuous background
// checkpoint. The memtable rotates in first (RocksDB flushes memtables when
// the WAL needs space), so the compaction covers a WAL prefix that can be
// truncated afterwards. The merge reads frozen L0 files without the lock;
// installing results and truncating the WAL retakes it.
func (s *Store) compact() error {
	s.mu.Lock()
	if s.compacting {
		s.mu.Unlock()
		return nil
	}
	s.rotateLocked()
	if len(s.l0) == 0 {
		// Nothing to do; wake stalled writers so they re-evaluate.
		s.stallCond.Broadcast()
		s.mu.Unlock()
		return nil
	}
	s.compacting = true
	files := s.l0
	walCut := s.wal.Tail()
	s.mu.Unlock()

	// Merge newest-wins.
	merged := map[string][]byte{}
	for _, f := range files {
		for k, v := range f {
			merged[k] = v
		}
	}
	// Write each key's block to SSD. Block ids are chosen under the lock,
	// the device writes happen outside it.
	type out struct {
		blk   uint64
		fresh bool // allocated by this compaction
		val   []byte
	}
	outs := make(map[string]out, len(merged))
	s.mu.Lock()
	for k, v := range merged {
		blk, ok := s.l1[k]
		if !ok {
			blk = s.AllocBlock()
		}
		outs[k] = out{blk: blk, fresh: !ok, val: v}
	}
	s.mu.Unlock()
	var err error
	for _, o := range outs {
		buf := make([]byte, blockSize)
		copy(buf, o.val)
		if err = s.SSD.WriteAt(o.blk*blockSize, buf); err != nil {
			err = fmt.Errorf("lsmstore: compact block %d: %w", o.blk, err)
			break
		}
	}

	// Install, persist the manifest, truncate the compacted WAL prefix.
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.stallCond.Broadcast()
	s.compacting = false
	if err == nil {
		for k, o := range outs {
			s.l1[k] = o.blk
		}
		if err = s.manifest.Store(s.l1); err != nil {
			err = fmt.Errorf("lsmstore: compact manifest: %w", err)
		}
	}
	if err != nil {
		// Abort the compaction: L0 and the WAL prefix stay intact, so no
		// data is lost; every value remains readable from the memtable/L0
		// path and replayable from the WAL. Freshly allocated blocks return
		// to the free list and a later compaction retries.
		for k, o := range outs {
			if o.fresh {
				delete(s.l1, k)
				s.FreeBlock(o.blk)
			}
		}
		return err
	}
	s.l0 = s.l0[len(files):]
	if len(s.l0) == 0 {
		s.l0Bytes = 0
	}
	// Records up to walCut reached SSD; the suffix (puts that arrived during
	// the merge, still memtable-resident) stays.
	s.wal.Truncate(walCut)
	if len(s.l0) > 0 {
		s.kickCompaction()
	}
	return nil
}

// Get implements kvapi.Store: memtable, then L0 (newest first), then L1 on
// SSD.
func (s *Store) Get(key string, buf []byte) ([]byte, error) {
	latency.Spin(softwareNs)
	s.mu.Lock()
	if v, ok := s.mem[key]; ok {
		out := append(buf, v...)
		s.mu.Unlock()
		return out, nil
	}
	for i := len(s.l0) - 1; i >= 0; i-- {
		if v, ok := s.l0[i][key]; ok {
			out := append(buf, v...)
			s.mu.Unlock()
			return out, nil
		}
	}
	blk, ok := s.l1[key]
	s.mu.Unlock()
	if !ok {
		return nil, kvapi.ErrNotFound
	}
	start := len(buf)
	buf = baselines.GrowBuf(buf, blockSize)
	if err := s.SSD.ReadAt(blk*blockSize, buf[start:]); err != nil {
		return nil, fmt.Errorf("lsmstore: read block %d: %w", blk, err)
	}
	return buf, nil
}

// Delete implements kvapi.Store (tombstone via empty write; blocks recycle
// on the next compaction of the key).
func (s *Store) Delete(key string) error {
	latency.Spin(softwareNs)
	s.mu.Lock()
	if v, ok := s.mem[key]; ok {
		s.memBytes -= uint64(len(v) + len(key))
		delete(s.mem, key)
	}
	for _, f := range s.l0 {
		delete(f, key)
	}
	if blk, ok := s.l1[key]; ok {
		delete(s.l1, key)
		s.FreeBlock(blk)
	}
	s.mu.Unlock()
	return nil
}

// Close flushes everything (memtable and L0 to SSD) and stops the
// compactor — a clean shutdown.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.Closed() {
		s.mu.Unlock()
		return nil
	}
	s.rotateLocked()
	s.mu.Unlock()
	for {
		if err := s.compact(); err != nil {
			return err
		}
		s.mu.Lock()
		empty := len(s.l0) == 0
		s.mu.Unlock()
		if empty {
			break
		}
	}
	s.Halt()
	return nil
}

// FootprintBytes implements kvapi.FootprintReporter. RocksDB reserves its
// block-cache DRAM up front (paper §5.6).
func (s *Store) FootprintBytes() (dram, pmemB, ssdB uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return reservedCacheBytes + s.memBytes + s.l0Bytes, uint64(s.PM.Size()), s.LiveBlocks() * blockSize
}

// Recover implements kvapi.Crasher: reload the manifest (metadata phase) and
// replay the WAL into a fresh memtable (replay phase). The receiver becomes
// usable again.
func (s *Store) Recover() (metadataNs, replayNs int64, err error) {
	t0 := time.Now()
	s.mu.Lock()
	s.mem = map[string][]byte{}
	s.memBytes = 0
	s.l0 = nil
	s.l0Bytes = 0
	s.l1 = map[string]uint64{}
	s.ResetBlocks()

	// Metadata: manifest scan.
	s.manifest.Load(func(key string, blk uint64) {
		s.l1[key] = blk
		s.UseBlock(blk)
	})
	metadataNs = time.Since(t0).Nanoseconds()

	// Replay: WAL records into the memtable.
	t1 := time.Now()
	s.wal.Replay(func(key string, value []byte) {
		s.mem[key] = value
		s.memBytes += uint64(len(key) + len(value))
		// Replay re-executes the write path through the software stack;
		// nothing else runs until recovery returns.
		latency.Spin(softwareNs)
	})
	replayNs = time.Since(t1).Nanoseconds()

	s.Reopen()
	s.start()
	s.mu.Unlock()
	return metadataNs, replayNs, nil
}

var _ kvapi.IOStatsReporter = (*Store)(nil)
var _ kvapi.Store = (*Store)(nil)
var _ kvapi.FootprintReporter = (*Store)(nil)
var _ kvapi.Crasher = (*Store)(nil)
