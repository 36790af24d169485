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
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"dstore/internal/kvapi"
	"dstore/internal/latency"
	"dstore/internal/pmem"
	"dstore/internal/ssd"
)

// spinSoftware charges fixed software-stack latency (subject to the global
// latency switch).
func spinSoftware(d time.Duration) { latency.Spin(d) }

// Config sizes and tunes the model.
type Config struct {
	// MemtableBytes rotates the memtable when exceeded. Default 1 MiB.
	MemtableBytes uint64
	// MaxL0Files stalls writers when reached. Default 4.
	MaxL0Files int
	// WALBytes is the PMEM log capacity. Default 16 MiB.
	WALBytes uint64
	// ManifestBytes is the PMEM manifest region. Default 4 MiB.
	ManifestBytes uint64
	// Blocks is the SSD (L1) capacity in 4 KB blocks. Default 65536.
	Blocks uint64
	// DisableCompaction models the "checkpoints disabled" series of Fig. 1:
	// L0 grows without bound and writers never stall (the WAL is truncated
	// unsafely, as the experiment requires).
	DisableCompaction bool
	// ReservedCacheBytes models the block cache RocksDB reserves up front
	// (paper §5.6: reserved but underutilized DRAM). Default 64 MiB.
	ReservedCacheBytes uint64
	// SoftwareNs adds fixed software-stack latency per operation, calibrated
	// to RocksDB's measured path length (WriteBatch, version sets, level
	// probes — ~15-25us on comparable hardware). Default 18000.
	SoftwareNs time.Duration
	// DeviceLatency enables calibrated device latencies on created devices.
	DeviceLatency bool
	// TrackPersistence enables the PMEM crash model on created devices.
	TrackPersistence bool
	// PMEM / SSD inject devices (for recovery experiments).
	PMEM *pmem.Device
	SSD  *ssd.Device
}

func (c *Config) setDefaults() {
	if c.MemtableBytes == 0 {
		c.MemtableBytes = 1 << 20
	}
	if c.MaxL0Files == 0 {
		c.MaxL0Files = 4
	}
	if c.WALBytes == 0 {
		c.WALBytes = 16 << 20
	}
	if c.ManifestBytes == 0 {
		c.ManifestBytes = 4 << 20
	}
	if c.Blocks == 0 {
		c.Blocks = 65536
	}
	if c.ReservedCacheBytes == 0 {
		c.ReservedCacheBytes = 64 << 20
	}
	if c.SoftwareNs == 0 {
		c.SoftwareNs = 18 * time.Microsecond
	}
}

const (
	blockSize = 4096
	// PMEM layout: [0,64) header | [64, 64+WAL) wal | [.., +Manifest) manifest.
	hdrWALTail     = 0 // persisted WAL tail
	hdrManifestLen = 8 // persisted manifest length
	walBase        = 64
)

type sstFile struct {
	keys []string
	vals map[string][]byte
}

// Store is the PMEM-RocksDB model.
type Store struct {
	cfg Config
	pm  *pmem.Device
	dev *ssd.Device

	mu        sync.Mutex
	stallCond *sync.Cond

	mem      map[string][]byte
	memBytes uint64
	l0       []*sstFile
	l0Bytes  uint64
	l1       map[string]uint64 // key -> block id
	nextBlk  uint64
	freeBlks []uint64
	walTail  uint64

	compacting bool
	closed     bool
	bgWake     chan struct{}
	bgQuit     chan struct{}
	bgDone     chan struct{}

	stalls uint64
}

// New creates (and formats) a store.
func New(cfg Config) (*Store, error) {
	cfg.setDefaults()
	s, err := attach(cfg)
	if err != nil {
		return nil, err
	}
	s.pm.PutU64(hdrWALTail, walBase)
	s.pm.PutU64(hdrManifestLen, 0)
	s.pm.Persist(0, 16)
	s.walTail = walBase
	s.start()
	return s, nil
}

func attach(cfg Config) (*Store, error) {
	s := &Store{
		cfg:    cfg,
		mem:    map[string][]byte{},
		l1:     map[string]uint64{},
		bgWake: make(chan struct{}, 1),
		bgQuit: make(chan struct{}),
		bgDone: make(chan struct{}),
	}
	s.stallCond = sync.NewCond(&s.mu)
	s.pm = cfg.PMEM
	if s.pm == nil {
		var lat pmem.Latencies
		if cfg.DeviceLatency {
			lat = pmem.DefaultLatencies()
		}
		s.pm = pmem.New(pmem.Config{
			Size:             int(64 + cfg.WALBytes + cfg.ManifestBytes),
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
	return s, nil
}

func (s *Store) start() {
	go func() {
		defer close(s.bgDone)
		for {
			select {
			case <-s.bgQuit:
				return
			case <-s.bgWake:
				s.compact()
			}
		}
	}()
}

// stopBackground shuts the compactor down and waits for it.
func (s *Store) stopBackground() {
	close(s.bgQuit)
	<-s.bgDone
}

// Label implements kvapi.Store.
func (s *Store) Label() string { return "PMEM-RocksDB" }

// Devices returns the simulated devices, for crash hooks and traffic counters.
func (s *Store) Devices() (*pmem.Device, *ssd.Device) { return s.pm, s.dev }

func walRecordSize(key string, val []byte) uint64 {
	return uint64(8 + len(key) + len(val))
}

// Put implements kvapi.Store: WAL append (physical record: key AND value to
// PMEM), then memtable insert, stalling on L0/WAL pressure.
func (s *Store) Put(key string, value []byte) error {
	if len(value) > blockSize {
		return fmt.Errorf("lsmstore: value exceeds block size")
	}
	spinSoftware(s.cfg.SoftwareNs)
	rec := walRecordSize(key, value)

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("lsmstore: closed")
	}
	// Write stall: too many L0 files or WAL out of space.
	for !s.cfg.DisableCompaction &&
		(len(s.l0) >= s.cfg.MaxL0Files || s.walTail+rec > walBase+s.cfg.WALBytes) {
		s.stalls++
		s.kickCompaction()
		s.stallCond.Wait()
		if s.closed {
			s.mu.Unlock()
			return errors.New("lsmstore: closed")
		}
	}
	if s.cfg.DisableCompaction && s.walTail+rec > walBase+s.cfg.WALBytes {
		// Fig. 1's no-checkpoint configuration recycles the WAL unsafely.
		s.walTail = walBase
	}

	// WAL append: length-prefixed physical record, persisted, then the tail
	// pointer persisted (the RocksDB WAL sync).
	off := s.walTail
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(key)))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(value)))
	s.pm.WriteAt(off, hdr[:])
	s.pm.WriteAt(off+8, []byte(key))
	s.pm.WriteAt(off+8+uint64(len(key)), value)
	s.pm.Persist(off, rec)
	s.walTail = off + rec
	s.pm.PutU64(hdrWALTail, s.walTail)
	s.pm.Persist(hdrWALTail, 8)

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
	f := &sstFile{vals: s.mem}
	for k := range s.mem {
		f.keys = append(f.keys, k)
	}
	sort.Strings(f.keys)
	s.l0 = append(s.l0, f)
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
func (s *Store) compact() {
	s.mu.Lock()
	if s.compacting {
		s.mu.Unlock()
		return
	}
	s.rotateLocked()
	if len(s.l0) == 0 {
		// Nothing to do; wake stalled writers so they re-evaluate.
		s.stallCond.Broadcast()
		s.mu.Unlock()
		return
	}
	s.compacting = true
	files := s.l0
	walCut := s.walTail
	s.mu.Unlock()

	// Merge newest-wins.
	merged := map[string][]byte{}
	for _, f := range files {
		for k, v := range f.vals {
			merged[k] = v
		}
	}
	// Write each key's block to SSD. Block ids are chosen under the lock,
	// the device writes happen outside it.
	type out struct {
		blk uint64
		val []byte
	}
	outs := make(map[string]out, len(merged))
	s.mu.Lock()
	for k, v := range merged {
		blk, ok := s.l1[k]
		if !ok {
			if n := len(s.freeBlks); n > 0 {
				blk = s.freeBlks[n-1]
				s.freeBlks = s.freeBlks[:n-1]
			} else {
				blk = s.nextBlk
				s.nextBlk++
			}
		}
		outs[k] = out{blk: blk, val: v}
	}
	s.mu.Unlock()
	var werr error
	for _, o := range outs {
		buf := make([]byte, blockSize)
		copy(buf, o.val)
		if err := s.dev.WriteAt(o.blk*blockSize, buf); err != nil {
			werr = err
			break
		}
	}
	if werr != nil {
		// Abort the compaction: L0 and the WAL prefix stay intact, so no
		// data is lost; every value remains readable from the memtable/L0
		// path and replayable from the WAL. Freshly allocated blocks return
		// to the free list and a later compaction retries.
		s.mu.Lock()
		for k, o := range outs {
			if blk, ok := s.l1[k]; !ok || blk != o.blk {
				s.freeBlks = append(s.freeBlks, o.blk)
			}
		}
		s.compacting = false
		s.stallCond.Broadcast()
		s.mu.Unlock()
		return
	}

	// Install, persist the manifest, truncate the compacted WAL prefix.
	s.mu.Lock()
	for k, o := range outs {
		s.l1[k] = o.blk
	}
	s.l0 = s.l0[len(files):]
	if len(s.l0) == 0 {
		s.l0Bytes = 0
	}
	s.persistManifestLocked()
	// Records up to walCut reached SSD; move the suffix (puts that arrived
	// during the merge, still memtable-resident) to the front.
	if suffix := s.walTail - walCut; suffix > 0 {
		buf := make([]byte, suffix)
		s.pm.ReadAt(walCut, buf)
		s.pm.WriteAt(walBase, buf)
		s.pm.Persist(walBase, suffix)
		s.walTail = walBase + suffix
	} else {
		s.walTail = walBase
	}
	s.pm.PutU64(hdrWALTail, s.walTail)
	s.pm.Persist(hdrWALTail, 8)
	s.compacting = false
	s.stallCond.Broadcast()
	if len(s.l0) > 0 {
		s.kickCompaction()
	}
	s.mu.Unlock()
}

// persistManifestLocked serializes the L1 index into the PMEM manifest
// region.
func (s *Store) persistManifestLocked() {
	base := walBase + s.cfg.WALBytes
	off := base
	for k, blk := range s.l1 {
		need := uint64(12 + len(k))
		if off+need > base+s.cfg.ManifestBytes {
			break // manifest full; recovery falls back to an SSD scan
		}
		var hdr [12]byte
		binary.LittleEndian.PutUint32(hdr[0:], uint32(len(k)))
		binary.LittleEndian.PutUint64(hdr[4:], blk)
		s.pm.WriteAt(off, hdr[:])
		s.pm.WriteAt(off+12, []byte(k))
		off += need
	}
	s.pm.Persist(base, off-base)
	s.pm.PutU64(hdrManifestLen, off-base)
	s.pm.Persist(hdrManifestLen, 8)
}

// Get implements kvapi.Store: memtable, then L0 (newest first), then L1 on
// SSD.
func (s *Store) Get(key string, buf []byte) ([]byte, error) {
	spinSoftware(s.cfg.SoftwareNs)
	s.mu.Lock()
	if v, ok := s.mem[key]; ok {
		out := append(buf, v...)
		s.mu.Unlock()
		return out, nil
	}
	for i := len(s.l0) - 1; i >= 0; i-- {
		if v, ok := s.l0[i].vals[key]; ok {
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
	buf = growBuf(buf, blockSize)
	if err := s.dev.ReadAt(blk*blockSize, buf[start:]); err != nil {
		return nil, fmt.Errorf("lsmstore: read block %d: %w", blk, err)
	}
	return buf, nil
}

// growBuf extends buf by n bytes reusing capacity (keeps the read path
// allocation-free for callers that recycle buffers).
func growBuf(buf []byte, n int) []byte {
	need := len(buf) + n
	if cap(buf) >= need {
		return buf[:need]
	}
	nb := make([]byte, need, need*2)
	copy(nb, buf)
	return nb
}

// Delete implements kvapi.Store (tombstone via empty write; blocks recycle
// on the next compaction of the key).
func (s *Store) Delete(key string) error {
	spinSoftware(s.cfg.SoftwareNs)
	s.mu.Lock()
	if v, ok := s.mem[key]; ok {
		s.memBytes -= uint64(len(v) + len(key))
		delete(s.mem, key)
	}
	for _, f := range s.l0 {
		delete(f.vals, key)
	}
	if blk, ok := s.l1[key]; ok {
		delete(s.l1, key)
		s.freeBlks = append(s.freeBlks, blk)
	}
	s.mu.Unlock()
	return nil
}

// Stalls returns the number of write stalls observed.
func (s *Store) Stalls() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stalls
}

// Close flushes everything (memtable and L0 to SSD) and stops the
// compactor — a clean shutdown.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.rotateLocked()
	s.mu.Unlock()
	for {
		s.compact()
		s.mu.Lock()
		empty := len(s.l0) == 0
		s.mu.Unlock()
		if empty {
			break
		}
	}
	s.mu.Lock()
	s.closed = true
	s.stallCond.Broadcast()
	s.mu.Unlock()
	s.stopBackground()
	return nil
}

// FootprintBytes implements kvapi.FootprintReporter. RocksDB reserves its
// block-cache DRAM up front (paper §5.6).
func (s *Store) FootprintBytes() (dram, pmemB, ssdB uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	dram = s.cfg.ReservedCacheBytes + s.memBytes + s.l0Bytes
	pmemB = 64 + s.cfg.WALBytes + s.cfg.ManifestBytes
	ssdB = (s.nextBlk - uint64(len(s.freeBlks))) * blockSize
	return
}

// Crash implements kvapi.Crasher: volatile state (memtable, L0, the DRAM
// copy of the index) is lost; devices resolve per their models.
func (s *Store) Crash(seed int64) error {
	s.mu.Lock()
	s.closed = true
	s.stallCond.Broadcast()
	s.mu.Unlock()
	s.stopBackground()
	if s.cfg.TrackPersistence {
		if err := s.pm.Crash(pmem.CrashDropDirty, seed); err != nil {
			return err
		}
	}
	s.dev.Crash(seed)
	return nil
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
	s.nextBlk = 0
	s.freeBlks = nil

	// Metadata: manifest scan.
	base := walBase + s.cfg.WALBytes
	mlen := s.pm.GetU64(hdrManifestLen)
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
		s.l1[string(kb)] = blk
		if blk >= s.nextBlk {
			s.nextBlk = blk + 1
		}
		off += 12 + kl
	}
	metadataNs = time.Since(t0).Nanoseconds()

	// Replay: WAL records into the memtable.
	t1 := time.Now()
	tail := s.pm.GetU64(hdrWALTail)
	off = walBase
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
		s.mem[string(kb)] = vb
		s.memBytes += kl + vl
		off += 8 + kl + vl
		// Replay re-executes the write path through the software stack.
		spinSoftware(s.cfg.SoftwareNs)
	}
	replayNs = time.Since(t1).Nanoseconds()

	s.closed = false
	s.bgWake = make(chan struct{}, 1)
	s.bgQuit = make(chan struct{})
	s.bgDone = make(chan struct{})
	s.mu.Unlock()
	s.start()
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
