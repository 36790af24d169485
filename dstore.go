// Package dstore implements DStore, a fast, tailless, and quiescent-free
// object store (Gugnani & Lu, HPDC 2021), on simulated PMEM and NVMe
// devices.
//
// DStore is an embedded storage sub-system with both key-value and
// filesystem style APIs over modifiable objects (paper Table 2). Its control
// plane — a B-tree index, a metadata zone, and circular block/slot pools —
// lives in DRAM and is made persistent by DIPPER (paper §3): logical
// operations are logged to PMEM, and background checkpoints replay the log
// onto shadow copies in PMEM without ever quiescing the frontend. The data
// plane lives on SSD — each put writes fresh blocks (freed only after
// commit), protected by the drive's power-loss-protected write cache
// (§4.2).
//
// Basic usage:
//
//	st, err := dstore.Format(dstore.Config{})   // fresh store
//	ctx := st.Init()                            // per-goroutine context
//	err = ctx.Put("key", value)
//	buf, err := ctx.Get("key", nil)
//	ctx.Finalize()
//	st.Close()                                  // clean shutdown
//
// Reopen (or crash-recover) an existing store with Open. For the paper's
// comparison experiments, Config selects the persistence Mode (DIPPER, CoW
// checkpoints, or physical logging) and the observational-equivalence (OE)
// concurrency ablation.
package dstore

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dstore/internal/alloc"
	"dstore/internal/cache"
	"dstore/internal/dipper"
	"dstore/internal/fault"
	"dstore/internal/meta"
	"dstore/internal/pmem"
	"dstore/internal/space"
	"dstore/internal/ssd"
	"dstore/internal/wal"
)

// Mode selects the persistence technique (paper Table 1 rows).
type Mode int

const (
	// ModeDIPPER is the paper's design: compact logical logging with
	// decoupled, parallel checkpoints.
	ModeDIPPER Mode = iota
	// ModeCoW keeps DIPPER's logging but adds NOVA/Pronto-style
	// copy-on-write page protection during checkpoints (§4.5): writers
	// fault and wait for page copies to PMEM.
	ModeCoW
	// ModePhysical models the naïve baseline of Fig. 9 (DudeTM/NV-HTM):
	// ARIES-style physical log records (payloads padded with page images)
	// plus CoW checkpoints.
	ModePhysical
)

func (m Mode) String() string {
	switch m {
	case ModeDIPPER:
		return "dipper"
	case ModeCoW:
		return "cow"
	case ModePhysical:
		return "physical"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Config configures a Store. The zero value is a usable small store.
type Config struct {
	// Mode selects the persistence technique (the paper's CoW and
	// physical-logging comparisons). Default ModeDIPPER.
	Mode Mode
	// DisableOE serializes each operation's entire metadata section under
	// one global lock instead of the fine-grained pool/tree locks enabled
	// by observational equivalence (§3.7, Fig. 9 "+OE" ablation).
	DisableOE bool
	// DisableCheckpoints turns off all checkpointing (Fig. 1's
	// "no checkpoint" series). The log must be sized for the full run.
	DisableCheckpoints bool

	// Blocks is the data-plane capacity in blocks. Default 16384.
	Blocks uint64
	// MaxObjects bounds live objects (metadata slots). Default 8192.
	MaxObjects uint64
	// MaxBlocksPerObject bounds object size. Default 16.
	MaxBlocksPerObject uint64

	// CacheBytes sizes the DRAM block cache on the read path. 0 (the
	// default) disables it. The cache holds verified SSD block spans, so a
	// hit skips both the device read and the CRC re-verification; writes
	// invalidate through it (see DESIGN.md §9 for the coherence contract).
	CacheBytes uint64

	// LogBytes sizes each of the two DIPPER logs. Default 4 MiB.
	LogBytes uint64
	// ArenaBytes sizes the DRAM arena and each PMEM shadow generation.
	// Computed from the geometry when zero; tests set it to exhaust the arena.
	ArenaBytes uint64
	// CheckpointThreshold triggers a checkpoint when the active log's free
	// fraction falls below it. Default 0.3. The crash oracle's rows set a
	// vanishing one, so each checkpoint runs inline when the log fills, on
	// the goroutine whose mutations they count.
	CheckpointThreshold float64

	// TrackPersistence enables the PMEM crash model (required by Crash).
	TrackPersistence bool
	// DeviceLatency enables calibrated device latency injection on the
	// devices this Store creates (ignored for injected devices). The
	// process-wide latency switch must also be on (latency.Enable).
	DeviceLatency bool
	// Breakdown enables per-stage write timing (paper Table 3); the
	// benchmark's per-layer trace reads it.
	Breakdown bool

	// PMEM optionally injects the PMEM device (e.g. to reopen after a
	// crash). Created per the config when nil.
	PMEM *pmem.Device
	// SSD optionally injects the data-plane device.
	SSD *ssd.Device

	// SSDFaults, when non-nil, installs a fault-injection plan on the
	// data-plane device (created or injected).
	SSDFaults *fault.Plan
}

const (
	// blockSize is the SSD allocation unit: one 4 KiB device page, the
	// granularity of the paper's data-plane writes.
	blockSize = 4096
	// maxNameLen bounds object names. The metadata zone records it on
	// media, so Open checks a device against it.
	maxNameLen = 64
	// physicalImageBytes pads each log record's payload in ModePhysical: a
	// before/after image of the touched metadata.
	physicalImageBytes = 512
)

func (c *Config) setDefaults() {
	if c.Blocks == 0 {
		c.Blocks = 16384
	}
	if c.MaxObjects == 0 {
		c.MaxObjects = 8192
	}
	if c.MaxBlocksPerObject == 0 {
		c.MaxBlocksPerObject = defaultMaxBlocksPerObject
	}
	if c.LogBytes == 0 {
		c.LogBytes = 4 << 20
	}
	// Device windows must stay cache-line aligned.
	c.LogBytes = (c.LogBytes + 4095) &^ 4095
	if c.CheckpointThreshold == 0 {
		c.CheckpointThreshold = 0.3
	}
	if c.ArenaBytes == 0 {
		slot := (16 + maxNameLen + 8*c.MaxBlocksPerObject + 4*c.MaxBlocksPerObject + 7) &^ 7
		need := alloc.HeaderSize +
			c.MaxObjects*slot + // metadata zone
			8*(c.Blocks+c.MaxObjects) + // pools
			c.MaxObjects*384 + // btree nodes + keys, with slack
			(4 << 20) // headroom
		// Round up to a power of two for tidy windows.
		c.ArenaBytes = 1 << 20
		for c.ArenaBytes < need {
			c.ArenaBytes <<= 1
		}
	}
	c.ArenaBytes = (c.ArenaBytes + 4095) &^ 4095
}

func (c Config) dipperConfig() dipper.Config {
	return dipper.Config{
		LogBytes:            c.LogBytes,
		ArenaBytes:          c.ArenaBytes,
		CheckpointThreshold: c.CheckpointThreshold,
		AutoCheckpoint:      !c.DisableCheckpoints,
	}
}

// cowEnabled reports whether this mode uses CoW page protection.
func (c Config) cowEnabled() bool { return c.Mode == ModeCoW || c.Mode == ModePhysical }

// pmemBytes returns the PMEM capacity the config requires (engine layout
// plus, in CoW modes, a scratch window for page copies).
func (c Config) pmemBytes() uint64 {
	n := c.dipperConfig().DeviceBytes()
	if c.cowEnabled() {
		n += c.ArenaBytes
	}
	return n
}

// Store is a DStore instance. All methods are safe for concurrent use.
type Store struct {
	cfg Config

	eng  *dipper.Engine
	pm   *pmem.Device
	data *ssd.Device

	front *plane

	// bcache is the DRAM block cache on the read path; nil when disabled
	// (a nil *cache.Cache is a valid always-miss cache). Volatile by
	// design: it is rebuilt empty on every Format/Open, never persisted.
	bcache *cache.Cache

	// self is this store seen as a ring of one (shard.go). Everything above
	// the engine that routes by key — transactions, batched operations — is
	// written once against *Sharded, and a bare store enters it through this
	// view.
	self *Sharded

	// Fig. 4 locks. With OE enabled, poolMu covers only log append + pool
	// mutation (steps ①–⑤) and treeMu only the B-tree touch (step ⑦); the
	// metadata zone needs no lock (slots are object-private and objects are
	// serialized by CC). With OE disabled, globalMu serializes the whole
	// metadata section of every operation.
	poolMu   sync.Mutex
	treeMu   sync.RWMutex
	globalMu sync.Mutex

	// zoneMu stripes metadata-zone access by slot: slot contents are only
	// ever written by the (CC-serialized) owner of a name, but a not-yet-
	// serialized requester may probe a slot concurrently; the stripe makes
	// those probes race-free (they retry through CC if the value matters).
	zoneMu [64]sync.Mutex

	readers readTable
	cow     *cowSpace // nil unless cowEnabled

	closed atomic.Bool

	// Degraded mode (read-only): set when the persistence layer fails in a
	// way the store cannot transparently recover from (log append or commit
	// persist failure after retries, checkpoint swap failure). Writes return
	// ErrDegraded; reads keep being served from the intact volatile state
	// and SSD. Cleared only by reopening the store on healthy devices.
	degraded    atomic.Bool
	degradedErr atomic.Value // error

	// standby gates mutating entry points while the store mirrors a
	// primary's WAL (see repl.go); applyMu serializes ApplyReplicated with
	// Promote.
	standby atomic.Bool
	applyMu sync.Mutex

	// quarantine holds SSD block ids withheld from allocation after a
	// permanent device error. Volatile by design: a reopen (presumably on a
	// repaired or replaced device) starts with an empty set, and a block
	// that is still bad is re-quarantined on first touch.
	quarMu     sync.Mutex
	quarantine map[uint64]bool // guarded by quarMu

	health healthStats

	// vers is the OCC commit-version table (txn.go): every committed mutation
	// bumps its key's counter before the record commits, and transaction
	// validation compares the counters captured at read time.
	vers verTable

	ops  opStats
	txns txnStats
	bd   breakdown
}

// healthStats counts fault-handling events.
type healthStats struct {
	ioRetries   atomic.Uint64 // SSD ops that succeeded only after transient retries
	writeErrs   atomic.Uint64 // data-plane writes that failed after all retries
	corruptions atomic.Uint64 // checksum mismatches surfaced as ErrCorrupt
	remaps      atomic.Uint64 // blocks migrated off quarantined media by scrub
}

// opStats counts API operations.
type opStats struct {
	puts, gets, deletes, reads, writes, opens atomic.Uint64
}

// breakdown accumulates per-stage write-path nanoseconds (paper Table 3);
// Store.write is its only writer.
type breakdown struct {
	count, logNs, poolNs, metaNs, treeNs, ssdNs, totalNs atomic.Uint64
}

// Breakdown is a snapshot of the write-path time breakdown.
type Breakdown struct {
	Count                                         uint64
	LogNs, PoolNs, MetaNs, TreeNs, SSDNs, TotalNs uint64
}

// ErrNotFound is returned for operations on absent objects.
var ErrNotFound = errors.New("dstore: object not found")

// ErrClosed is returned after Close.
var ErrClosed = errors.New("dstore: store closed")

// ErrCorrupt is returned when a block's content fails its CRC32C
// verification after re-reads — silent at-rest corruption. The object's
// other blocks remain readable.
var ErrCorrupt = errors.New("dstore: data corruption detected")

// ErrDegraded is returned for mutating operations while the store is in
// read-only degraded mode (see Health). Reads are still served.
var ErrDegraded = errors.New("dstore: store degraded (read-only)")

// ErrTxnConflict is returned by Txn.Commit when optimistic validation fails:
// another committed mutation overlapped the transaction's read or write set.
// The transaction is rolled back; callers retry the whole transaction.
var ErrTxnConflict = errors.New("dstore: transaction conflict")

// ErrNotMine is the remote-routing sentinel behind wire.StatusNotMine: the
// request carried a ring epoch that does not match the server's, so the
// client's cached shard map is stale. Nothing was applied; the repair is a
// ring re-fetch (which the pooled client does transparently), not a resend.
var ErrNotMine = errors.New("dstore: stale ring epoch")

// ErrTxnTooLarge is returned by Txn.Commit when the buffered write set does
// not fit one WAL commit record (or, cross-shard, one prepare object).
var ErrTxnTooLarge = errors.New("dstore: transaction write set too large")

// Format creates a fresh store per cfg, formatting its devices.
func Format(cfg Config) (*Store, error) {
	cfg.setDefaults()
	s, err := newStore(&cfg)
	if err != nil {
		return nil, err
	}
	dc := cfg.dipperConfig()
	dc.NewFrontendSpace = s.frontendSpace
	dc.OnSwap = s.onSwap
	dc.OnCheckpointDone = s.onCheckpointDone
	s.eng, err = dipper.Format(s.pm, dc, replayer{blocks: cfg.Blocks}, func(al *alloc.Allocator) error {
		return bootstrapPlane(al, cfg.Blocks, cfg.MaxObjects, maxNameLen, cfg.MaxBlocksPerObject)
	})
	if err != nil {
		return nil, err
	}
	s.front, err = openPlane(s.eng.Frontend())
	if err != nil {
		s.eng.Close()
		return nil, err
	}
	if err := s.writeSuperblock(); err != nil {
		s.eng.Close()
		return nil, err
	}
	return s, nil
}

// Open recovers an existing store from its devices (cfg.PMEM and cfg.SSD
// must be set, or point at the same backing state as the original). It
// implements recovery for both shutdown kinds of §5.5.
func Open(cfg Config) (*Store, error) {
	cfg.setDefaults()
	if cfg.PMEM == nil {
		return nil, fmt.Errorf("dstore: Open requires cfg.PMEM")
	}
	if cfg.SSD == nil {
		return nil, fmt.Errorf("dstore: Open requires cfg.SSD")
	}
	s, err := newStore(&cfg)
	if err != nil {
		return nil, err
	}
	dc := cfg.dipperConfig()
	dc.NewFrontendSpace = s.frontendSpace
	dc.OnSwap = s.onSwap
	dc.OnCheckpointDone = s.onCheckpointDone
	s.eng, err = dipper.Open(s.pm, dc, replayer{blocks: cfg.Blocks})
	if err != nil {
		return nil, err
	}
	s.front, err = openPlane(s.eng.Frontend())
	if err != nil {
		s.eng.Close()
		return nil, err
	}
	// Recovery replay may have rewritten any block's content or ownership;
	// the cache starts this incarnation empty (it was just constructed, but
	// the reset makes the invariant explicit rather than incidental).
	s.bcache.Reset()
	return s, nil
}

func newStore(cfg *Config) (*Store, error) {
	s := &Store{cfg: *cfg, bcache: cache.New(cfg.CacheBytes)}
	s.self = ringOfOne(s)
	s.pm = cfg.PMEM
	if s.pm == nil {
		var lat pmem.Latencies
		if cfg.DeviceLatency {
			lat = pmem.DefaultLatencies()
		}
		s.pm = pmem.New(pmem.Config{
			Size:             int(cfg.pmemBytes()),
			TrackPersistence: cfg.TrackPersistence,
			Latency:          lat,
		})
	} else if uint64(s.pm.Size()) < cfg.pmemBytes() {
		return nil, fmt.Errorf("dstore: PMEM device %d B < required %d B", s.pm.Size(), cfg.pmemBytes())
	}
	s.data = cfg.SSD
	if s.data == nil {
		var lat ssd.Latencies
		if cfg.DeviceLatency {
			lat = ssd.DefaultLatencies()
		}
		pages := int((cfg.Blocks + 1) * blockSize / uint64(ssd.DefaultPageSize))
		s.data = ssd.New(ssd.Config{
			Pages:          pages,
			PowerProtected: true,
			Latency:        lat,
		})
	}
	if cfg.SSDFaults != nil {
		s.data.SetFaultPlan(cfg.SSDFaults)
	}
	return s, nil
}

// frontendSpace builds the DRAM arena, wrapped for CoW modes.
func (s *Store) frontendSpace(size uint64) space.Space {
	inner := space.NewDRAM(size)
	if !s.cfg.cowEnabled() {
		return inner
	}
	scratchOff := s.cfg.dipperConfig().DeviceBytes()
	// The scratch window geometry is configuration (device sized from the
	// same config), so a bad range here is a programmer error.
	scratch := space.MustPMEM(s.pm, scratchOff, s.cfg.ArenaBytes)
	s.cow = newCowSpace(inner, scratch, blockSize)
	return s.cow
}

// onSwap arms CoW page protection at checkpoint start.
func (s *Store) onSwap() {
	if s.cow != nil {
		s.cow.freeze(s.eng.Frontend().Used())
	}
}

// onCheckpointDone sweeps the remaining protected pages.
func (s *Store) onCheckpointDone() {
	if s.cow != nil {
		s.cow.sweep()
	}
}

// writeSuperblock reserves SSD block 0 and stamps recovery info (paper
// §4.2: "The first block is reserved for the superblock").
func (s *Store) writeSuperblock() error {
	sb := make([]byte, 64)
	copy(sb, "DSTOREv1")
	putU64 := func(off int, v uint64) {
		for i := 0; i < 8; i++ {
			sb[off+i] = byte(v >> (8 * i))
		}
	}
	putU64(8, blockSize)
	putU64(16, s.cfg.Blocks)
	putU64(24, 0) // PMEM root object lives at device offset 0
	if err := s.ssdWrite(0, sb); err != nil {
		return fmt.Errorf("dstore: superblock write: %w", err)
	}
	if err := s.data.Sync(); err != nil {
		return fmt.Errorf("dstore: superblock sync: %w", err)
	}
	return nil
}

// dataOff maps a pool block id to its SSD byte offset (block 0 is the
// superblock).
func (s *Store) dataOff(block uint64) uint64 {
	return (block + 1) * blockSize
}

// CheckpointNow runs one checkpoint synchronously.
func (s *Store) CheckpointNow() error {
	if s.closed.Load() {
		return ErrClosed
	}
	return s.eng.Checkpoint()
}

// Close performs a clean shutdown: a final checkpoint (so the persistent
// state is current) and engine teardown.
func (s *Store) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	s.self.mops.stop()
	var err error
	if !s.cfg.DisableCheckpoints {
		err = s.eng.Checkpoint()
	}
	s.eng.Close()
	return err
}

// CloseNoCheckpoint stops the store without the final checkpoint: all
// committed state remains recoverable (it is in the logs), but reopening
// will replay the active log — the paper's clean-shutdown semantics, where
// recovery still "reconstructs the volatile space" and replays records.
func (s *Store) CloseNoCheckpoint() error {
	if s.closed.Swap(true) {
		return nil
	}
	s.self.mops.stop()
	s.eng.Close()
	return nil
}

// Crash simulates a power failure (SIGKILL + power loss): all volatile state
// is dropped and the devices resolve per their crash models. The store is
// unusable afterwards; Reopen with the returned devices. Requires
// Config.TrackPersistence (an error is returned when it is off).
func (s *Store) Crash(seed int64) (pm *pmem.Device, data *ssd.Device, err error) {
	s.closed.Store(true)
	s.self.mops.stop()
	s.eng.Close()
	if cerr := s.pm.Crash(pmem.CrashRandom, seed); cerr != nil {
		return s.pm, s.data, cerr
	}
	s.data.Crash(seed)
	return s.pm, s.data, nil
}

// PrepareWorstCaseCrash durably enters the checkpoint-in-progress state
// without completing the checkpoint, so a following Crash models the paper's
// "unexpected crash just before the checkpoint process is complete" (§5.5).
// Recovery will redo the interrupted checkpoint.
func (s *Store) PrepareWorstCaseCrash() { s.eng.SwapOnlyForCrash() }

// Devices returns the store's devices (for stats sampling and reopening).
func (s *Store) Devices() (*pmem.Device, *ssd.Device) { return s.pm, s.data }

// Engine exposes the DIPPER engine (for stats and inspection).
func (s *Store) Engine() *dipper.Engine { return s.eng }

// Stats reports operation counts and engine statistics.
type Stats struct {
	Puts, Gets, Deletes, Reads, Writes, Opens uint64
	// TxnCommits/TxnAborts/TxnConflicts count transaction outcomes:
	// successful commits, explicit aborts, and commits rejected by OCC
	// validation (ErrTxnConflict).
	TxnCommits, TxnAborts, TxnConflicts uint64
	Engine                              dipper.Stats
	CowPagesCopied, CowFaultCopies      uint64
}

// Stats returns a snapshot of store counters.
func (s *Store) Stats() Stats {
	st := Stats{
		Puts:    s.ops.puts.Load(),
		Gets:    s.ops.gets.Load(),
		Deletes: s.ops.deletes.Load(),
		Reads:   s.ops.reads.Load(),
		Writes:  s.ops.writes.Load(),
		Opens:   s.ops.opens.Load(),

		TxnCommits:   s.txns.commits.Load(),
		TxnAborts:    s.txns.aborts.Load(),
		TxnConflicts: s.txns.conflicts.Load(),

		Engine: s.eng.Stats(),
	}
	if s.cow != nil {
		st.CowPagesCopied = s.cow.pagesCopied.Load()
		st.CowFaultCopies = s.cow.faultCopies.Load()
	}
	return st
}

// CacheStats is a snapshot of the DRAM block cache counters. All-zero when
// the cache is disabled (Capacity == 0 distinguishes "off" from "cold").
type CacheStats struct {
	// Hits and Misses count read-path probe outcomes; Evictions counts
	// CLOCK reclaims; Invalidations counts entries dropped by write-through
	// coherence.
	Hits, Misses, Evictions, Invalidations uint64
	// Bytes is the currently cached payload total; Capacity the configured
	// budget.
	Bytes, Capacity uint64
}

// CacheStats returns a snapshot of the block-cache counters.
func (s *Store) CacheStats() CacheStats {
	st := s.bcache.Stats()
	return CacheStats{
		Hits:          st.Hits,
		Misses:        st.Misses,
		Evictions:     st.Evictions,
		Invalidations: st.Invalidations,
		Bytes:         st.Bytes,
		Capacity:      st.Capacity,
	}
}

// resizeCache rebudgets the DRAM block cache. No-op on a store created with
// CacheBytes == 0 (nil cache). The sharded store calls it after a reshard so
// the caller's aggregate cache budget re-divides across the live members.
func (s *Store) resizeCache(bytes uint64) {
	s.bcache.Resize(bytes)
}

// Breakdown returns the accumulated write-path timing (Table 3); zero unless
// Config.Breakdown. It counts every mutation the write pipeline (write.go)
// committed — Put, Delete, Open(OpenCreate), the extend and checksum-
// invalidation records behind WriteAt, Scrub remaps, reserved-object writes
// and transaction commits (one count per commit record, whatever its write
// set) — so on a put-only workload it is the paper's put breakdown. Writes
// that failed or aborted, Lock/Unlock and the unlogged in-place data write
// of WriteAt are not in it. An operation with no data phase adds nothing to
// SSDNs, and one that only edits a slot in place (opInval, opRemap, a
// delete) books its whole apply under MetaNs.
func (s *Store) Breakdown() Breakdown {
	return Breakdown{
		Count:   s.bd.count.Load(),
		LogNs:   s.bd.logNs.Load(),
		PoolNs:  s.bd.poolNs.Load(),
		MetaNs:  s.bd.metaNs.Load(),
		TreeNs:  s.bd.treeNs.Load(),
		SSDNs:   s.bd.ssdNs.Load(),
		TotalNs: s.bd.totalNs.Load(),
	}
}

// Footprint reports space consumed per tier (paper Fig. 10).
type Footprint struct {
	DRAMBytes uint64 // system-space arena used prefix
	PMEMBytes uint64 // root + both logs + both shadow generations (+ CoW scratch)
	SSDBytes  uint64 // superblock + allocated data blocks
}

// Footprint measures current storage consumption.
func (s *Store) Footprint() Footprint {
	used := s.eng.Frontend().Used()
	pmemBytes := uint64(dipper.RootBytes) + 2*s.cfg.LogBytes + 2*used
	if s.cfg.cowEnabled() {
		pmemBytes += used
	}
	s.poolMu.Lock()
	freeBlocks := s.front.blockPool.Free()
	s.poolMu.Unlock()
	usedBlocks := s.cfg.Blocks - freeBlocks
	return Footprint{
		DRAMBytes: used,
		PMEMBytes: pmemBytes,
		SSDBytes:  (1 + usedBlocks) * blockSize,
	}
}

// ------------------------------------------------------------- robustness

// ioAttempts bounds per-operation retries of transiently failing device IO.
const ioAttempts = 4

// degrade flips the store into read-only degraded mode. First error wins.
func (s *Store) degrade(err error) {
	if s.degraded.CompareAndSwap(false, true) {
		s.degradedErr.Store(err)
	}
}

// Degraded reports whether the store is in read-only degraded mode.
func (s *Store) Degraded() bool { return s.degraded.Load() }

// checkWritable gates every mutating entry point in degraded or standby
// mode.
func (s *Store) checkWritable() error {
	if s.degraded.Load() {
		if e, ok := s.degradedErr.Load().(error); ok && e != nil {
			return fmt.Errorf("%w: %v", ErrDegraded, e)
		}
		return ErrDegraded
	}
	if s.standby.Load() {
		return ErrStandby
	}
	return nil
}

// quarantineBlock withholds an SSD block from allocation after a permanent
// device error. Deferred frees and pool rollbacks consult the set, so a
// quarantined id never re-enters circulation during this incarnation.
func (s *Store) quarantineBlock(b uint64) {
	s.quarMu.Lock()
	if s.quarantine == nil {
		s.quarantine = make(map[uint64]bool)
	}
	if !s.quarantine[b] {
		s.quarantine[b] = true
	}
	s.quarMu.Unlock()
}

// isQuarantined reports whether block b is withheld from allocation.
func (s *Store) isQuarantined(b uint64) bool {
	s.quarMu.Lock()
	q := s.quarantine[b]
	s.quarMu.Unlock()
	return q
}

// quarantinedBlocks snapshots the quarantine set, sorted ascending.
func (s *Store) quarantinedBlocks() []uint64 {
	s.quarMu.Lock()
	ids := make([]uint64, 0, len(s.quarantine))
	for b := range s.quarantine {
		ids = append(ids, b)
	}
	s.quarMu.Unlock()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// freeBlocksLocked returns block ids to the pool, withholding quarantined
// ones. Caller holds poolMu. Freed blocks leave the cache here: their next
// owner's content must never be answered from their previous life (the
// checksum tag already guarantees that, but eager invalidation also frees
// the DRAM).
func (s *Store) freeBlocksLocked(ids []uint64) {
	for _, b := range ids {
		s.bcache.Invalidate(b)
		if s.isQuarantined(b) {
			continue
		}
		s.front.blockPool.Put(b) //nolint:errcheck
	}
}

// cacheInvalidate drops the given blocks from the read cache (no-op when the
// cache is disabled).
func (s *Store) cacheInvalidate(ids []uint64) {
	for _, b := range ids {
		s.bcache.Invalidate(b)
	}
}

// ssdWrite writes to the data plane with bounded retry and backoff on
// transient errors. Permanent errors (bad pages) surface immediately.
func (s *Store) ssdWrite(off uint64, p []byte) error {
	var err error
	for i := 0; i < ioAttempts; i++ {
		if err = s.data.WriteAt(off, p); err == nil {
			if i > 0 {
				s.health.ioRetries.Add(1)
			}
			return nil
		}
		if !fault.IsTransient(err) {
			break
		}
		time.Sleep(time.Duration(i+1) * 10 * time.Microsecond)
	}
	s.health.writeErrs.Add(1)
	return err
}

// ssdRead reads from the data plane with bounded retry on transient errors.
func (s *Store) ssdRead(off uint64, p []byte) error {
	var err error
	for i := 0; i < ioAttempts; i++ {
		if err = s.data.ReadAt(off, p); err == nil {
			if i > 0 {
				s.health.ioRetries.Add(1)
			}
			return nil
		}
		if !fault.IsTransient(err) {
			break
		}
		time.Sleep(time.Duration(i+1) * 10 * time.Microsecond)
	}
	return err
}

// checkpointForSpace runs a synchronous checkpoint to reclaim log space on
// behalf of a blocked writer. A failure here (typically an injected device
// error during log-pair swap) means the store can no longer make persistence
// progress, so it degrades.
func (s *Store) checkpointForSpace() error {
	if err := s.eng.Checkpoint(); err != nil {
		s.degrade(err)
		return fmt.Errorf("%w: checkpoint: %v", ErrDegraded, err)
	}
	return nil
}

// commit settles a record as committed. A persist failure means the
// operation's durability cannot be guaranteed even though the volatile
// structures already reflect it, so the store degrades to read-only and the
// caller's operation fails with ErrDegraded (content indeterminate until
// the store is reopened on healthy devices).
func (s *Store) commit(h *wal.Handle) error {
	if err := s.eng.Commit(h); err != nil {
		s.degrade(err)
		return fmt.Errorf("%w: %v", ErrDegraded, err)
	}
	return nil
}

// abort settles a record as dead. A persist failure is correctness-neutral
// (the durable state byte stays "uncommitted", which recovery also treats
// as dead) but signals failing persistence, so the store degrades.
func (s *Store) abort(h *wal.Handle) {
	if err := s.eng.Abort(h); err != nil {
		s.degrade(err)
	}
}

// Health is a snapshot of the store's fault and integrity status.
type Health struct {
	// Degraded reports read-only degraded mode; Reason carries the first
	// persistence failure that caused it.
	Degraded bool
	Reason   string
	// DegradedShard is the index of the first degraded shard when this
	// snapshot aggregates a sharded store; -1 for a healthy aggregate or a
	// single store (operators read which shard failed over from here
	// without iterating per-shard rows).
	DegradedShard int
	// QuarantinedBlocks lists SSD blocks withheld after permanent errors.
	QuarantinedBlocks []uint64
	// IORetries counts SSD operations that succeeded only after transient
	// retries; WriteErrors counts data-plane writes that failed after all
	// retries; Corruptions counts checksum mismatches surfaced as
	// ErrCorrupt; Remaps counts blocks migrated off quarantined media.
	IORetries   uint64
	WriteErrors uint64
	Corruptions uint64
	Remaps      uint64
}

// Health reports the store's fault and integrity status.
func (s *Store) Health() Health {
	h := Health{
		Degraded:          s.degraded.Load(),
		DegradedShard:     -1,
		QuarantinedBlocks: s.quarantinedBlocks(),
		IORetries:         s.health.ioRetries.Load(),
		WriteErrors:       s.health.writeErrs.Load(),
		Corruptions:       s.health.corruptions.Load(),
		Remaps:            s.health.remaps.Load(),
	}
	if h.Degraded {
		if e, ok := s.degradedErr.Load().(error); ok && e != nil {
			h.Reason = e.Error()
		}
	}
	return h
}

// zoneLock returns slot's stripe lock.
func (s *Store) zoneLock(slot uint64) *sync.Mutex { return &s.zoneMu[slot%64] }

// entryBuf is room for a zone entry's block and checksum lists, sized to the
// default MaxBlocksPerObject: a read path declares one on its stack and its
// entry read allocates nothing. A store configured for larger objects falls
// back to allocating the lists that do not fit.
type entryBuf struct {
	blocks [defaultMaxBlocksPerObject]uint64
	sums   [defaultMaxBlocksPerObject]uint32
}

const defaultMaxBlocksPerObject = 16

// zoneRead reads a metadata slot under its stripe lock. The returned entry's
// Blocks and Sums are a copy; Name aliases the arena and must be consumed
// before the slot can be rewritten.
func (s *Store) zoneRead(slot uint64) (meta.Entry, bool, error) {
	return s.zoneReadInto(slot, nil)
}

// zoneReadInto is zoneRead with the copy made in buf, when it is given and
// the lists fit.
func (s *Store) zoneReadInto(slot uint64, buf *entryBuf) (meta.Entry, bool, error) {
	var blocks []uint64
	var sums []uint32
	if buf != nil {
		blocks, sums = buf.blocks[:], buf.sums[:]
	}
	lk := s.zoneLock(slot)
	lk.Lock()
	e, ok, err := s.front.zone.ReadInto(slot, blocks, sums)
	lk.Unlock()
	return e, ok, err
}

// nowNs wraps time.Now for the breakdown timers.
func nowNs() int64 { return time.Now().UnixNano() }
