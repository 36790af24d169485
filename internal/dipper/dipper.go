// Package dipper implements Decoupled, In-memory, and Parallel PERsistence —
// the paper's primary contribution (§3).
//
// An Engine makes a set of DRAM data structures persistent by logging only
// the logical operations performed on them. The structures live in a DRAM
// arena (the system space); PMEM holds the checkpoint space: a pair of
// operation logs and two generations of a shadow arena — a byte-identical,
// lagging copy of the system space. The three steps of Fig. 2:
//
//	① every mutating operation appends a logical record to the active log;
//	② when the log fills, the logs swap (archive);
//	③ a background checkpoint replays the archived records onto a fresh
//	  clone of the shadow arena using the *same operation code* the
//	  frontend runs, flushes everything, and atomically flips the root
//	  object to the new generation.
//
// The frontend never waits for ③ — the checkpoint is quiescent-free. Crash
// consistency follows from the log (records are not discarded until their
// checkpoint completes) plus the atomic root flip; recovery (§3.6) redoes an
// interrupted checkpoint from the archived log, rebuilds the DRAM arena by
// copying the shadow arena, and replays the active log's committed records.
//
// The Engine treats the hosted structures as a black box: the owner supplies
// a Replayer that knows how to apply one logged operation to an arena. The
// owner's frontend code and the Replayer must be deterministic with respect
// to log order for conflicting operations (observational equivalence, §3.7).
package dipper

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dstore/internal/alloc"
	"dstore/internal/pmem"
	"dstore/internal/space"
	"dstore/internal/wal"
)

// Replayer applies logged operations to the structures rooted in an arena.
// Replay runs on a private clone, so implementations need no locking against
// the frontend; they may parallelize internally as long as conflicting
// records (same object) apply in LSN order and pool-mutating steps apply in
// global LSN order (determinism, §3.2).
type Replayer interface {
	Replay(al *alloc.Allocator, records func(fn func(wal.RecordView) error) error) error
}

// ReplayerFunc adapts a function to the Replayer interface.
type ReplayerFunc func(al *alloc.Allocator, records func(fn func(wal.RecordView) error) error) error

// Replay implements Replayer.
func (f ReplayerFunc) Replay(al *alloc.Allocator, records func(fn func(wal.RecordView) error) error) error {
	return f(al, records)
}

// Config sizes the PMEM layout and tunes checkpointing.
type Config struct {
	// LogBytes is the size of each of the two logs.
	LogBytes uint64
	// ArenaBytes is the size of the DRAM arena and of each PMEM shadow
	// generation.
	ArenaBytes uint64
	// CheckpointThreshold triggers an automatic checkpoint when the active
	// log's free fraction falls below it (paper §3.5). Default 0.3.
	CheckpointThreshold float64
	// AutoCheckpoint starts the background checkpoint goroutine. Tests that
	// drive checkpoints manually may disable it.
	AutoCheckpoint bool
	// NewFrontendSpace, if set, provides the DRAM system-space region; both
	// Format and Open's recovery rebuild use it. Defaults to a plain DRAM
	// space. DStore's CoW mode injects a copy-on-write wrapper here.
	NewFrontendSpace func(size uint64) space.Space
	// OnSwap, if set, runs inside the checkpoint's swap critical section
	// after the root update (e.g. to arm CoW page protection).
	OnSwap func()
	// OnCheckpointDone, if set, runs at the end of every successful
	// foreground checkpoint, before Checkpoint returns.
	OnCheckpointDone func()
	// GroupCommit enables WAL group commit: committers that arrive while a
	// leader round is fencing settle behind the next round's shared fences.
	GroupCommit bool
}

func (c *Config) frontendSpace() space.Space {
	if c.NewFrontendSpace != nil {
		return c.NewFrontendSpace(c.ArenaBytes)
	}
	return space.NewDRAM(c.ArenaBytes)
}

func (c *Config) setDefaults() {
	if c.LogBytes == 0 {
		c.LogBytes = 4 << 20
	}
	if c.ArenaBytes == 0 {
		c.ArenaBytes = 64 << 20
	}
	if c.CheckpointThreshold == 0 {
		c.CheckpointThreshold = 0.3
	}
}

// DeviceBytes returns the PMEM capacity the configuration requires.
func (c Config) DeviceBytes() uint64 {
	cc := c
	cc.setDefaults()
	return RootBytes + 2*cc.LogBytes + 2*cc.ArenaBytes
}

// Stats reports engine activity.
type Stats struct {
	Checkpoints       uint64
	CheckpointNanos   uint64
	RecordsReplayed   uint64
	ShadowBytesCloned uint64
	// RecordsRecovered counts active-log records replayed by the last Open
	// to rebuild the volatile space (the replay half of RecoveryBreakdown).
	RecordsRecovered uint64
	// Group-commit counters (zero when group commit is disabled): settle
	// batches led, records settled through batches, and committers that
	// parked behind another leader's fence.
	GCBatches uint64
	GCRecords uint64
	GCParked  uint64
}

// Engine is a DIPPER instance bound to one PMEM device.
type Engine struct {
	dev      *pmem.Device
	cfg      Config
	replayer Replayer

	pair    *wal.Pair
	frontAl *alloc.Allocator // the DRAM system space

	mu        sync.Mutex // guards root state transitions and shadowGen
	rootSeq   uint64     // guarded by mu
	shadowGen int        // guarded by mu

	ckptMu   sync.Mutex // serializes checkpoints
	trigger  chan struct{}
	closed   chan struct{}
	wg       sync.WaitGroup
	closing  atomic.Bool
	ckptBusy atomic.Bool

	checkpoints      atomic.Uint64
	checkpointNanos  atomic.Uint64
	recordsReplayed  atomic.Uint64
	shadowCloned     atomic.Uint64
	recordsRecovered atomic.Uint64

	recoverMetadataNs int64
	recoverReplayNs   int64
}

// Layout offsets within the device.
func (c Config) logOff(i int) uint64 { return RootBytes + uint64(i)*c.LogBytes }
func (c Config) shadowOff(i int) uint64 {
	return RootBytes + 2*c.LogBytes + uint64(i)*c.ArenaBytes
}

// ErrClosed is returned by operations on a finalized engine.
var ErrClosed = errors.New("dipper: engine closed")

// ErrCorrupt is the typed error wrapped by Open when the durable root state
// does not describe a usable layout (generation or log indices beyond 0/1, a
// replay bound outside the log, a device smaller than the layout requires).
var ErrCorrupt = errors.New("dipper: root state corrupt")

// Format initializes a fresh DIPPER instance on dev. bootstrap builds the
// initial system-space structures inside the (already formatted) DRAM arena;
// the engine then clones them to shadow generation 0 and seals the root.
func Format(dev *pmem.Device, cfg Config, replayer Replayer, bootstrap func(al *alloc.Allocator) error) (*Engine, error) {
	cfg.setDefaults()
	if uint64(dev.Size()) < cfg.DeviceBytes() {
		return nil, fmt.Errorf("dipper: device %d B < required %d B", dev.Size(), cfg.DeviceBytes())
	}
	frontAl := alloc.Format(cfg.frontendSpace())
	if err := bootstrap(frontAl); err != nil {
		return nil, fmt.Errorf("dipper: bootstrap: %w", err)
	}
	e := &Engine{
		dev:      dev,
		cfg:      cfg,
		replayer: replayer,
		frontAl:  frontAl,
		trigger:  make(chan struct{}, 1),
		closed:   make(chan struct{}),
	}
	shadow0, err := e.shadowSpace(0)
	if err != nil {
		return nil, err
	}
	sh, err := frontAl.CloneTo(shadow0)
	if err != nil {
		return nil, err
	}
	sh.FlushAll()

	log0, err := e.logSpace(0)
	if err != nil {
		return nil, err
	}
	log1, err := e.logSpace(1)
	if err != nil {
		return nil, err
	}
	e.pair = wal.NewPair(log0, log1, 1)
	e.pair.SetGroupCommit(wal.GroupCommitConfig{Enabled: cfg.GroupCommit}) // before any append
	e.mu.Lock()
	e.rootSeq = 1
	e.mu.Unlock()
	formatRootArea(dev, RootState{Seq: 1, ActiveLog: 0, ShadowGen: 0})
	e.start()
	return e, nil
}

// Open recovers a DIPPER instance from dev after a shutdown or crash,
// implementing the idempotent recovery protocol of §3.6. The root state is
// media-derived, so its generation/log indices and replay bound are
// validated (ErrCorrupt) before any window is derived from them.
//
// time.Now here feeds RecoveryBreakdown metrics only; recovery decisions
// never read the clock.
//
//dstore:wallclock
func Open(dev *pmem.Device, cfg Config, replayer Replayer) (*Engine, error) {
	cfg.setDefaults()
	if err := checkMagic(dev); err != nil {
		return nil, err
	}
	if uint64(dev.Size()) < cfg.DeviceBytes() {
		return nil, fmt.Errorf("dipper: device %d B < required %d B", dev.Size(), cfg.DeviceBytes())
	}
	st, err := readRoot(dev)
	if err != nil {
		return nil, err
	}
	if st.ActiveLog > 1 || st.ShadowGen > 1 || st.ArchivedLog > 1 {
		return nil, fmt.Errorf("%w: indices out of range (active %d, shadow %d, archived %d)",
			ErrCorrupt, st.ActiveLog, st.ShadowGen, st.ArchivedLog)
	}
	if st.CkptInProgress != 0 && st.ReplayEnd > cfg.LogBytes {
		return nil, fmt.Errorf("%w: replay end %d beyond log size %d", ErrCorrupt, st.ReplayEnd, cfg.LogBytes)
	}
	e := &Engine{
		dev:      dev,
		cfg:      cfg,
		replayer: replayer,
		trigger:  make(chan struct{}, 1),
		closed:   make(chan struct{}),
	}
	e.mu.Lock()
	e.rootSeq = st.Seq
	e.shadowGen = int(st.ShadowGen)
	e.mu.Unlock()
	log0, err := e.logSpace(0)
	if err != nil {
		return nil, err
	}
	log1, err := e.logSpace(1)
	if err != nil {
		return nil, err
	}
	e.pair, err = wal.RecoverPair(log0, log1, int(st.ActiveLog))
	if err != nil {
		return nil, err
	}
	e.pair.SetGroupCommit(wal.GroupCommitConfig{Enabled: cfg.GroupCommit}) // before any append

	// Step 1 (§3.6): if the crash interrupted a checkpoint, redo it against
	// the old shadow copies so the next step sees a consistent image.
	t0 := time.Now()
	if st.CkptInProgress != 0 {
		if err := e.replayOntoNewShadow(int(st.ArchivedLog), st.ReplayEnd); err != nil {
			return nil, fmt.Errorf("dipper: checkpoint redo: %w", err)
		}
	}

	// Step 2: recover the volatile space — replicate the PMEM allocator
	// state in DRAM by copying the shadow arena (the redo in step 1 may have
	// flipped the current generation).
	e.mu.Lock()
	gen := e.shadowGen
	e.mu.Unlock()
	shadowSp, err := e.shadowSpace(gen)
	if err != nil {
		return nil, err
	}
	shadowAl, err := alloc.Open(shadowSp)
	if err != nil {
		return nil, fmt.Errorf("dipper: shadow arena: %w", err)
	}
	e.frontAl, err = shadowAl.CloneTo(cfg.frontendSpace())
	if err != nil {
		return nil, err
	}
	e.recoverMetadataNs = time.Since(t0).Nanoseconds()

	// Step 3: replay the active log's committed records on the volatile
	// structures to restore pre-crash state.
	t1 := time.Now()
	active := e.pair.Log(e.pair.ActiveIndex())
	err = e.replayer.Replay(e.frontAl, func(fn func(wal.RecordView) error) error {
		return active.IterateCommitted(active.Tail(), func(rv wal.RecordView) error {
			e.recordsRecovered.Add(1)
			return fn(rv)
		})
	})
	if err != nil {
		return nil, fmt.Errorf("dipper: active log replay: %w", err)
	}
	e.recoverReplayNs = time.Since(t1).Nanoseconds()
	e.start()
	return e, nil
}

// RecoveryBreakdown reports how long the last Open spent rebuilding metadata
// (checkpoint redo + PMEM→DRAM copy) versus replaying the active log —
// Table 4's two phases. Zero for Format-created engines.
func (e *Engine) RecoveryBreakdown() (metadataNs, replayNs int64) {
	return e.recoverMetadataNs, e.recoverReplayNs
}

func (e *Engine) logSpace(i int) (*space.PMEM, error) {
	return space.NewPMEM(e.dev, e.cfg.logOff(i), e.cfg.LogBytes)
}

func (e *Engine) shadowSpace(i int) (*space.PMEM, error) {
	return space.NewPMEM(e.dev, e.cfg.shadowOff(i), e.cfg.ArenaBytes)
}

func (e *Engine) start() {
	if !e.cfg.AutoCheckpoint {
		return
	}
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		for {
			select {
			case <-e.closed:
				return
			case <-e.trigger:
				if err := e.Checkpoint(); err != nil && !errors.Is(err, ErrClosed) {
					// A failed background checkpoint leaves the log full;
					// foreground appends will retry synchronously.
					continue
				}
			}
		}
	}()
}

// Frontend returns the DRAM system-space arena.
func (e *Engine) Frontend() *alloc.Allocator { return e.frontAl }

// Pair returns the log pair.
func (e *Engine) Pair() *wal.Pair { return e.pair }

// Device returns the PMEM device.
func (e *Engine) Device() *pmem.Device { return e.dev }

// RootState returns the current durable root state. It reads under e.mu,
// which every root publication holds, so a background checkpoint is never
// observed mid-write.
func (e *Engine) RootState() (RootState, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return readRoot(e.dev)
}

// Stats returns a snapshot of engine counters.
func (e *Engine) Stats() Stats {
	gc := e.pair.GroupCommitStats()
	return Stats{
		Checkpoints:       e.checkpoints.Load(),
		CheckpointNanos:   e.checkpointNanos.Load(),
		RecordsReplayed:   e.recordsReplayed.Load(),
		ShadowBytesCloned: e.shadowCloned.Load(),
		RecordsRecovered:  e.recordsRecovered.Load(),
		GCBatches:         gc.Batches,
		GCRecords:         gc.Records,
		GCParked:          gc.Parked,
	}
}

// MaybeTrigger requests a background checkpoint if the active log is below
// the free-space threshold. Non-blocking; called from the append path.
func (e *Engine) MaybeTrigger() {
	if !e.cfg.AutoCheckpoint || e.ckptBusy.Load() {
		return
	}
	if e.pair.FreeFraction() < e.cfg.CheckpointThreshold {
		select {
		case e.trigger <- struct{}{}:
		default:
		}
	}
}

// publishRoot builds and durably publishes the successor root state under
// e.mu.
func (e *Engine) publishRoot(mutate func(*RootState)) {
	e.mu.Lock()
	e.rootSeq++
	st := RootState{
		Seq:       e.rootSeq,
		ShadowGen: uint8(e.shadowGen),
		ActiveLog: uint8(e.pair.ActiveIndex()),
	}
	mutate(&st)
	e.shadowGen = int(st.ShadowGen)
	writeRoot(e.dev, st)
	e.mu.Unlock()
}

// Checkpoint performs one atomic quiescent-free checkpoint (§3.5): swap the
// logs, clone the current shadow generation, replay the archived committed
// records onto the clone, flush, and flip the root. The frontend continues
// to serve requests throughout; only the log swap itself briefly excludes
// appends.
//
// time.Now here feeds the CheckpointNanos metric only; checkpoint decisions
// never read the clock.
//
//dstore:wallclock
func (e *Engine) Checkpoint() error {
	if e.closing.Load() {
		return ErrClosed
	}
	e.ckptMu.Lock()
	defer e.ckptMu.Unlock()
	e.ckptBusy.Store(true)
	defer e.ckptBusy.Store(false)
	start := time.Now() // metrics only; see the //dstore:wallclock note below

	res, err := e.pair.Swap(func(newActive, archived int, replayEnd uint64) {
		// Inside the swap critical section: durably record that appends go
		// to newActive and a checkpoint of `archived` is in flight. A crash
		// from here on redoes this checkpoint at recovery.
		e.mu.Lock()
		e.rootSeq++
		writeRoot(e.dev, RootState{
			Seq:            e.rootSeq,
			ActiveLog:      uint8(newActive),
			ShadowGen:      uint8(e.shadowGen),
			CkptInProgress: 1,
			ArchivedLog:    uint8(archived),
			ReplayEnd:      replayEnd,
		})
		e.mu.Unlock()
		if e.cfg.OnSwap != nil {
			e.cfg.OnSwap()
		}
	})
	if err != nil {
		// The swap failed before publishing anything: the old active log is
		// intact and still receiving appends. No space was freed, though, so
		// the caller must treat a full log as unrecoverable.
		return fmt.Errorf("dipper: checkpoint swap: %w", err)
	}

	// Frontend operation proceeds in parallel from here (Fig. 2 step ③).
	if err := e.replayOntoNewShadow(res.ArchivedIndex, res.ReplayEnd); err != nil {
		return err
	}
	if e.cfg.OnCheckpointDone != nil {
		e.cfg.OnCheckpointDone()
	}
	e.checkpoints.Add(1)
	e.checkpointNanos.Add(uint64(time.Since(start)))
	return nil
}

// replayOntoNewShadow clones the current shadow generation into the other
// generation, replays the archived log's committed prefix onto the clone,
// flushes it, and atomically flips the root to the new generation. It is
// the shared tail of Checkpoint and of recovery's checkpoint redo, and is
// idempotent: it never mutates the current generation or the archived log.
func (e *Engine) replayOntoNewShadow(archivedIdx int, replayEnd uint64) error {
	e.mu.Lock()
	curGen := e.shadowGen
	e.mu.Unlock()
	newGen := 1 - curGen

	curSp, err := e.shadowSpace(curGen)
	if err != nil {
		return err
	}
	cur, err := alloc.Open(curSp)
	if err != nil {
		return fmt.Errorf("dipper: open shadow %d: %w", curGen, err)
	}
	newSp, err := e.shadowSpace(newGen)
	if err != nil {
		return err
	}
	clone, err := cur.CloneTo(newSp)
	if err != nil {
		return err
	}
	e.shadowCloned.Add(cur.Used())

	archived := e.pair.Log(archivedIdx)
	replayed := uint64(0)
	err = e.replayer.Replay(clone, func(fn func(wal.RecordView) error) error {
		return archived.IterateCommitted(replayEnd, func(rv wal.RecordView) error {
			replayed++
			return fn(rv)
		})
	})
	if err != nil {
		return fmt.Errorf("dipper: shadow replay: %w", err)
	}
	e.recordsReplayed.Add(replayed)

	// Durability: flush every allocated page, allocator state included.
	clone.FlushAll()

	// Atomicity: flip the root only now (§3.5 "update the locations of
	// shadow copies in the root object atomically and only upon successful
	// completion").
	e.publishRoot(func(st *RootState) {
		st.ShadowGen = uint8(newGen)
		st.CkptInProgress = 0
		st.LastCkptLSN = e.pair.LastLSN()
	})
	return nil
}

// SwapOnlyForCrash performs only the swap + root-update prefix of a
// checkpoint and stops, leaving the durable state exactly as if the process
// crashed while the checkpoint was in flight — the paper's worst-case
// failure point for the recovery experiment (§5.5). Recovery must then redo
// the whole checkpoint from the archived log. Only for crash experiments.
func (e *Engine) SwapOnlyForCrash() {
	e.ckptMu.Lock()
	defer e.ckptMu.Unlock()
	// An injected swap failure just means the crash point lands before the
	// swap instead of after it — fine for a crash-experiment helper.
	e.pair.Swap(func(newActive, archived int, replayEnd uint64) { //nolint:errcheck
		e.mu.Lock()
		e.rootSeq++
		writeRoot(e.dev, RootState{
			Seq:            e.rootSeq,
			ActiveLog:      uint8(newActive),
			ShadowGen:      uint8(e.shadowGen),
			CkptInProgress: 1,
			ArchivedLog:    uint8(archived),
			ReplayEnd:      replayEnd,
		})
		e.mu.Unlock()
	})
}

// Append logs one logical operation, handling CC conflicts and log-full
// backpressure: on conflict it spins on the conflicting record's commit flag
// (§4.4); on a full log it runs a checkpoint synchronously and retries.
func (e *Engine) Append(op uint16, name, payload []byte) (*wal.Handle, error) {
	return e.AppendIgnore(op, name, payload, 0)
}

// AppendIgnore is Append with the caller's own lock record (by LSN) excluded
// from conflict detection.
func (e *Engine) AppendIgnore(op uint16, name, payload []byte, ignore uint64) (*wal.Handle, error) {
	for {
		h, conflict, err := e.pair.AppendIgnore(op, name, payload, ignore)
		switch {
		case err == nil && conflict == nil:
			e.MaybeTrigger()
			return h, nil
		case conflict != nil:
			conflict.Wait()
		case errors.Is(err, wal.ErrLogFull):
			if e.closing.Load() {
				return nil, ErrClosed
			}
			if cerr := e.Checkpoint(); cerr != nil {
				return nil, fmt.Errorf("dipper: log full and checkpoint failed: %w", cerr)
			}
		default:
			return nil, err
		}
	}
}

// Commit marks h durable (step ⑨ of Fig. 4). Call only after the operation's
// externally visible effects (e.g. SSD data) are durable. On a device error
// the record is settled for concurrency control but its durability is lost;
// the caller must stop issuing writes (see wal.Pair.Commit).
func (e *Engine) Commit(h *wal.Handle) error { return e.pair.Commit(h) }

// Abort marks h dead. Device-error semantics mirror Commit.
func (e *Engine) Abort(h *wal.Handle) error { return e.pair.Abort(h) }

// FindConflictIgnore exposes the log's conflict check (wal.Pair), excluding
// the caller's own lock record.
func (e *Engine) FindConflictIgnore(name []byte, ignore uint64) *wal.Handle {
	return e.pair.FindConflictIgnore(name, ignore)
}

// Close drains in-flight checkpoints and stops the background goroutine.
// It does NOT checkpoint; a clean shutdown that wants an up-to-date shadow
// should call Checkpoint first (DStore.Finalize does).
func (e *Engine) Close() {
	if e.closing.Swap(true) {
		return
	}
	close(e.closed)
	e.wg.Wait()
	// Wait out a concurrent checkpoint.
	e.ckptMu.Lock()
	e.ckptMu.Unlock() //nolint:staticcheck // empty critical section is the drain
}
