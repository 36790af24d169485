package dstore

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"dstore/internal/wal"
)

// This file implements multi-key optimistic transactions (DESIGN.md §12):
// the Txn type's buffering half and one store's commit pipeline. Reads
// record a per-key commit version, writes buffer in DRAM, and the pipeline
// validates the read set under the pool lock — atomically with the append
// of a single opTxnCommit WAL record carrying the store's whole write set —
// so recovery replay applies all of those writes or, when the record never
// committed, none of them. Routing a transaction's keys to their stores and
// committing across more than one is txnshard.go.

// errTxnDone is returned by operations on a committed or aborted transaction.
var errTxnDone = errors.New("dstore: transaction already finished")

// txnStats counts transaction outcomes.
type txnStats struct {
	commits, aborts, conflicts atomic.Uint64
	seq                        atomic.Uint64 // transaction id source
}

// verStripes is the version-table stripe count (same fanout as zoneMu).
const verStripes = 64

// verTable is the OCC per-key commit-version table: a striped map bumped by
// every committed mutation of a key (put, delete, create, extend, checksum
// invalidation, transaction sub-op, replicated apply) after the structures
// changed and before the record commits. A transaction captures the version
// inside its read's CC section and revalidates it at commit: equality plus
// an empty conflict window proves the key is untouched since the read.
type verTable struct {
	mu [verStripes]sync.Mutex
	m  [verStripes]map[string]uint64 // each stripe guarded by its mu
}

func verStripe(key string) int {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return int(h % verStripes)
}

// version returns key's current commit version (0 if never mutated).
func (v *verTable) version(key string) uint64 {
	i := verStripe(key)
	v.mu[i].Lock()
	ver := v.m[i][key]
	v.mu[i].Unlock()
	return ver
}

// bump advances key's commit version.
func (v *verTable) bump(key string) {
	i := verStripe(key)
	v.mu[i].Lock()
	if v.m[i] == nil {
		v.m[i] = make(map[string]uint64)
	}
	v.m[i][key]++
	v.mu[i].Unlock()
}

// Reserved object namespace: user keys may not start with '\x00'; the
// transaction machinery uses that prefix for its WAL record names and for
// the cross-shard prepare/decision objects (txnshard.go).
func txnRecordName(id uint64) string { return fmt.Sprintf("\x00txn\x00%016x", id) }

// txnWrite is one buffered write inside an open transaction.
type txnWrite struct {
	del   bool
	value []byte
}

// txn is the Txn implementation: a DRAM write buffer plus the first-read
// commit version of every key read, over a ring of stores. A bare store's
// transactions run over its ring-of-one view (Store.self), so committing on
// one store is the routed commit's one-participant case (txnshard.go), not a
// second code path.
type txn struct {
	sh     *Sharded
	reads  map[string]uint64
	writes map[string]txnWrite
	done   bool
}

func (sh *Sharded) begin() *txn {
	return &txn{sh: sh, reads: make(map[string]uint64), writes: make(map[string]txnWrite)}
}

// Begin starts a transaction on the context's store. The returned Txn is
// owned by a single goroutine, like the Ctx itself.
func (c *Ctx) Begin() (Txn, error) {
	if c.s == nil || c.s.closed.Load() {
		return nil, ErrClosed
	}
	return c.s.self.begin(), nil
}

// Begin starts a transaction spanning the sharded namespace.
func (c *ShardedCtx) Begin() (Txn, error) {
	if c.sh == nil {
		return nil, ErrClosed
	}
	return c.sh.begin(), nil
}

// store returns the store owning key under the current ring.
func (t *txn) store(key string) *Store { return t.sh.store(t.sh.owner(key)) }

// Get reads key, observing the transaction's own buffered writes first
// (read-your-writes). The first store read of each key records its commit
// version for validation; absent keys are versioned too, so a commit fails
// if a key read as missing is created concurrently.
func (t *txn) Get(key string, buf []byte) ([]byte, error) {
	if t.done {
		return nil, errTxnDone
	}
	if w, ok := t.writes[key]; ok {
		if w.del {
			return nil, ErrNotFound
		}
		return append(buf, w.value...), nil
	}
	s := t.store(key)
	if err := s.validateName(key); err != nil {
		return nil, err
	}
	out, ver, err := s.getVersioned(key, buf)
	if err != nil && !errors.Is(err, ErrNotFound) {
		return nil, err
	}
	if _, seen := t.reads[key]; !seen {
		t.reads[key] = ver
	}
	return out, err
}

// Put buffers a write of value under key; nothing is logged or becomes
// visible until Commit. The value is copied; it is routed at commit.
func (t *txn) Put(key string, value []byte) error {
	if t.done {
		return errTxnDone
	}
	s := t.store(key)
	if err := s.validateName(key); err != nil {
		return err
	}
	if uint64(len(value)) > s.maxObjectBytes() {
		return fmt.Errorf("dstore: value of %d bytes exceeds max object size %d", len(value), s.maxObjectBytes())
	}
	t.writes[key] = txnWrite{value: append([]byte(nil), value...)}
	return nil
}

// Delete buffers a deletion of key. Deleting an absent key is a no-op at
// commit (the sub-operation is tolerant, like replay).
func (t *txn) Delete(key string) error {
	if t.done {
		return errTxnDone
	}
	if err := t.store(key).validateName(key); err != nil {
		return err
	}
	t.writes[key] = txnWrite{del: true}
	return nil
}

// Abort discards the transaction's buffered state.
func (t *txn) Abort() error {
	if t.done {
		return nil
	}
	t.done = true
	t.sh.store(0).txns.aborts.Add(1)
	return nil
}

// txnOp is one write routed to a store's commit pipeline.
type txnOp struct {
	key   string
	del   bool
	value []byte
}

func sortTxnOps(ops []txnOp) {
	sort.Slice(ops, func(i, j int) bool { return ops[i].key < ops[j].key })
}

// getVersioned is Ctx.Get's read protocol plus a version capture: inside the
// CC reader section no writer of key can be between its structure apply and
// its version bump (writers drain readers first), so the version and the
// value are a consistent pair.
func (s *Store) getVersioned(key string, buf []byte) ([]byte, uint64, error) {
	if s.closed.Load() {
		return nil, 0, ErrClosed
	}
	s.ops.gets.Add(1)
	ctr := s.readers.enterChecked(key, func() *wal.Handle {
		return s.eng.FindConflict([]byte(key))
	})
	defer s.readers.exit(ctr)
	ver := s.vers.version(key)
	out, err := s.readObject(key, buf)
	return out, ver, err
}

// validateReads checks the OCC read set: every key's commit version must
// equal the captured one, and the key's conflict window must be empty (a
// writer mid-pipeline appended but not yet settled). The transaction's own
// olock records are excluded. Caller holds poolMu, which makes the check
// atomic with the commit-record append: a conflicting writer either
// appended before now (caught here) or will append after poolMu releases
// and thus serialize after this transaction's commit record.
func (s *Store) validateReads(reads map[string]uint64, locks map[string]*wal.Handle) error {
	for key, ver := range reads {
		if s.vers.version(key) != ver {
			return ErrTxnConflict
		}
		var ignore uint64
		if h, ok := locks[key]; ok {
			ignore = h.LSN()
		}
		if s.eng.FindConflictIgnore([]byte(key), ignore) != nil {
			return ErrTxnConflict
		}
	}
	return nil
}

// validateReadSet is validateReads behind the pool lock, for read sets on
// shards other than the one appending the commit record (txnshard.go); locks
// carries the transaction's own olocks on that shard, if any.
func (s *Store) validateReadSet(reads map[string]uint64, locks map[string]*wal.Handle) error {
	s.poolMu.Lock()
	defer s.poolMu.Unlock()
	return s.validateReads(reads, locks)
}

// olockKeys appends an uncommitted NOOP record per key in sorted order (the
// §4.5 olock): concurrent writers of those names conflict and wait, readers
// drain through the CC window, so the write set is exclusively owned until
// the records settle. Sorted acquisition keeps concurrent commits
// deadlock-free.
func (s *Store) olockKeys(keys []string) (map[string]*wal.Handle, error) {
	sorted := append([]string(nil), keys...)
	sort.Strings(sorted)
	locks := make(map[string]*wal.Handle, len(sorted))
	for _, k := range sorted {
		h, err := s.eng.Append(opNoop, []byte(k), nil)
		if err != nil {
			s.releaseOlocks(locks)
			if isDeviceErr(err) {
				s.degrade(err)
				return nil, fmt.Errorf("%w: txn lock append: %v", ErrDegraded, err)
			}
			return nil, err
		}
		locks[k] = h
	}
	return locks, nil
}

// releaseOlocks settles the NOOP records, unblocking waiters. A degraded
// commit still settles the record for CC in DRAM, so release never wedges.
func (s *Store) releaseOlocks(locks map[string]*wal.Handle) {
	for _, h := range locks {
		s.commit(h) //nolint:errcheck // release path; CC settles even on device error
	}
}

// commitTxnSet is one store's commit pipeline, shared by the routed commit's
// one-participant case, the cross-shard coordinator/participant phases, and
// recovery roll-forward: olock the write keys (unless the caller already
// holds them), validate reads under poolMu atomically with the opTxnCommit
// append, write the data out of place, apply the structure phases per
// sub-op, and commit the record — the atomic durability point.
//
// ops is never empty: a read-only set validates through validateReadSet.
// reads may be nil (decided cross-shard applies and recovery validate
// nothing). held, when non-nil, maps write keys to olock records the caller
// acquired (and will release) itself.
func (s *Store) commitTxnSet(txnid uint64, reads map[string]uint64, ops []txnOp, held map[string]*wal.Handle) error {
	if err := s.checkWritable(); err != nil {
		return err
	}
	sortTxnOps(ops)

	// Bound the commit record before touching anything: every sub-op must
	// fit one WAL payload.
	est := 12
	for _, op := range ops {
		if op.del {
			est += 3 + len(op.key)
			continue
		}
		if uint64(len(op.value)) > s.maxObjectBytes() {
			return fmt.Errorf("dstore: value of %d bytes exceeds max object size %d", len(op.value), s.maxObjectBytes())
		}
		est += 3 + len(op.key) + 20 + 12*int(blocksFor(uint64(len(op.value)), s.cfg.BlockSize))
	}
	if est > wal.MaxPayload {
		return fmt.Errorf("%w: commit record needs %d bytes, max %d", ErrTxnTooLarge, est, wal.MaxPayload)
	}

	// Per-block checksums, computed outside any lock.
	sums := make([][]uint32, len(ops))
	for i, op := range ops {
		if !op.del {
			sums[i] = blockSums(op.value, s.cfg.BlockSize)
		}
	}

	locks := held
	if locks == nil {
		keys := make([]string, len(ops))
		for i, op := range ops {
			keys[i] = op.key
		}
		var err error
		locks, err = s.olockKeys(keys)
		if err != nil {
			return err
		}
		// Release explicitly, not by defer: release settles WAL records, and
		// a crash (modeled in tests as a panic mid-append) must not re-enter
		// the WAL during unwinding — a real power loss runs no release at
		// all, and recovery must cope with the bare uncommitted olocks.
		err = s.commitTxnOwned(txnid, reads, locks, ops, sums)
		s.releaseOlocks(locks)
		return err
	}
	return s.commitTxnOwned(txnid, reads, locks, ops, sums)
}

// commitTxnOwned is commitTxnSet's core, entered with the write keys'
// olocks held (by this call or the caller): validate + append, data phase,
// structure apply, version bumps, record commit, deferred frees.
func (s *Store) commitTxnOwned(txnid uint64, reads map[string]uint64, locks map[string]*wal.Handle, ops []txnOp, sums [][]uint32) error {
	if s.cfg.DisableOE {
		s.globalMu.Lock()
		defer s.globalMu.Unlock()
	}

	name := []byte(txnRecordName(txnid))
	var h *wal.Handle
	var allocs []putAlloc
	for attempt := 0; ; attempt++ {
		var err error
		h, allocs, err = s.txnAllocAndAppend(txnid, name, reads, locks, ops, sums)
		if err != nil {
			return err
		}
		bad := false
		var werr error
		for i, op := range ops {
			if op.del {
				continue
			}
			if bad, werr = s.putDataPhase(allocs[i], op.value, uint64(len(op.value))); werr != nil {
				break
			}
		}
		if werr == nil {
			break
		}
		// The record never committed: dead, replays as nothing. Return the
		// fresh allocations and — on a permanent error — rerun on different
		// blocks, like Put.
		s.abort(h)
		s.poolMu.Lock()
		for i, op := range ops {
			if op.del {
				continue
			}
			s.freeBlocksLocked(allocs[i].blocks)
			if !allocs[i].existed {
				s.front.slotPool.Put(allocs[i].slot) //nolint:errcheck
			}
		}
		s.poolMu.Unlock()
		if bad && attempt < 2 {
			continue
		}
		return werr
	}

	// With the record appended and the olocks held, this transaction owns
	// every write key: snapshot the state the apply and the deferred frees
	// need (old block lists for overwritten puts, slot/blocks for deletes).
	type delInfo struct {
		slot   uint64
		blocks []uint64
		found  bool
	}
	dels := make([]delInfo, len(ops))
	for i, op := range ops {
		if op.del {
			s.treeMu.RLock()
			slot, ok := s.front.tree.Get([]byte(op.key))
			s.treeMu.RUnlock()
			if ok {
				if e, used, err := s.zoneRead(slot); err == nil && used {
					dels[i] = delInfo{slot: slot, blocks: e.Blocks, found: true}
				}
			}
			continue
		}
		if allocs[i].existed {
			if e, used, err := s.zoneRead(allocs[i].slot); err == nil && used {
				allocs[i].oldBlocks = e.Blocks
			}
		}
	}

	// Apply every sub-op in record order (the order replay uses).
	applied := 0
	for i, op := range ops {
		nb := []byte(op.key)
		s.readers.awaitZero(op.key)
		var aerr error
		if op.del {
			if !dels[i].found {
				continue // tolerant, like replay
			}
			s.treeMu.Lock()
			zlk := s.zoneLock(dels[i].slot)
			zlk.Lock()
			aerr = s.front.deleteStructPhase(nb, dels[i].slot)
			zlk.Unlock()
			s.treeMu.Unlock()
		} else {
			zlk := s.zoneLock(allocs[i].slot)
			zlk.Lock()
			aerr = s.front.putMetaPhase(allocs[i], nb, uint64(len(op.value)))
			zlk.Unlock()
			if aerr == nil {
				s.treeMu.Lock()
				aerr = s.front.putTreePhase(allocs[i], nb)
				s.treeMu.Unlock()
			}
		}
		if aerr != nil {
			if applied == 0 {
				// Nothing visible yet: clean abort, free the fresh blocks.
				s.abort(h)
				s.poolMu.Lock()
				for j, o2 := range ops {
					if o2.del {
						continue
					}
					s.freeBlocksLocked(allocs[j].blocks)
					if !allocs[j].existed {
						s.front.slotPool.Put(allocs[j].slot) //nolint:errcheck
					}
				}
				s.poolMu.Unlock()
				return aerr
			}
			// Partially applied in DRAM: make the durable outcome the whole
			// transaction (data and record are complete) and stop taking
			// writes — a reopen replays every sub-op and converges.
			s.degrade(aerr)
			s.commit(h) //nolint:errcheck // best effort; the store is already degraded
			return aerr
		}
		applied++
	}

	// Versions bump after the structures changed and before the record
	// commits, mirroring Put/Delete.
	for _, op := range ops {
		s.vers.bump(op.key)
	}

	if err := s.commit(h); err != nil {
		return err
	}

	// Deferred frees only after commit.
	s.poolMu.Lock()
	for i, op := range ops {
		if op.del {
			if dels[i].found {
				s.freeBlocksLocked(dels[i].blocks)
				s.front.slotPool.Put(dels[i].slot) //nolint:errcheck
			}
			continue
		}
		if len(allocs[i].oldBlocks) > 0 {
			s.freeBlocksLocked(allocs[i].oldBlocks)
		}
	}
	s.poolMu.Unlock()
	return nil
}

// txnAllocAndAppend is allocAndAppend's transactional sibling: under the
// pool lock it validates the read set, takes every put sub-op's
// allocations, and appends the opTxnCommit record carrying the whole write
// set — one critical section, so validation and the commit-record position
// in the log are atomic. Retries (with allocations rolled back) on CC
// conflicts and log-full backpressure, like every writer.
func (s *Store) txnAllocAndAppend(txnid uint64, name []byte, reads map[string]uint64, locks map[string]*wal.Handle, ops []txnOp, sums [][]uint32) (*wal.Handle, []putAlloc, error) {
	devRetries := 0
	for {
		s.poolMu.Lock()
		if verr := s.validateReads(reads, locks); verr != nil {
			s.poolMu.Unlock()
			return nil, nil, verr
		}
		allocs := make([]putAlloc, len(ops))
		subs := make([]txnSub, 0, len(ops))
		var perr error
		s.treeMu.RLock()
		for i, op := range ops {
			if op.del {
				subs = append(subs, txnSub{kind: txnSubDelete, name: []byte(op.key)})
				continue
			}
			var a putAlloc
			a, perr = s.front.putPoolPhase([]byte(op.key), uint64(len(op.value)), s.cfg.BlockSize)
			if perr != nil {
				for j := 0; j < i; j++ {
					if !ops[j].del {
						s.front.undoPutAlloc(allocs[j])
					}
				}
				break
			}
			a.sums = sums[i]
			allocs[i] = a
			subs = append(subs, txnSub{
				kind: txnSubPut, name: []byte(op.key),
				size: uint64(len(op.value)), slot: a.slot,
				blocks: a.blocks, sums: a.sums,
			})
		}
		s.treeMu.RUnlock()
		if perr != nil {
			s.poolMu.Unlock()
			return nil, nil, perr
		}
		payload := encodeTxnPayload(txnid, subs)
		h, conflict, err := s.eng.Pair().AppendIgnore(opTxnCommit, name, payload, 0)
		if err == nil && conflict == nil {
			s.eng.MaybeTrigger()
			s.poolMu.Unlock()
			return h, allocs, nil
		}
		for i, op := range ops {
			if !op.del {
				s.front.undoPutAlloc(allocs[i])
			}
		}
		s.poolMu.Unlock()
		switch {
		case conflict != nil:
			conflict.Wait()
		case wal.IsRetry(err):
		case errors.Is(err, wal.ErrLogFull):
			if s.cfg.DisableCheckpoints {
				return nil, nil, fmt.Errorf("dstore: log full with checkpoints disabled")
			}
			if cerr := s.checkpointForSpace(); cerr != nil {
				return nil, nil, cerr
			}
		default:
			if isTransientRetry(err, &devRetries) {
				continue
			}
			if isDeviceErr(err) {
				s.degrade(err)
				return nil, nil, fmt.Errorf("%w: log append: %v", ErrDegraded, err)
			}
			return nil, nil, err
		}
	}
}

// putReserved writes a reserved-namespace object (cross-shard prepare) via
// the normal put pipeline, logged as opTxnBegin so replay treats it exactly
// like a put.
func (s *Store) putReserved(name string, value []byte) error {
	return s.Init().putOp(opTxnBegin, name, value)
}

// deleteReserved removes a reserved-namespace object via opTxnAbort,
// tolerating absence (a crashed cleanup may have half-finished).
func (s *Store) deleteReserved(name string) error {
	err := s.Init().deleteOp(opTxnAbort, name)
	if errors.Is(err, ErrNotFound) {
		return nil
	}
	return err
}
