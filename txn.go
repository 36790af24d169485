package dstore

import (
	"errors"
	"fmt"
	"sort"
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

// verStripes is the version table's size: 4096 counters, 32 KiB per store.
const verStripes = 4096

// verTable is the OCC commit-version table: a fixed array of counters indexed
// by the key's name hash, one of them bumped by every committed mutation of a
// key (put, delete, create, extend, checksum invalidation, transaction
// sub-op, replicated apply) after the structures changed and before the
// record commits. A transaction captures the counter inside its read's CC
// section and revalidates it at commit: equality plus an empty conflict
// window proves the key is untouched since the read.
//
// The table never grows — a per-name map would have to keep an entry for
// every name ever written, deleted ones included. Keys that share a counter
// cost soundness nothing (a counter only rises, so equality still proves that
// no key of the stripe changed); they cost a spurious ErrTxnConflict, and so
// a retry, when another key of the stripe commits inside the read→commit
// window: per key read, the writes that land in that window ÷ 4096.
type verTable [verStripes]atomic.Uint64

func (v *verTable) stripe(key string) *atomic.Uint64 {
	return &v[wal.NameHash(key)%verStripes]
}

// version returns key's current commit version.
func (v *verTable) version(key string) uint64 { return v.stripe(key).Load() }

// bump advances key's commit version.
func (v *verTable) bump(key string) { v.stripe(key).Add(1) }

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
	reads  map[string]readVer
	writes map[string]txnWrite
	done   bool
}

// readVer is one entry of an OCC read set: the commit version the key had at
// its first read and the store whose version table that counter is in. After a
// ring flip or a failover another store serves the key, its counters are
// unrelated, and equal numbers prove nothing: validateReads refuses the read
// (DESIGN.md §12).
type readVer struct {
	ver  uint64
	from *Store
}

func (sh *Sharded) begin() *txn {
	return &txn{sh: sh, reads: make(map[string]readVer), writes: make(map[string]txnWrite)}
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
		t.reads[key] = readVer{ver: ver, from: s}
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
	st, hash := s.enterRead(key, nil)
	defer st.exit()
	ver := s.vers.version(key)
	out, err := s.readObject(key, hash, buf)
	return out, ver, err
}

// validateReads checks the OCC read set: every key must have been read from
// this store (readVer), its commit version must equal the captured one, and
// the key's conflict window must be empty (a writer mid-pipeline appended but
// not yet settled). The transaction's own olock records are excluded. Caller
// holds poolMu, which makes the check atomic with the commit-record append: a
// conflicting writer either appended before now (caught here) or will append
// after poolMu releases and thus serialize after this transaction's commit
// record.
func (s *Store) validateReads(reads map[string]readVer, locks map[string]*wal.Handle) error {
	for key, r := range reads {
		if r.from != s || s.vers.version(key) != r.ver ||
			s.eng.Pair().FindConflictIgnore([]byte(key), heldLSN(locks, key)) != nil {
			return ErrTxnConflict
		}
	}
	return nil
}

// validateReadSet is validateReads behind the pool lock, for read sets on
// shards other than the one appending the commit record (txnshard.go); locks
// carries the transaction's own olocks on that shard, if any.
func (s *Store) validateReadSet(reads map[string]readVer, locks map[string]*wal.Handle) error {
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
		h, err := s.olock(k, locks)
		if err != nil {
			s.releaseOlocks(locks)
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

// commitTxnSet commits one store's share of a transaction — used by the
// routed commit's one-participant case, the cross-shard coordinator and
// participant phases, and recovery roll-forward: olock the write keys (unless
// the caller already holds them), then run the write pipeline (write.go) for
// the whole write set under a single opTxnCommit record, whose commit is the
// atomic durability point. The pipeline checks the read set before it writes
// any data, writes the data out of place, validates the reads again under
// poolMu atomically with the record's append, and applies the sub-ops in
// record order (the order replay uses).
//
// ops is never empty: a read-only set validates through validateReadSet.
// reads may be nil (decided cross-shard applies and recovery validate
// nothing). held, when non-nil, maps write keys to olock records the caller
// acquired (and will release) itself.
func (s *Store) commitTxnSet(txnid uint64, reads map[string]readVer, ops []txnOp, held map[string]*wal.Handle) error {
	if err := s.checkWritable(); err != nil {
		return err
	}
	sortTxnOps(ops)

	// Bound the commit record before touching anything: every sub-op must
	// fit one WAL payload.
	w := writeSet{op: opTxnCommit, name: []byte(txnRecordName(txnid)), txnid: txnid, reads: reads, locks: held}
	w.subs = make([]subOp, len(ops))
	keys := make([]string, len(ops))
	est := 12
	for i, op := range ops {
		keys[i] = op.key
		u := subOp{op: opDelete, key: op.key, name: []byte(op.key)}
		est += 3 + len(op.key)
		if !op.del {
			if uint64(len(op.value)) > s.maxObjectBytes() {
				return fmt.Errorf("dstore: value of %d bytes exceeds max object size %d", len(op.value), s.maxObjectBytes())
			}
			u.op, u.data, u.size = opPut, op.value, uint64(len(op.value))
			est += allocLen(int(blocksFor(u.size, blockSize)))
		}
		w.subs[i] = u
	}
	if est > wal.MaxPayload {
		return fmt.Errorf("%w: commit record needs %d bytes, max %d", ErrTxnTooLarge, est, wal.MaxPayload)
	}

	if held != nil {
		return s.write1(&w)
	}
	var err error
	if w.locks, err = s.olockKeys(keys); err != nil {
		return err
	}
	// Release explicitly, not by defer: release settles WAL records, and a
	// crash (modeled in tests as a panic mid-append) must not re-enter the
	// WAL during unwinding — a real power loss runs no release at all, and
	// recovery must cope with the bare uncommitted olocks.
	err = s.write1(&w)
	s.releaseOlocks(w.locks)
	return err
}

// putReserved writes a reserved-namespace object (cross-shard prepare) via
// the normal put pipeline, logged as opTxnBegin so replay treats it exactly
// like a put.
func (s *Store) putReserved(name string, value []byte) error {
	if err := s.validateNameAny(name); err != nil {
		return err
	}
	w, err := s.putSet(opTxnBegin, name, value, nil)
	if err != nil {
		return err
	}
	return s.writeOne(w)
}

// deleteReserved removes a reserved-namespace object via opTxnAbort,
// tolerating absence (a crashed cleanup may have half-finished).
func (s *Store) deleteReserved(name string) error {
	err := s.validateNameAny(name)
	if err == nil {
		err = s.writeOne(s.single(opTxnAbort, name, nil))
	}
	if errors.Is(err, ErrNotFound) {
		return nil
	}
	return err
}
