package dstore

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"

	"dstore/internal/fault"
	"dstore/internal/meta"
	"dstore/internal/wal"
)

// This file is the write pipeline (paper Fig. 4). Every mutation of a store —
// Put, Delete, Open(OpenCreate), the extend and checksum-invalidation records
// behind WriteAt, a Scrub remap, the reserved prepare/decision objects and a
// transaction commit — is a write set of N ≥ 1 sub-operations under one WAL
// record, and Store.write runs the nine steps once for it:
//
//	① lock pools ② append+flush log record ③ allocate blocks ④ allocate
//	metadata page ⑤ unlock ⑥ write metadata ⑦ write btree record ⑧ write
//	data to SSD ⑨ commit and flush log record.
//
// The allocations (③–④) precede the append (②) inside the pool lock because
// the record carries their ids, and step ⑧ is hoisted to run right after ⑤:
// the fresh blocks are invisible to every reader until ⑥ publishes them, so
// writing early is safe — and it lets a data-plane failure abort the
// operation (quarantining the bad block and re-running the pipeline on fresh
// ones) before any structure changed. What differs between opcodes is in
// opTable; ⑥–⑦ are plane.apply, the code replay runs.

// writeSet is what one run of the pipeline commits. A single-object mutation
// is the one-entry case: the record carries the sub-op's own opcode and
// name. A transaction wraps its write set in one opTxnCommit record under a
// reserved name and adds the read set to validate (DESIGN.md §12).
type writeSet struct {
	op     uint16 // the record's opcode
	name   []byte // the record's name
	ignore uint64 // LSN of the caller's own olock on name, excluded from CC
	subs   []subOp
	params []byte // the record parameters' buffer; a pooled oneWrite keeps it between writes

	txnid uint64
	reads map[string]readVer     // OCC read set, validated atomically with the append
	locks map[string]*wal.Handle // the transaction's own olocks, excluded from that validation
}

// opDesc is everything the pipeline needs to know about one opcode; the rest
// of a mutation is the same for all of them. Nil entries mean "nothing to
// do". The sub-ops handed to them live on the heap already — in a pooled
// oneWrite or a transaction's slice — so passing pointers through these
// function values costs nothing.
type opDesc struct {
	// encode and decode are the record-parameter codec; encode reuses b.
	encode func(b []byte, u *subOp, physPad int) []byte
	decode func(payload []byte) (subOp, error)
	// pool is the pool phase (steps ③–④), run under poolMu and
	// treeMu.RLock: take the allocations, record them and what the index
	// said about the name. Whatever it puts in fresh/newSlot the driver
	// returns if the write dies.
	pool func(s *Store, u *subOp) error
	// owned runs once the append made this writer the name's sole owner
	// (CC): read what the apply will displace, and refuse — ErrNotFound,
	// errStale — when the record turns out to have nothing to act on.
	owned func(s *Store, u *subOp) error
}

var opTable = [...]opDesc{
	opPut:      {encodeAllocPayload, decodeAllocPayload, (*Store).putPool, (*Store).putOwned},
	opCreate:   {encodeAllocPayload, decodeAllocPayload, (*Store).putPool, (*Store).putOwned},
	opTxnBegin: {encodeAllocPayload, decodeAllocPayload, (*Store).putPool, (*Store).putOwned},
	opExtend:   {encodeAllocPayload, decodeAllocPayload, (*Store).extendPool, nil},
	opDelete:   {owned: (*Store).deleteOwned},
	opTxnAbort: {owned: (*Store).deleteOwned},
	opInval:    {encodeInvalPayload, decodeInvalPayload, nil, (*Store).invalOwned},
	opRemap:    {encodeRemapPayload, decodeRemapPayload, (*Store).remapPool, (*Store).remapOwned},
	opNoop:     {},
}

// errStale is an owned check's verdict that the object changed between the
// caller's look and the append: the record is moot, not wrong.
var errStale = errors.New("dstore: object changed underneath")

// ------------------------------------------------------------- pool phases

// putPool is the pool phase of a whole-object write: the slot (reused when
// the object exists) and freshly allocated blocks for the new version. Data
// is always written out of place — the paper's pipeline allocates blocks for
// every write (Fig. 4 step ③) — so a crash before commit leaves the old
// version's blocks untouched and the dead record harmless. The old blocks
// are read once the record is appended (putOwned) and freed only after
// commit.
func (s *Store) putPool(u *subOp) error {
	p := s.front
	need := blocksFor(u.size, blockSize)
	if need > p.zone.MaxBlocks() {
		return fmt.Errorf("dstore: object %q needs %d blocks, max %d", u.name, need, p.zone.MaxBlocks())
	}
	var ok bool
	if u.slot, ok = p.tree.Get(u.name); !ok {
		slot, err := p.slotPool.Get()
		if err != nil {
			return fmt.Errorf("dstore: out of metadata slots: %w", err)
		}
		u.slot = slot
	}
	u.indexed, u.newSlot = ok, !ok
	u.blocks = make([]uint64, 0, need)
	return s.growBlocks(u, need)
}

// extendPool builds the grow-allocation for opExtend: the existing block
// list (read under the slot's stripe lock; a concurrent same-name writer
// makes the subsequent append conflict and the phase retry) plus fresh
// blocks to reach the new size. The existing blocks' checksums are carried
// over; the fresh blocks start unverified (their content is whatever the SSD
// holds until written). Nothing is displaced.
func (s *Store) extendPool(u *subOp) error {
	slot, ok := s.front.tree.Get(u.name)
	if !ok {
		return fmt.Errorf("dstore: extend of unknown object %q", u.name)
	}
	e, used, err := s.zoneRead(slot)
	if err != nil {
		return err
	}
	if !used {
		return fmt.Errorf("dstore: index entry %q points at free slot %d", u.name, slot)
	}
	need := blocksFor(u.size, blockSize)
	if need > s.front.zone.MaxBlocks() {
		return fmt.Errorf("dstore: object %q needs %d blocks, max %d", u.name, need, s.front.zone.MaxBlocks())
	}
	u.slot, u.indexed, u.newSlot = slot, true, false
	u.blocks, u.sums = e.Blocks, e.Sums
	if err := s.growBlocks(u, need); err != nil {
		return err
	}
	for len(u.sums) < len(u.blocks) {
		u.sums = append(u.sums, meta.SumUnverified)
	}
	return nil
}

// remapPool takes the relocation target of a scrub repair.
func (s *Store) remapPool(u *subOp) error {
	u.blocks = nil
	return s.growBlocks(u, 1)
}

// growBlocks allocates until u.blocks holds need blocks, remembering the
// new tail as u.fresh. On failure the blocks it took go back (and a slot
// putPool took with them).
func (s *Store) growBlocks(u *subOp, need uint64) error {
	had := len(u.blocks)
	for uint64(len(u.blocks)) < need {
		b, err := s.front.blockPool.Get()
		if err != nil {
			u.fresh = u.blocks[had:]
			s.releaseLocked(u)
			return fmt.Errorf("dstore: out of blocks: %w", err)
		}
		u.blocks = append(u.blocks, b)
	}
	u.fresh = u.blocks[had:]
	return nil
}

// releaseLocked returns a dead sub-op's allocations to the pools. Caller
// holds poolMu.
func (s *Store) releaseLocked(u *subOp) {
	s.freeBlocksLocked(u.fresh)
	if u.newSlot {
		s.front.slotPool.Put(u.slot) //nolint:errcheck
	}
	u.fresh, u.newSlot = nil, false
}

// release is releaseLocked for a whole write set, from outside the pool lock.
func (s *Store) release(subs []subOp) {
	s.poolMu.Lock()
	for i := range subs {
		s.releaseLocked(&subs[i])
	}
	s.poolMu.Unlock()
}

// ------------------------------------------------------------ owned checks

// lookup resolves name to its slot and entry under the reader-side locks.
func (s *Store) lookup(name []byte) (uint64, meta.Entry, error) {
	return s.lookupInto(name, nil)
}

// lookupInto is lookup over zoneReadInto: the read paths pass stack room.
func (s *Store) lookupInto(name []byte, buf *entryBuf) (uint64, meta.Entry, error) {
	s.treeMu.RLock()
	slot, ok := s.front.tree.Get(name)
	s.treeMu.RUnlock()
	if !ok {
		return 0, meta.Entry{}, ErrNotFound
	}
	e, used, err := s.zoneReadInto(slot, buf)
	if err == nil && !used {
		// string(name): the copy escapes into the error, not the caller's
		// (usually stack-allocated) name.
		err = fmt.Errorf("dstore: index entry %q points at free slot %d", string(name), slot)
	}
	return slot, e, err
}

// putOwned reads the previous version's blocks for the deferred free. A zone
// read error here would also surface at the apply; the list just stays empty.
func (s *Store) putOwned(u *subOp) error {
	if u.indexed {
		if e, used, err := s.zoneRead(u.slot); err == nil && used {
			u.old = e.Blocks
		}
	}
	return nil
}

// deleteOwned finds what a delete removes: the slot and its blocks, both
// freed after commit (a crash in between leaks nothing — pool reconstitution
// at recovery returns unreferenced ids to the free sets).
func (s *Store) deleteOwned(u *subOp) error {
	slot, e, err := s.lookup(u.name)
	if err == nil {
		u.slot, u.indexed, u.freeSlot, u.old = slot, true, true, e.Blocks
	}
	return err
}

// invalOwned names the cached copies an invalidation makes stale. (The
// metadata will say SumUnverified, so readers would not probe the cache for
// these blocks anyway; the eager drop reclaims the DRAM.)
func (s *Store) invalOwned(u *subOp) error {
	slot, e, err := s.lookup(u.name)
	if err != nil {
		return err
	}
	u.slot, u.indexed = slot, true
	for _, i := range u.idxs {
		if i < len(e.Blocks) {
			u.stale = append(u.stale, e.Blocks[i])
		}
	}
	return nil
}

// remapOwned re-checks that the slot Scrub examined still holds the
// quarantined block (u.old) at the index — an earlier writer may have
// replaced the whole version before our append serialized.
func (s *Store) remapOwned(u *subOp) error {
	slot, e, err := s.lookup(u.name)
	if errors.Is(err, ErrNotFound) {
		return errStale
	}
	if err != nil {
		return err
	}
	if idx := u.idxs[0]; slot != u.slot || idx >= len(e.Blocks) || e.Blocks[idx] != u.old[0] {
		return errStale
	}
	u.indexed = true
	return nil
}

// ----------------------------------------------------------------- driver

// stageNs are one write's Table 3 timestamps.
type stageNs struct {
	measure                    bool
	pool, log, ssd             int64 // accumulated durations (retries included)
	applyAt, metaDone, applied int64 // apply start; metadata half done; structures unlocked
}

// oneWrite is a single-object mutation's write set together with its one
// entry. They are pooled rather than built on the caller's stack: opTable's
// function values force whatever they are handed onto the heap, and the
// alternative — passing sub-ops down the pipeline by value — made its frames
// deep enough to push every write on a fresh goroutine (the server runs one
// per request) through an extra stack growth, 15% of net_a's throughput. A
// context cannot own one either: Put and Delete keep no per-call state in
// the Ctx, which is what lets a batch's appliers share it (batch.go).
type oneWrite struct {
	writeSet
	one [1]subOp
}

var oneWrites = sync.Pool{New: func() any { return new(oneWrite) }}

// single starts the one-entry write set of a mutation of key: the record
// carries the sub-op's own opcode and name, and ignore (the LSN of the
// caller's own olock on key, or 0) is excluded from conflict detection. The
// caller fills in what the opcode needs in w.one[0] and hands w to writeOne.
func (s *Store) single(op uint16, key string, ignore uint64) *oneWrite {
	w := oneWrites.Get().(*oneWrite)
	w.one[0] = subOp{op: op, key: key, name: []byte(key)}
	w.writeSet = writeSet{op: op, name: w.one[0].name, ignore: ignore, subs: w.one[:], params: w.params}
	return w
}

// writeOne runs the pipeline for w and recycles it.
func (s *Store) writeOne(w *oneWrite) error {
	err := s.write(&w.writeSet)
	*w = oneWrite{writeSet: writeSet{params: w.params}} // a pooled description must not pin the caller's value
	oneWrites.Put(w)
	return err
}

// write runs Fig. 4 once for w. Nothing in it releases an olock or touches
// the WAL from a defer: the crash sweeps model power loss as a panic
// mid-append, and unwinding must not re-enter the log.
func (s *Store) write(w *writeSet) error {
	if err := s.checkWritable(); err != nil {
		return err
	}
	t := stageNs{measure: s.cfg.Breakdown}
	var t0 int64
	if t.measure {
		t0 = nowNs()
	}
	// Without OE one global lock serializes the whole metadata section (§3.7,
	// Fig. 9 "+OE" ablation); the commit's flush stays outside it either way.
	serial := s.cfg.DisableOE
	if serial {
		s.globalMu.Lock()
	}
	h, err := s.stage(w, &t)
	if serial {
		s.globalMu.Unlock()
	}
	if err != nil {
		return err
	}

	// Step ⑨: commit — only now is the operation durable. On failure the
	// store is degraded and durability indeterminate; the displaced blocks
	// stay out of circulation (no more writes will need them anyway).
	if err := s.commit(h); err != nil {
		return err
	}

	// Deferred frees: what the apply unhooked returns to the pools only after
	// the new state committed, so an interrupted write never cannibalizes
	// state replay still needs.
	for i := range w.subs {
		if u := &w.subs[i]; len(u.old) > 0 || u.freeSlot {
			s.poolMu.Lock()
			s.freeBlocksLocked(u.old)
			if u.freeSlot {
				s.front.slotPool.Put(u.slot) //nolint:errcheck
			}
			s.poolMu.Unlock()
		}
	}

	if t.measure {
		if t.metaDone == 0 { // no put-shaped sub-op: the apply was all metadata
			t.metaDone = t.applied
		}
		s.bd.count.Add(1)
		s.bd.poolNs.Add(uint64(t.pool))
		s.bd.logNs.Add(uint64(t.log))
		s.bd.ssdNs.Add(uint64(t.ssd))
		s.bd.metaNs.Add(uint64(t.metaDone - t.applyAt))
		s.bd.treeNs.Add(uint64(t.applied - t.metaDone))
		s.bd.totalNs.Add(uint64(nowNs() - t0))
	}
	return nil
}

// stage is steps ①–⑧: everything up to, not including, the commit. On
// success the record is appended, the data written and the structures
// applied; on failure the record is settled and the allocations returned.
func (s *Store) stage(w *writeSet, t *stageNs) (*wal.Handle, error) {
	var h *wal.Handle
	for attempt := 0; ; attempt++ {
		var err error
		if h, err = s.appendSet(w, t); err != nil {
			return nil, err
		}
		var tw int64
		if t.measure {
			tw = nowNs()
		}
		bad, werr := s.dataPhase(w.subs)
		if t.measure {
			t.ssd += nowNs() - tw
		}
		if werr == nil {
			break
		}
		// The record never committed: it is dead and replays as a no-op.
		// Return the fresh allocations (minus anything quarantined) and, on
		// a permanent error, rerun the pipeline on different blocks.
		s.abort(h)
		s.release(w.subs)
		if !bad || attempt >= 2 {
			return nil, werr
		}
	}
	if t.measure {
		t.applyAt = nowNs()
	}

	// With the record appended this writer owns every name in the set (CC;
	// a transaction's are under its olocks): snapshot what the apply will
	// displace. A transaction's delete of an absent key is tolerated, like
	// the replay of its record.
	for i := range w.subs {
		if own := opTable[w.subs[i].op].owned; own != nil {
			err := own(s, &w.subs[i])
			if err != nil && !(w.op == opTxnCommit && errors.Is(err, ErrNotFound)) {
				s.abort(h)
				s.release(w.subs)
				return nil, err
			}
		}
	}

	visible, err := s.applyOwned(w.subs, t)
	if err == nil {
		return h, nil
	}
	// One policy for a failed apply. The record dies either way — the failure
	// is as deterministic as its usual cause, an exhausted index arena, so a
	// committed record would fail every replay too and leave the store
	// unopenable, whereas a dead one reopens to the state before the write.
	// If nothing of the set can be seen the allocations go back and the store
	// carries on; if part of it is in the frontend structures they no longer
	// match any durable state, so the store stops taking writes until a
	// reopen rebuilds them.
	s.abort(h)
	if visible {
		s.degrade(err)
	} else {
		s.release(w.subs)
	}
	return nil, err
}

// appendSet is steps ①–⑤ and the one append-outcome loop: under the pool
// lock validate the read set, run every sub-op's pool phase and append the
// record carrying their decisions — one critical section, so validation,
// allocation and the record's position in the log are atomic. A conflicting
// writer either appended before this point (the probe below reports it, or
// validateReads does) or serializes after this record. Every outcome but
// success rolls the allocations back first: CC conflict → wait for the
// conflicting record to settle; log full → checkpoint for space; transient
// device error → bounded backoff; anything else from the device → degrade.
//
// The pool phase reads the index (putPool: tree.Get decides indexed/newSlot)
// before the append scans the window, so a same-name writer that appended
// before this one took poolMu and applies and settles between the two would
// be missed: this writer would insert name → fresh slot over the other's slot
// (used, unreachable, its blocks leaked) or, after a delete, write a slot the
// delete's deferred free hands back to the pool. Hence the probe, under
// poolMu, before the pool phase: every data record is appended under poolMu,
// so "no unsettled record names X" holds until this writer's own append, and
// a record settled before the probe has applied — the index read reflects it.
// On a quiet filter stripe the probe is one atomic load; it touches no PMEM.
func (s *Store) appendSet(w *writeSet, t *stageNs) (*wal.Handle, error) {
	devRetries := 0
	for {
		var t0, t1 int64
		if t.measure {
			t0 = nowNs()
		}
		s.poolMu.Lock()
		if other := s.unsettled(w); other != nil {
			s.poolMu.Unlock()
			other.Wait()
			continue
		}
		err := s.validateReads(w.reads, w.locks)
		if err == nil {
			err = s.poolPhases(w.subs)
		}
		if err != nil {
			s.poolMu.Unlock()
			return nil, err
		}
		if t.measure {
			t1 = nowNs()
		}
		var payload []byte
		if w.op == opTxnCommit {
			payload = encodeTxnPayload(w.txnid, w.subs)
		} else if enc := opTable[w.op].encode; enc != nil {
			w.params = enc(w.params, &w.subs[0], s.physPad())
			payload = w.params
		}
		h, conflict, err := s.eng.Pair().AppendIgnore(w.op, w.name, payload, w.ignore)
		if err == nil && conflict == nil {
			s.eng.MaybeTrigger()
			s.poolMu.Unlock()
			if t.measure {
				t.pool += t1 - t0
				t.log += nowNs() - t1
			}
			return h, nil
		}
		for i := range w.subs {
			s.releaseLocked(&w.subs[i])
		}
		s.poolMu.Unlock()
		switch {
		case conflict != nil:
			conflict.Wait()
		case errors.Is(err, wal.ErrLogFull):
			if s.cfg.DisableCheckpoints {
				return nil, fmt.Errorf("dstore: log full with checkpoints disabled")
			}
			if cerr := s.checkpointForSpace(); cerr != nil {
				return nil, cerr
			}
		case isTransientRetry(err, &devRetries):
		case isDeviceErr(err):
			s.degrade(err)
			return nil, fmt.Errorf("%w: log append: %v", ErrDegraded, err)
		default:
			return nil, err
		}
	}
}

// unsettled returns another writer's unsettled record naming one of w's
// objects, if any. The writer's own olock on a name does not count, whether a
// lock holder's (w.ignore) or a transaction's (w.locks).
func (s *Store) unsettled(w *writeSet) *wal.Handle {
	for i := range w.subs {
		own := max(w.ignore, heldLSN(w.locks, w.subs[i].key))
		if h := s.eng.FindConflictIgnore(w.subs[i].name, own); h != nil {
			return h
		}
	}
	return nil
}

// poolPhases runs every sub-op's pool phase; if one fails, those before it
// are rolled back. Caller holds poolMu.
func (s *Store) poolPhases(subs []subOp) (err error) {
	s.treeMu.RLock()
	for i := range subs {
		if pool := opTable[subs[i].op].pool; pool != nil {
			if err = pool(s, &subs[i]); err != nil {
				for j := range subs[:i] {
					s.releaseLocked(&subs[j])
				}
				break
			}
		}
	}
	s.treeMu.RUnlock()
	return err
}

// dataPhase is step ⑧: write each sub-op's content into its fresh blocks,
// with bounded per-block retries (ssdWrite). On a permanent device error the
// failing block is quarantined and bad=true tells the caller the pipeline is
// worth re-running on fresh blocks. The fresh blocks left the cache when they
// were freed, but invalidating again here keeps the invariant local: no
// block is written — or, for the content-less create and extend, becomes
// readable — while a cache entry for it exists. The content and its sums stay
// in the sub-op: once the apply has made these blocks the current version,
// applyOwned publishes them to the cache (cachePublish), so nothing written
// here has an entry before it can be read or after the write died.
func (s *Store) dataPhase(subs []subOp) (bad bool, err error) {
	for i := range subs {
		u := &subs[i]
		s.cacheInvalidate(u.fresh)
		if u.data == nil {
			continue
		}
		if b, werr := s.writeBlocks(u.fresh, u.data); werr != nil {
			if bad = fault.IsPermanent(werr); bad {
				s.quarantineBlock(b)
			}
			return bad, fmt.Errorf("dstore: data write to block %d: %w", b, werr)
		}
	}
	return false, nil
}

// writeBlocks lays data across blocks at blockSize stride (the last span may
// be short), returning the block a failed write was aimed at.
func (s *Store) writeBlocks(blocks []uint64, data []byte) (uint64, error) {
	for i, b := range blocks {
		p := s.span(data, i)
		if p == nil {
			break
		}
		if err := s.ssdWrite(s.dataOff(b), p); err != nil {
			return b, err
		}
	}
	return 0, nil
}

// span is the piece of data that lies in the i-th of its blocks; nil past the
// end.
func (s *Store) span(data []byte, i int) []byte {
	lo := uint64(i) * blockSize
	if lo >= uint64(len(data)) {
		return nil
	}
	return data[lo:min(lo+blockSize, uint64(len(data)))]
}

// applyOwned is steps ⑥–⑦ and the one place a store's own structures change
// — on a primary after its append made it the names' owner, on a standby
// after the shipped record went into its log (repl.go): drain the readers
// that entered before the record became visible (§4.4), take the index lock
// (unless the set is all overwrites) and then the zone stripes (DESIGN.md
// §11), apply in record order, bump the OCC versions — after the structures
// changed and before the record commits, so a transaction that validated a
// key either sees the bump or finds the record in its conflict window — and
// bring the block cache up to date (cachePublish): the one place that owns
// its coherence, for a Put, an MPut's fan-out, a transaction commit and a
// replicated record alike. When a sub-op's apply fails, visible reports
// whether any of the set can still be seen in the structures (the failing one
// is retracted if it was the first and left no trace). t, when measuring,
// receives Breakdown's meta and tree boundaries; a standby passes nil.
func (s *Store) applyOwned(subs []subOp, t *stageNs) (visible bool, err error) {
	var metaDone *int64
	if t != nil && t.measure {
		metaDone = &t.metaDone
	}
	for i := range subs {
		s.readers.awaitZero(subs[i].key)
	}
	// An overwrite — a put-shaped update of a name the pool phase found
	// indexed — rewrites its slot and never looks at the index (OE: the zone
	// needs no tree lock, §3.7); everything else takes the index lock.
	index := false
	for i := range subs {
		index = index || !(subs[i].indexed && putShaped(subs[i].op))
	}
	if index {
		s.treeMu.Lock()
	}
	var stripes uint64 // zoneMu indices to hold; several slots can share one
	for i := range subs {
		u := &subs[i]
		slot, ok := u.slot, u.indexed || putShaped(u.op)
		if !ok {
			slot, ok = s.front.tree.Get(u.name)
		}
		if ok {
			stripes |= 1 << (slot % uint64(len(s.zoneMu)))
		}
	}
	for m := stripes; m != 0; m &= m - 1 {
		s.zoneMu[bits.TrailingZeros64(m)].Lock()
	}
	for i := range subs {
		if err = s.front.apply(&subs[i], metaDone); err != nil {
			visible = i > 0 || !s.front.retract(&subs[i])
			break
		}
	}
	for m := stripes; m != 0; m &= m - 1 {
		s.zoneMu[bits.TrailingZeros64(m)].Unlock()
	}
	if index {
		s.treeMu.Unlock()
	}
	if metaDone != nil {
		t.applied = nowNs()
	}
	if err != nil {
		return visible, err
	}
	for i := range subs {
		s.vers.bump(subs[i].key)
		s.cachePublish(&subs[i])
	}
	return false, nil
}

// cachePublish makes the block cache say what the applied sub-op u made true:
// the entries of the version it displaced go (u.old, which the deferred free
// would only reach after the commit, and u.stale), and a put-shaped update
// that wrote content is published under its new blocks with the sums its
// metadata now records — write-through, so the read that follows an update
// hits instead of going back to the SSD for the bytes that just went there. A
// hit needs block id, checksum and length to equal the zone's current entry
// (DESIGN.md §9), and the sums were computed over exactly these bytes. The
// displaced entries go first because a write never evicts (cache.Publish): it
// fits in the room they leave or in room nobody uses, or stays out. A degraded
// store publishes nothing, as its reads insert nothing.
func (s *Store) cachePublish(u *subOp) {
	if s.bcache == nil {
		return
	}
	s.cacheInvalidate(u.old)
	s.cacheInvalidate(u.stale)
	if u.data == nil || !putShaped(u.op) || s.degraded.Load() {
		return
	}
	for i, b := range u.blocks {
		if p := s.span(u.data, i); p != nil && u.sums[i] != meta.SumUnverified {
			s.bcache.Publish(b, u.sums[i], p)
		}
	}
}
