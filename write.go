package dstore

import (
	"errors"
	"fmt"
	"maps"
	"math/bits"
	"slices"
	"sync"

	"dstore/internal/fault"
	"dstore/internal/meta"
	"dstore/internal/ssd"
	"dstore/internal/wal"
)

// This file is the write pipeline (paper Fig. 4). Every mutation of a store —
// Put, Delete, Open(OpenCreate), the extend and checksum-invalidation records
// behind WriteAt, a Scrub remap, the reserved prepare/decision objects, a
// transaction commit, each sub-op of an MPut or MDelete — is a write set of
// N ≥ 1 sub-operations under one WAL record, and Store.write runs the nine
// steps once for a batch of such sets:
//
//	① lock pools ② append+flush log record ③ allocate blocks ④ allocate
//	metadata page ⑤ unlock ⑥ write metadata ⑦ write btree record ⑧ write
//	data to SSD ⑨ commit and flush log record.
//
// Content goes first (③ and ⑧, dataPhase): it is submitted to the SSD before
// ①, the device works while ①–⑤ run, and the pass waits for it (landData)
// only before ⑥ publishes its blocks — they are invisible until then, and
// the free pools are DRAM rebuilt at open, so a crash leaks nothing. A
// single Put, Delete or transaction commit is the batch of one. What differs
// between opcodes is in opTable; ⑥–⑦ are plane.apply, the code replay runs.

// writeSet is what one record commits. A single-object mutation is the
// one-entry case: the record carries the sub-op's own opcode and name. A
// transaction wraps its write set in one opTxnCommit record under a reserved
// name and adds the read set to validate (DESIGN.md §12).
type writeSet struct {
	op     uint16 // the record's opcode
	name   []byte // the record's name
	subs   []subOp
	params []byte                 // the record parameters' buffer; a pooled oneWrite keeps it between writes
	locks  map[string]*wal.Handle // the caller's own olocks: skipped by CC and read validation, never waited on for log space

	txnid uint64
	reads map[string]readVer // OCC read set, validated atomically with the append

	h      *wal.Handle // the record, from its append until it settles
	err    error       // the set's verdict
	reruns uint8       // how often a bad block sent its content back (errResend); at most twice
}

// opDesc is everything the pipeline needs to know about one opcode; nil
// entries mean "nothing to do". The sub-ops handed to them already live on
// the heap (a pooled oneWrite, a transaction's slice), so passing pointers
// through these function values costs nothing.
type opDesc struct {
	// encode and decode are the record-parameter codec; encode reuses b.
	encode func(b []byte, u *subOp, physPad int) []byte
	decode func(payload []byte) (subOp, error)
	// pool is the pool phase (steps ③–④), run under poolMu and
	// treeMu.RLock: take the allocations, record them and what the index
	// said about the name; unpoolLocked returns them.
	pool func(s *Store, u *subOp) error
	// owned runs once the append made this writer the name's sole owner
	// (CC): read what the apply will displace, and refuse — ErrNotFound,
	// errStale — when the record turns out to have nothing to act on.
	owned func(s *Store, u *subOp) error
}

var opTable = [...]opDesc{
	opPut:      {encodeAllocPayload, decodePutPayload, (*Store).putPoolLocked, (*Store).putOwned},
	opCreate:   {encodeAllocPayload, decodePutPayload, (*Store).putPoolLocked, (*Store).putOwned},
	opTxnBegin: {encodeAllocPayload, decodePutPayload, (*Store).putPoolLocked, (*Store).putOwned},
	opExtend:   {encodeAllocPayload, decodePutPayload, (*Store).extendPool, nil},
	opDelete:   {owned: (*Store).deleteOwned},
	opTxnAbort: {owned: (*Store).deleteOwned},
	opInval:    {encodeInvalPayload, decodeInvalPayload, nil, (*Store).invalOwned},
	opRemap:    {encodeRemapPayload, decodeRemapPayload, nil, (*Store).remapOwned},
	opNoop:     {},
}

// errStale is an owned check's verdict that the object changed between the
// caller's look and the append: the record is moot, not wrong.
var errStale = errors.New("dstore: object changed underneath")

// ------------------------------------------------------------- pool phases

// putPoolLocked is the pool phase of a whole-object write: the slot (reused
// when the object exists) and, without content, fresh blocks — content took
// its blocks in the data phase. Data always goes out of place, so a crash
// before commit leaves the old version untouched; its blocks are read once
// the record is appended (putOwned) and freed only after commit.
func (s *Store) putPoolLocked(u *subOp) error {
	var ok bool
	if u.slot, ok = s.slotOf(u); !ok {
		slot, err := s.slotPool.Get()
		if err != nil {
			return fmt.Errorf("dstore: out of metadata slots: %w", err)
		}
		u.slot = slot
	}
	u.indexed, u.newSlot = ok, !ok
	if u.data != nil {
		return nil
	}
	return s.growBlocksLocked(u, blocksFor(u.size, blockSize))
}

// slotOf finds the slot the index maps u's name to: through the slot hint as
// a point read takes it (readLookup), otherwise through the B+ tree, whose
// answer becomes the hint. The probe before the pool phase showed that no
// unsettled record names u, so no create's apply is writing the name into a
// slot the index does not map it to — the one state in which a slot records
// a name the index maps elsewhere. Caller holds poolMu and treeMu.RLock.
func (s *Store) slotOf(u *subOp) (uint64, bool) {
	var eb entryBuf
	hash := wal.NameHash(u.key)
	if slot, _, ok := s.viaHint(u.key, hash, &eb); ok {
		return slot, true
	}
	slot, ok := s.front.tree.Get(u.name)
	if ok {
		s.hints.bucket(hash).Store(hint(hash, slot))
	}
	return slot, ok
}

// extendPool builds the grow-allocation for opExtend: the existing block
// list and checksums (the probe before it showed no same-name writer in
// flight) plus fresh, unverified blocks to reach the new size. Nothing is
// displaced.
func (s *Store) extendPool(u *subOp) error {
	slot, ok := s.front.tree.Get(u.name)
	if !ok {
		return fmt.Errorf("dstore: extend of unknown object %q", u.name)
	}
	e, used, err := s.zoneRead(slot, nil)
	if err != nil {
		return err
	}
	if !used {
		return fmt.Errorf("dstore: index entry %q points at free slot %d", u.name, slot)
	}
	u.slot, u.indexed, u.newSlot = slot, true, false
	u.blocks, u.sums = e.Blocks, e.Sums
	if err := s.growBlocksLocked(u, blocksFor(u.size, blockSize)); err != nil {
		return err
	}
	for len(u.sums) < len(u.blocks) {
		u.sums = append(u.sums, meta.SumUnverified)
	}
	return nil
}

// growBlocksLocked allocates until u.blocks holds need blocks, remembering
// the new tail as u.fresh. On failure the blocks it took go back.
func (s *Store) growBlocksLocked(u *subOp, need uint64) error {
	if most := s.front.zone.MaxBlocks(); need > most {
		return fmt.Errorf("dstore: object %q needs %d blocks, max %d", u.name, need, most)
	}
	had := len(u.blocks)
	u.blocks = slices.Grow(u.blocks, max(int(need)-had, 0))
	for uint64(len(u.blocks)) < need {
		b, err := s.blockPool.Get()
		if err != nil {
			s.freeBlocksLocked(u.blocks[had:])
			u.blocks, u.fresh = u.blocks[:had], nil
			return fmt.Errorf("dstore: out of blocks: %w", err)
		}
		u.blocks = append(u.blocks, b)
	}
	u.fresh = u.blocks[had:]
	return nil
}

// unpoolLocked returns what u's pool phase took, so the phase can run again:
// a new slot, and the blocks of a sub-op without content (one with content
// keeps its blocks: they hold its data). Caller holds poolMu.
func (s *Store) unpoolLocked(u *subOp) {
	if u.data == nil {
		s.freeBlocksLocked(u.fresh)
		u.fresh = nil
	}
	if u.newSlot {
		s.slotPool.Put(u.slot) //nolint:errcheck
	}
	u.newSlot = false
}

// releaseLocked returns all of a dead set's allocations. Caller holds poolMu.
func (s *Store) releaseLocked(w *writeSet) {
	for i := range w.subs {
		s.unpoolLocked(&w.subs[i])
		s.freeBlocksLocked(w.subs[i].fresh)
		w.subs[i].fresh = nil
	}
}

// release is releaseLocked from outside the pool lock.
func (s *Store) release(w *writeSet) {
	s.poolMu.Lock()
	s.releaseLocked(w)
	s.poolMu.Unlock()
}

// rewind returns a released set to what its caller built, so it can run
// again on fresh blocks: what the pool phases, the owned checks and the data
// phase derived goes. A remap keeps the slot and the block its caller named.
func (w *writeSet) rewind() {
	for i := range w.subs {
		u := &w.subs[i]
		r := subOp{op: u.op, name: u.name, size: u.size, sums: u.sums, idxs: u.idxs, key: u.key, data: u.data}
		if u.op == opRemap {
			r.slot, r.old = u.slot, u.old
		}
		*u = r
	}
}

// ------------------------------------------------------------ owned checks

// lookup resolves name through the index to its slot and entry, making the
// entry's copy in buf (zoneRead); the read paths pass stack room.
func (s *Store) lookup(name []byte, buf *entryBuf) (uint64, meta.Entry, error) {
	s.treeMu.RLock()
	slot, ok := s.front.tree.Get(name)
	s.treeMu.RUnlock()
	if !ok {
		return 0, meta.Entry{}, ErrNotFound
	}
	e, used, err := s.zoneRead(slot, buf)
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
		if e, used, err := s.zoneRead(u.slot, nil); err == nil && used {
			u.old = e.Blocks
		}
	}
	return nil
}

// deleteOwned finds what a delete removes: the slot and its blocks, both
// freed after commit (a crash in between leaks nothing — pool reconstitution
// at recovery returns unreferenced ids to the free sets).
func (s *Store) deleteOwned(u *subOp) error {
	slot, e, err := s.lookup(u.name, nil)
	if err == nil {
		u.slot, u.indexed, u.freeSlot, u.old = slot, true, true, e.Blocks
	}
	return err
}

// invalOwned names the cached copies an invalidation makes stale. (The
// metadata will say SumUnverified, so readers would not probe the cache for
// these blocks anyway; the eager drop reclaims the DRAM.)
func (s *Store) invalOwned(u *subOp) error {
	slot, e, err := s.lookup(u.name, nil)
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
	slot, e, err := s.lookup(u.name, nil)
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

// stageNs are one pass's Table 3 timings.
type stageNs struct {
	measure                    bool
	pool, log, ssd, meta, tree int64 // accumulated durations (retries included)
	applyAt, metaDone, applied int64 // one apply's start; its metadata half done; structures unlocked
}

// now is the clock when measuring, else 0.
func (t *stageNs) now() int64 {
	if t.measure {
		return nowNs()
	}
	return 0
}

// oneWrite is a single-object mutation's write set together with its one
// entry. They are pooled rather than built on the caller's stack: opTable's
// function values force whatever they are handed onto the heap, and the
// alternative — passing sub-ops down the pipeline by value — made its frames
// deep enough to push every write on a fresh goroutine (the server runs one
// per request) through an extra stack growth, 15% of net_a's throughput.
type oneWrite struct {
	writeSet
	one [1]subOp
}

var oneWrites = sync.Pool{New: func() any { return new(oneWrite) }}

// single starts the one-entry write set of a mutation of key, whose record
// carries the sub-op's own opcode and name; locks are the caller's own
// olocks, or nil. The caller fills in w.one[0] and hands w to writeOne, or
// to write and then recycle.
func (s *Store) single(op uint16, key string, locks map[string]*wal.Handle) *oneWrite {
	w := oneWrites.Get().(*oneWrite)
	w.one[0] = subOp{op: op, key: key, name: []byte(key)}
	w.writeSet = writeSet{op: op, name: w.one[0].name, locks: locks, subs: w.one[:], params: w.params}
	return w
}

// recycle pools w again; a pooled description must not pin the caller's value.
func recycle(w *oneWrite) {
	*w = oneWrite{writeSet: writeSet{params: w.params}}
	oneWrites.Put(w)
}

// writeOne runs the pipeline for w alone and recycles it.
func (s *Store) writeOne(w *oneWrite) error {
	err := s.write1(&w.writeSet)
	recycle(w)
	return err
}

// write1 runs the pipeline for the batch of one.
func (s *Store) write1(w *writeSet) error {
	sets := [1]*writeSet{w}
	s.write(sets[:])
	return w.err
}

// pass is a pipeline run's scratch, pooled so a batch of one allocates none:
// the data phase's requests with the set and block behind each, their
// submission while it is in flight, and the records one commit settles.
type pass struct {
	reqs    []ssd.Write
	sent    []sentReq
	pending *ssd.Pending
	redo    bool // landData sent a set back
	hs      []*wal.Handle
}

// sentReq is the set and the block behind one request of a submission.
type sentReq struct {
	w *writeSet
	b uint64
}

var passes = sync.Pool{New: func() any { return new(pass) }}

// write runs Fig. 4 once for a batch of write sets, each its own record, and
// leaves each set's verdict in its err: the data phase for all of them, then
// appendSets and settleSets for prefix after prefix. The pass never waits
// while it holds a record it appended: a set that must wait — for another
// writer's record, for the pass's own (a name named twice), for log space —
// ends the section, and the prefix settles first. A set whose content a bad
// block refused goes again, on fresh blocks, ahead of the sets after its
// prefix, so a name named twice keeps its order. Nothing here touches the
// WAL from a defer: the crash sweeps model power loss as a panic mid-append,
// and unwinding must not re-enter the log.
func (s *Store) write(sets []*writeSet) {
	if err := s.checkWritable(); err != nil {
		for _, w := range sets {
			w.err = err
		}
		return
	}
	t := stageNs{measure: s.cfg.Breakdown}
	t0 := t.now()
	p := passes.Get().(*pass)
	// Without OE one global lock serializes the whole metadata section (§3.7,
	// Fig. 9 "+OE" ablation); the commit's flush stays outside it either way.
	serial := s.cfg.DisableOE
	if serial {
		s.globalMu.Lock()
	}
	s.dataPhase(sets, p, &t)
	retry, committed := appendRetry{}, 0
	for rest := sets; len(rest) > 0; {
		n, wait, err := s.appendSets(rest, &t)
		committed += s.settleSets(rest[:n], p, &t, serial)
		back := sendBack(rest[:n])
		if rest = rest[n-back:]; wait != nil {
			wait.Wait()
		} else if err != nil {
			retry.locks = rest[back].locks // the refused set's own olocks
			if err = s.appendFailed(err, &retry); err != nil {
				for _, w := range rest {
					if w.err == nil || w.err == errResend {
						w.err = err
					}
					s.release(w) // a no-op for a set already released
				}
				break
			}
		}
		if p.redo {
			resend := slices.DeleteFunc(slices.Clone(rest), func(w *writeSet) bool { return w.err != errResend })
			s.dataPhase(resend, p, &t)
		}
	}
	if serial {
		s.globalMu.Unlock()
	}
	clear(p.reqs)
	clear(p.sent)
	*p = pass{reqs: p.reqs[:0], sent: p.sent[:0], hs: p.hs[:0]}
	passes.Put(p)
	if t.measure && committed > 0 {
		s.bd.count.Add(uint64(committed))
		s.bd.poolNs.Add(uint64(t.pool))
		s.bd.logNs.Add(uint64(t.log))
		s.bd.ssdNs.Add(uint64(t.ssd))
		s.bd.metaNs.Add(uint64(t.meta))
		s.bd.treeNs.Add(uint64(t.tree))
		s.bd.totalNs.Add(uint64(nowNs() - t0))
	}
}

// dataPhase is step ⑧, before any of its sets' records exists: a
// transaction whose read set is already stale is refused without a write
// (appendSets validates again, atomically with the append); every sub-op
// with content takes its fresh blocks in one pool-lock section, and all the
// content goes to the SSD in one submission, which the pass waits for only
// before its first apply (landData). A set landData sent back is released
// and rewound first. A set that finds no blocks gets its verdict and its
// blocks go back.
func (s *Store) dataPhase(sets []*writeSet, p *pass, t *stageNs) {
	t0 := t.now()
	p.reqs, p.sent, p.redo = p.reqs[:0], p.sent[:0], false
	for _, w := range sets {
		if w.reads != nil && w.err == nil {
			w.err = s.validateReads(w.reads, w.locks)
		}
	}
	s.poolMu.Lock()
	for _, w := range sets {
		if w.err == errResend {
			s.releaseLocked(w) // a no-op if settleSets aborted its record
			w.err = nil
			w.rewind()
		}
		for i := range w.subs {
			if u := &w.subs[i]; w.err == nil && u.data != nil {
				w.err = s.growBlocksLocked(u, blocksFor(uint64(len(u.data)), blockSize))
			}
		}
		if w.err != nil {
			s.releaseLocked(w)
			continue
		}
		for i := range w.subs {
			for j, b := range w.subs[i].fresh {
				p.reqs = append(p.reqs, ssd.Write{Off: s.dataOff(b), P: s.span(w.subs[i].data, j)})
				p.sent = append(p.sent, sentReq{w, b})
			}
		}
	}
	s.poolMu.Unlock()
	if len(p.reqs) > 0 {
		p.pending = s.data.Submit(p.reqs)
	}
	t.ssd += t.now() - t0
}

// landData waits for the pass's submission, if one is in flight — the device
// time its appends did not cover — and reads its verdicts. A transient error
// is retried in place (ssdSettle): the block is the one the record names, and
// nothing reads it yet. A permanent one quarantines the block and sends its
// set back (errResend), at most twice: settleSets aborts its record, if it
// has one, and the set goes again on fresh blocks ahead of the sets after it.
// A set whose content still fails gets its verdict.
func (s *Store) landData(p *pass, t *stageNs) {
	if p.pending == nil {
		return
	}
	t0 := t.now()
	s.ssdSettle(p.pending, p.reqs) //nolint:errcheck // each request's verdict is in its Err
	p.pending = nil
	for k, r := range p.reqs {
		if r.Err == nil {
			continue
		}
		w, b, permanent := p.sent[k].w, p.sent[k].b, fault.IsPermanent(r.Err)
		if permanent {
			s.quarantineBlock(b)
		}
		if w.err == nil && permanent && w.reruns < 2 {
			w.err, w.reruns, p.redo = errResend, w.reruns+1, true
		} else if w.err == nil {
			w.err = fmt.Errorf("dstore: data write to block %d: %w", b, r.Err)
		}
	}
	t.ssd += t.now() - t0
}

// errResend is landData's verdict on a set whose content a bad block
// refused: the set goes again (dataPhase).
var errResend = errors.New("dstore: content refused; sent again on fresh blocks")

// sendBack moves the sets of a settled prefix that landData sent back to its
// end, keeping their order and the others', and returns how many: they go
// again ahead of the sets after the prefix.
func sendBack(done []*writeSet) int {
	var back []*writeSet
	k := 0
	for _, w := range done {
		if w.err == errResend {
			back = append(back, w)
		} else {
			done[k], k = w, k+1
		}
	}
	copy(done[k:], back)
	return len(back)
}

// appendSets is steps ①–⑤ for as long a prefix of sets as one pool-lock
// section takes: for each set in order it probes the set's names, validates
// its read set, runs its pool phases and appends its record, so a conflicting
// writer either appended before (the probe or validateReads sees it) or
// serializes after this record. A set its own phases refuse gets its verdict,
// its pool phases are undone — its content blocks go back once settled, as
// the device may still be writing them — and the section goes on; it ends at
// the first set that must wait for a record (wait) or whose append the log
// refuses (err), that set's pool phases undone. n sets are through.
//
// The probe comes before the pool phase because that phase reads the index
// before the append scans the window: a same-name writer that appended, then
// applied and settled between the two, would be missed, and this writer would
// insert name → fresh slot over the other's slot or write a slot a delete's
// deferred free hands back. Every data record is appended under poolMu, so
// "no unsettled record names X" holds from the probe to this writer's own
// append. On a quiet filter stripe the probe is one atomic load; it also finds
// a record this section appended for the same name.
func (s *Store) appendSets(sets []*writeSet, t *stageNs) (n int, wait *wal.Handle, err error) {
	t0, log0 := t.now(), t.log // the section's time less its appends is pool time
	s.poolMu.Lock()
	for ; n < len(sets); n++ {
		w := sets[n]
		if w.err != nil {
			continue
		}
		if wait = s.unsettled(w); wait != nil {
			break
		}
		if w.err = s.validateReads(w.reads, w.locks); w.err == nil {
			w.err = s.poolPhases(w.subs)
		}
		if w.err == nil {
			payload, ta := encodeRecord(w, s.physPad()), t.now()
			w.h, wait, err = s.eng.Pair().AppendIgnore(w.op, w.name, payload, heldLSN(w.locks, string(w.name)))
			t.log += t.now() - ta
		}
		if w.h == nil {
			for i := range w.subs {
				s.unpoolLocked(&w.subs[i])
			}
		}
		if w.h == nil && w.err == nil {
			break
		}
	}
	if n > 0 {
		s.eng.MaybeTrigger()
	}
	s.poolMu.Unlock()
	t.pool += t.now() - t0 - (t.log - log0)
	return n, wait, err
}

// settleSets is steps ⑥–⑨ for the sets one append section took. Each set
// owns its names once appended (CC), so the owned checks snapshot what the
// applies will displace, while the device still works; once the pass's
// content has landed (landData), one applyOwned applies the live sets and
// one group commit settles them, and only then does what they unhooked go
// back to the pools.
// A refused set's record is aborted and its allocations go back. It returns
// how many sets committed; under serial (no OE) globalMu is held except
// across the commit.
func (s *Store) settleSets(sets []*writeSet, p *pass, t *stageNs, serial bool) int {
	t0 := t.now()
	for _, w := range sets {
		for i := range w.subs {
			// A transaction's delete of an absent key is tolerated, like
			// the replay of its record.
			if own := opTable[w.subs[i].op].owned; own != nil && w.h != nil && w.err == nil {
				if err := own(s, &w.subs[i]); err != nil && !(w.op == opTxnCommit && errors.Is(err, ErrNotFound)) {
					w.err = err
				}
			}
		}
	}
	t.meta += t.now() - t0
	s.landData(p, t)
	t.applyAt = t.now()
	// One policy for a failed apply. The record dies either way: the failure
	// is as deterministic as its usual cause, an exhausted index arena, so a
	// committed record would fail every replay too. If nothing of the set can
	// be seen its allocations go back; if part of it is in the frontend
	// structures they match no durable state, so the store stops taking
	// writes until a reopen rebuilds them.
	stuck := s.applyOwned(sets, t)
	if stuck != nil {
		s.degrade(stuck.err)
	}
	if t.measure {
		if t.metaDone < t.applyAt { // no put-shaped sub-op: the apply was all metadata
			t.metaDone = t.applied
		}
		t.meta, t.tree = t.meta+t.metaDone-t.applyAt, t.tree+t.applied-t.metaDone
	}
	p.hs = p.hs[:0]
	for _, w := range sets {
		switch {
		case w.h != nil && w.err != nil:
			s.abort(w.h)
			if w.h = nil; w != stuck {
				s.release(w)
			}
		case w.h != nil:
			p.hs = append(p.hs, w.h)
		case w.err != nil:
			s.release(w) // refused before its append; a no-op if already released
		}
	}
	if len(p.hs) == 0 {
		return 0
	}
	// Step ⑨: only now are the operations durable. On failure the store is
	// degraded and durability indeterminate; the displaced blocks stay out of
	// circulation (no more writes will need them anyway).
	if serial {
		s.globalMu.Unlock()
	}
	err := s.commit(p.hs...)
	if serial {
		s.globalMu.Lock()
	}
	s.poolMu.Lock()
	for _, w := range sets {
		for i := range w.subs {
			if u := &w.subs[i]; w.h != nil && err == nil {
				s.freeBlocksLocked(u.old)
				if u.freeSlot {
					s.slotPool.Put(u.slot) //nolint:errcheck
				}
			}
		}
		if w.h != nil {
			w.h, w.err = nil, err
		}
	}
	s.poolMu.Unlock()
	if clear(p.hs); err != nil {
		return 0
	}
	return len(p.hs)
}

// appendRetry is one append loop's state across the log's refusals: the
// caller's olocks, its device retries, whether it last checkpointed.
type appendRetry struct {
	locks        map[string]*wal.Handle
	dev          int
	checkpointed bool
}

// appendFailed is the store's one answer when the log refuses a record for
// any reason but a CC conflict (data appends, olocks, a standby's committed
// appends); nil means "append again". Log full → a foreground checkpoint, or
// refusal when checkpoints are disabled; a failed checkpoint degrades the
// store. Still full after it → wait, as for a CC conflict, for the oldest
// unsettled record, from which the swap kept the log; if it is the caller's
// own olock, or no empty log holds the record, refuse (wal.ErrLogFull).
// Transient device error → bounded backoff. Other device error → degrade.
func (s *Store) appendFailed(err error, r *appendRetry) error {
	switch {
	case errors.Is(err, wal.ErrLogFull) && !errors.Is(err, wal.ErrNeverFits):
		if s.cfg.DisableCheckpoints {
			return fmt.Errorf("dstore: log full with checkpoints disabled")
		}
		if h := s.eng.Pair().Head(); r.checkpointed && h != nil {
			if slices.Contains(slices.Collect(maps.Values(r.locks)), h) {
				return fmt.Errorf("dstore: %w: pinned by the caller's own lock", wal.ErrLogFull)
			}
			r.checkpointed = false
			h.Wait()
			return nil
		}
		t0 := nowNs()
		cerr := s.eng.Checkpoint()
		s.ops.fgCkpts.Add(1)
		s.ops.fgCkptNs.Add(uint64(nowNs() - t0))
		if cerr != nil {
			s.degrade(cerr)
			return fmt.Errorf("%w: checkpoint: %v", ErrDegraded, cerr)
		}
		r.checkpointed = true
		return nil
	case isTransientRetry(err, &r.dev):
		return nil
	case isDeviceErr(err):
		s.degrade(err)
		return fmt.Errorf("%w: log append: %v", ErrDegraded, err)
	}
	return err
}

// olock appends an uncommitted NOOP record naming name (the §4.5 olock) —
// the one olock loop, for Ctx.Lock and a transaction's write keys. Like a
// data append it waits out a conflicting record and asks appendFailed about
// any other refusal (held: the caller's olocks); it touches no pool, so it
// runs outside poolMu.
func (s *Store) olock(name string, held map[string]*wal.Handle) (*wal.Handle, error) {
	retry := appendRetry{locks: held}
	for {
		h, conflict, err := s.eng.Pair().Append(opNoop, []byte(name), nil)
		if err == nil && conflict == nil {
			s.eng.MaybeTrigger()
			return h, nil
		}
		if conflict != nil {
			conflict.Wait()
		} else if err = s.appendFailed(err, &retry); err != nil {
			return nil, err
		}
	}
}

// unsettled returns another writer's unsettled record naming one of w's
// objects, if any. The writer's own olock on a name (w.locks) does not count.
func (s *Store) unsettled(w *writeSet) *wal.Handle {
	for i := range w.subs {
		if h := s.eng.Pair().FindConflictIgnore(w.subs[i].name, heldLSN(w.locks, w.subs[i].key)); h != nil {
			return h
		}
	}
	return nil
}

// poolPhases runs every sub-op's pool phase, stopping at the first that
// fails (the caller releases the set). Caller holds poolMu.
func (s *Store) poolPhases(subs []subOp) (err error) {
	s.treeMu.RLock()
	for i := 0; i < len(subs) && err == nil; i++ {
		if pool := opTable[subs[i].op].pool; pool != nil {
			err = pool(s, &subs[i])
		}
	}
	s.treeMu.RUnlock()
	return err
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
// — on a primary for the sets of one append section, on a standby for a
// shipped record once logged (repl.go): drain the readers that entered before
// the records became visible (§4.4), empty the slot hint of every name that
// may move (readers.go), take the index lock (unless all are overwrites) and
// the zone stripes (DESIGN.md §11), apply in record order, bump the OCC
// versions before the records commit (a transaction that validated a key
// either sees the bump or finds the record in its conflict window), and bring
// the block cache up to date (cachePublish). Sets with a verdict are skipped.
// A set whose apply fails gets the error; if some of it can still be seen (a
// failing first sub-op that left no trace is retracted) it is returned as
// stuck, and no later set applies. t receives Breakdown's apply boundaries
// when measuring; a standby passes nil.
func (s *Store) applyOwned(sets []*writeSet, t *stageNs) (stuck *writeSet) {
	var metaDone *int64
	if t != nil && t.measure {
		metaDone = &t.metaDone
	}
	// An overwrite — a put-shaped update of a name the pool phase found
	// indexed — rewrites its slot and never looks at the index (OE: the zone
	// needs no tree lock, §3.7); everything else takes the index lock and,
	// once the name's readers are out, empties the name's slot hint.
	index := false
	for _, w := range sets {
		for i := 0; i < len(w.subs) && w.err == nil; i++ {
			u := &w.subs[i]
			hash := wal.NameHash(u.key)
			s.readers.awaitZero(hash)
			if !(u.indexed && putShaped(u.op)) {
				index = true
				s.hints.bucket(hash).Store(0)
			}
		}
	}
	if index {
		s.treeMu.Lock()
	}
	var stripes uint64 // zoneMu indices to hold; several slots can share one
	for _, w := range sets {
		for i := 0; i < len(w.subs) && w.err == nil; i++ {
			u := &w.subs[i]
			slot, ok := u.slot, u.indexed || putShaped(u.op)
			if !ok {
				slot, ok = s.front.tree.Get(u.name)
			}
			if ok {
				stripes |= 1 << (slot % uint64(len(s.zoneMu)))
			}
		}
	}
	for m := stripes; m != 0; m &= m - 1 {
		s.zoneMu[bits.TrailingZeros64(m)].Lock()
	}
	for _, w := range sets {
		if w.err == nil && stuck != nil {
			w.err = fmt.Errorf("%w: %v", ErrDegraded, stuck.err)
		}
		for i := 0; i < len(w.subs) && w.err == nil; i++ {
			if w.err = s.front.apply(&w.subs[i], metaDone); w.err != nil && (i > 0 || !s.front.retract(&w.subs[i])) {
				stuck = w
			}
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
	for _, w := range sets {
		for i := 0; i < len(w.subs) && w.err == nil; i++ {
			s.vers.bump(w.subs[i].key)
			s.cachePublish(&w.subs[i])
		}
	}
	return stuck
}

// cachePublish makes the block cache say what the applied sub-op u made true
// — the one place that owns its coherence: the entries of the version it
// displaced go (u.old and u.stale), and a put-shaped update that wrote
// content is published under its new blocks with the sums its metadata now
// records (write-through, DESIGN.md §9), so the read that follows an update
// hits. The displaced entries go first because a write never evicts
// (cache.Publish). A degraded store publishes nothing, as its reads insert
// nothing.
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
