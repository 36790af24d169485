package dstore

import (
	"encoding/binary"
	"fmt"

	"dstore/internal/alloc"
	"dstore/internal/btree"
	"dstore/internal/meta"
	"dstore/internal/pool"
	"dstore/internal/wal"
)

// Logged operation codes (paper §4.3: "We write log records for oopen,
// owrite, oput, and odelete operations"). opNoop backs olock/ounlock (§4.5).
// opInval and opRemap support the end-to-end integrity layer: opInval
// durably invalidates the checksums of blocks about to be overwritten in
// place (so recovery never sees a stale sum over new data), and opRemap
// repoints one object block at a relocation target (scrub repair migrating
// data off a quarantined block).
const (
	opPut    uint16 = 1
	opDelete uint16 = 2
	opCreate uint16 = 3
	opExtend uint16 = 4
	opNoop   uint16 = 5
	opInval  uint16 = 6
	opRemap  uint16 = 7
	// Transaction records (DESIGN.md §12). opTxnCommit is the atomic point of
	// a multi-key commit: its payload carries the whole write set as put and
	// delete sub-operations and replay applies them all or — when the record
	// never committed — none. opTxnBegin durably stores a cross-shard prepare
	// object and replays exactly like opPut; opTxnAbort deletes one and
	// replays exactly like opDelete. A transaction without a committed
	// opTxnCommit record leaves no durable trace: buffered writes are
	// DRAM-only and its olock records are opNoop.
	opTxnBegin  uint16 = 8
	opTxnCommit uint16 = 9
	opTxnAbort  uint16 = 10
)

// Allocator root slots holding the control-plane structure offsets.
const (
	rootTree      = 0
	rootZone      = 1
	rootBlockPool = 2
	rootSlotPool  = 3
)

// plane bundles the control-plane structures rooted in one arena. The same
// plane code operates on the DRAM frontend and on PMEM shadow clones during
// checkpoint replay — DIPPER's same-code property.
type plane struct {
	al        *alloc.Allocator
	tree      *btree.Tree
	zone      *meta.Zone
	blockPool *pool.Pool
	slotPool  *pool.Pool
}

// bootstrapPlane builds fresh structures in an empty arena.
func bootstrapPlane(al *alloc.Allocator, blocks, maxObjects, maxName, maxBlocks uint64) error {
	_, treeHdr, err := btree.New(al)
	if err != nil {
		return err
	}
	_, zoneOff, err := meta.New(al, maxObjects, maxName, maxBlocks)
	if err != nil {
		return err
	}
	_, bpOff, err := pool.New(al, blocks, blocks)
	if err != nil {
		return err
	}
	_, spOff, err := pool.New(al, maxObjects, maxObjects)
	if err != nil {
		return err
	}
	al.SetRoot(rootTree, treeHdr)
	al.SetRoot(rootZone, zoneOff)
	al.SetRoot(rootBlockPool, bpOff)
	al.SetRoot(rootSlotPool, spOff)
	return nil
}

// openPlane attaches to the structures rooted in al. The zone geometry is
// media-derived, so attaching can fail with meta.ErrCorrupt.
func openPlane(al *alloc.Allocator) (*plane, error) {
	zone, err := meta.Open(al, al.Root(rootZone))
	if err != nil {
		return nil, err
	}
	return &plane{
		al:        al,
		tree:      btree.Open(al, al.Root(rootTree)),
		zone:      zone,
		blockPool: pool.Open(al, al.Root(rootBlockPool)),
		slotPool:  pool.Open(al, al.Root(rootSlotPool)),
	}, nil
}

func blocksFor(size, blockSize uint64) uint64 {
	return (size + blockSize - 1) / blockSize
}

// subOp is one structure update in decoded form: what a logged record — or
// one sub-operation of an opTxnCommit record — tells a plane to do. The
// frontend fills it in during its pool phase and encodes it into the record
// it appends; checkpoint replay, recovery and the standby decode it back out
// of the record; all four hand it to plane.apply, so there is one piece of
// code that changes a metadata zone or an index (DIPPER's same-code property,
// §3.2). opTable says how each opcode fills, encodes and decodes one.
type subOp struct {
	op     uint16
	name   []byte
	size   uint64   // put-shaped: the logical size
	slot   uint64   // put-shaped: the metadata slot
	blocks []uint64 // put-shaped: the block list; opRemap: the one relocation target
	sums   []uint32 // per-block CRC32C parallel to blocks; nil when content is unknown
	idxs   []int    // opInval: block indices to invalidate; opRemap: the one index to repoint

	// The frontend's working state (write.go). Never logged: a decoded
	// record leaves it zero, except for the standby's key, data and stale.
	key      string   // name, as the string the CC tables key on
	data     []byte   // content for the fresh blocks; nil when the op writes none
	fresh    []uint64 // blocks this op allocated, returned if it dies
	newSlot  bool     // the pool phase found name absent and allocated slot
	indexed  bool     // the index is known to map name to slot
	old      []uint64 // blocks the apply unhooks, freed after commit
	freeSlot bool     // the apply clears slot, freed after commit
	stale    []uint64 // further blocks whose cached copies the apply makes stale
}

// putShaped reports whether op replaces a slot's whole metadata entry: the
// opcodes sharing encodeAllocPayload, and the put kind of a transaction
// sub-operation.
func putShaped(op uint16) bool {
	switch op {
	case opPut, opCreate, opExtend, opTxnBegin:
		return true
	}
	return false
}

// lookup resolves name through the index to its slot and entry; ok is false
// when the name is absent (or indexed at a slot that reads as free, which a
// later committed record will have superseded).
func (p *plane) lookup(name []byte) (slot uint64, e meta.Entry, ok bool, err error) {
	if slot, ok = p.tree.Get(name); ok {
		e, ok, err = p.zone.Read(slot)
	}
	return slot, e, ok, err
}

// apply performs one structure update — the statically-defined op→functions
// mapping of §3.2, and the only code that mutates a plane's metadata zone or
// index. Only explicit slot and block ids are used; the pools are not touched
// (the frontend's pool phase already took the allocations, and replay
// reconstitutes the pools from the zone when its batch ends). The caller
// provides synchronization appropriate to its space: the frontend and the
// standby hold treeMu and the zone stripes (Store.applyOwned), replay onto a
// private arena holds nothing. metaDone, when non-nil, receives the time a
// put-shaped update finished its metadata half (Fig. 4 step ⑥) and moved on
// to the index (step ⑦) — Breakdown's meta/tree boundary.
func (p *plane) apply(u *subOp, metaDone *int64) error {
	switch u.op {
	case opPut, opCreate, opExtend, opTxnBegin:
		if err := p.zone.Write(u.slot, u.name, u.size, u.blocks, u.sums); err != nil {
			return err
		}
		if metaDone != nil {
			*metaDone = nowNs()
		}
		// The frontend's pool phase already looked the name up; a decoded
		// record has to.
		if u.indexed {
			return nil
		}
		if !u.newSlot {
			if existing, ok := p.tree.Get(u.name); ok {
				if existing != u.slot {
					return fmt.Errorf("dstore: replay: %q maps to slot %d, record says %d", u.name, existing, u.slot)
				}
				return nil
			}
		}
		_, _, err := p.tree.Insert(u.name, u.slot)
		return err
	case opDelete, opTxnAbort:
		// Tolerant of the name being already gone: a later committed
		// delete or rewrite supersedes, and a transaction may delete a key
		// that never existed.
		slot, ok, err := p.tree.Delete(u.name)
		if err != nil || !ok {
			return err
		}
		return p.zone.Clear(slot)
	case opInval:
		// Checksum invalidation before an in-place overwrite. The object may
		// have been deleted or rewritten by later committed records; stale
		// indices are ignored (invalidating an already-unverified or
		// repointed block is harmless).
		slot, e, ok, err := p.lookup(u.name)
		if err != nil || !ok {
			return err
		}
		for _, i := range u.idxs {
			if i >= 0 && i < len(e.Blocks) {
				if err := p.zone.SetSum(slot, i, meta.SumUnverified); err != nil {
					return err
				}
			}
		}
		return nil
	case opRemap:
		// Scrub repair: repoint one block of the object at its relocation
		// target. Skipped when the object no longer exists or the index is
		// stale (a later committed rewrite supersedes the remap).
		slot, e, ok, err := p.lookup(u.name)
		idx := u.idxs[0]
		if err != nil || !ok || idx < 0 || idx >= len(e.Blocks) {
			return err
		}
		if err := p.zone.SetBlockID(slot, idx, u.blocks[0]); err != nil {
			return err
		}
		return p.zone.SetSum(slot, idx, u.sums[0])
	case opNoop:
		// olock/ounlock: ignored by replay (§4.5).
		return nil
	default:
		return fmt.Errorf("dstore: unknown op %d in log", u.op)
	}
}

// retract undoes a failed apply of u when that leaves no trace: the one
// invisible effect an update can have is a put-shaped metadata write to a
// slot the pool phase just allocated, which nothing indexes — provided the
// failed index insert really left the index as it found it (an insert that
// ran out of arena mid-split does not). Reports whether p is as it was.
func (p *plane) retract(u *subOp) bool {
	if !u.newSlot {
		return false
	}
	if _, ok := p.tree.Get(u.name); ok || p.tree.Check() != nil {
		return false
	}
	return p.zone.Clear(u.slot) == nil
}

// ------------------------------------------------------------- replay

// Payload codecs. A record's parameters are the operation inputs excluding
// data (paper §4.3) plus the allocation decisions — the metadata slot and
// block ids the frontend took — and, for content-bearing ops, the per-block
// CRC32C of the data (the value is in hand at append time, so the sums are
// reconstructible by any replay). Recording the ids keeps replay
// deterministic even when uncommitted (dead) records mutated the pools
// before a crash: replay applies each committed record's explicit
// allocations and reconstitutes the free pools from the metadata zone
// afterwards, instead of re-executing pool operations in log order.
// Physical-logging mode pads the payload with an image to model ARIES-style
// records (Fig. 9 baseline).
//
// allocLen is the encoded size of a put-shaped sub-op's parameters.
func allocLen(u *subOp) int { return 20 + 12*len(u.blocks) }

// putAllocPayload lays u's parameters down at the start of b.
func putAllocPayload(b []byte, u *subOp) {
	binary.LittleEndian.PutUint64(b[0:], u.size)
	binary.LittleEndian.PutUint64(b[8:], u.slot)
	binary.LittleEndian.PutUint32(b[16:], uint32(len(u.blocks)))
	so := 20 + 8*len(u.blocks)
	for i, blk := range u.blocks {
		binary.LittleEndian.PutUint64(b[20+8*i:], blk)
		if u.sums != nil {
			binary.LittleEndian.PutUint32(b[so+4*i:], u.sums[i])
		}
	}
}

// The encoders lay a record's parameters down in b, reusing its room: the
// log copies a payload out at the append, so a write keeps one buffer.
func encodeAllocPayload(b []byte, u *subOp, physPad int) []byte {
	b = append(b[:0], make([]byte, allocLen(u)+physPad)...)
	putAllocPayload(b, u)
	return b
}

func decodeAllocPayload(p []byte) (u subOp, err error) {
	if len(p) < 20 {
		return u, fmt.Errorf("dstore: short payload (%d bytes)", len(p))
	}
	u.size = binary.LittleEndian.Uint64(p[0:])
	u.slot = binary.LittleEndian.Uint64(p[8:])
	n := int(binary.LittleEndian.Uint32(p[16:]))
	if len(p) < 20+12*n {
		return u, fmt.Errorf("dstore: payload truncated (%d bytes for %d blocks)", len(p), n)
	}
	u.blocks = make([]uint64, n)
	u.sums = make([]uint32, n)
	so := 20 + 8*n
	for i := range u.blocks {
		u.blocks[i] = binary.LittleEndian.Uint64(p[20+8*i:])
		u.sums[i] = binary.LittleEndian.Uint32(p[so+4*i:])
	}
	return u, nil
}

// opInval payload: the block indices whose checksums must be invalidated.
func encodeInvalPayload(b []byte, u *subOp, _ int) []byte {
	b = binary.LittleEndian.AppendUint32(b[:0], uint32(len(u.idxs)))
	for _, x := range u.idxs {
		b = binary.LittleEndian.AppendUint32(b, uint32(x))
	}
	return b
}

func decodeInvalPayload(p []byte) (u subOp, err error) {
	if len(p) < 4 {
		return u, fmt.Errorf("dstore: short inval payload (%d bytes)", len(p))
	}
	n := binary.LittleEndian.Uint32(p[0:])
	if len(p) < 4+4*int(n) {
		return u, fmt.Errorf("dstore: inval payload truncated (%d bytes for %d indices)", len(p), n)
	}
	u.idxs = make([]int, n)
	for i := range u.idxs {
		u.idxs[i] = int(binary.LittleEndian.Uint32(p[4+4*i:]))
	}
	return u, nil
}

// opRemap payload: repoint the idxs[0]-th block of the named object at the
// relocation target blocks[0] carrying the checksum sums[0].
func encodeRemapPayload(b []byte, u *subOp, _ int) []byte {
	b = binary.LittleEndian.AppendUint32(b[:0], uint32(u.idxs[0]))
	b = binary.LittleEndian.AppendUint64(b, u.blocks[0])
	return binary.LittleEndian.AppendUint32(b, u.sums[0])
}

func decodeRemapPayload(p []byte) (u subOp, err error) {
	if len(p) < 16 {
		return u, fmt.Errorf("dstore: short remap payload (%d bytes)", len(p))
	}
	u.idxs = []int{int(binary.LittleEndian.Uint32(p[0:]))}
	u.blocks = []uint64{binary.LittleEndian.Uint64(p[4:])}
	u.sums = []uint32{binary.LittleEndian.Uint32(p[12:])}
	return u, nil
}

// opTxnCommit payload: the transaction id followed by the write set as
// sub-operations, `u8 kind | u16 keylen | key`, then for a put exactly the
// parameters an opPut payload would carry (slot, block ids, per-block sums),
// so replay is deterministic; delete sub-ops carry only the name. Decoded,
// a put sub-op is an opPut subOp and a delete an opDelete one.
const (
	txnSubPut    uint8 = 1
	txnSubDelete uint8 = 2
)

func encodeTxnPayload(txnid uint64, subs []subOp) []byte {
	n := 12
	for i := range subs {
		n += 3 + len(subs[i].name)
		if putShaped(subs[i].op) {
			n += allocLen(&subs[i])
		}
	}
	b := make([]byte, n)
	binary.LittleEndian.PutUint64(b[0:], txnid)
	binary.LittleEndian.PutUint32(b[8:], uint32(len(subs)))
	off := 12
	for i := range subs {
		u := &subs[i]
		b[off] = txnSubDelete
		if putShaped(u.op) {
			b[off] = txnSubPut
		}
		binary.LittleEndian.PutUint16(b[off+1:], uint16(len(u.name)))
		off += 3 + copy(b[off+3:], u.name)
		if putShaped(u.op) {
			putAllocPayload(b[off:], u)
			off += allocLen(u)
		}
	}
	return b
}

func decodeTxnPayload(p []byte) (txnid uint64, subs []subOp, err error) {
	if len(p) < 12 {
		return 0, nil, fmt.Errorf("dstore: short txn payload (%d bytes)", len(p))
	}
	txnid = binary.LittleEndian.Uint64(p[0:])
	n := binary.LittleEndian.Uint32(p[8:])
	off := 12
	subs = make([]subOp, 0, n)
	for i := uint32(0); i < n; i++ {
		if len(p) < off+3 {
			return 0, nil, fmt.Errorf("dstore: txn payload truncated at sub %d", i)
		}
		kind := p[off]
		nameLen := int(binary.LittleEndian.Uint16(p[off+1:]))
		off += 3
		if len(p) < off+nameLen {
			return 0, nil, fmt.Errorf("dstore: txn payload truncated in name of sub %d", i)
		}
		u := subOp{op: opDelete}
		switch kind {
		case txnSubPut:
			if u, err = decodeAllocPayload(p[off+nameLen:]); err != nil {
				return 0, nil, fmt.Errorf("dstore: txn payload sub %d: %w", i, err)
			}
			u.op = opPut
		case txnSubDelete:
		default:
			return 0, nil, fmt.Errorf("dstore: unknown txn sub kind %d", kind)
		}
		u.name = p[off : off+nameLen]
		off += nameLen
		if kind == txnSubPut {
			off += allocLen(&u)
		}
		subs = append(subs, u)
	}
	return txnid, subs, nil
}

// decodeSub decodes a single-object record into its sub-op.
func decodeSub(op uint16, name, payload []byte) (u subOp, err error) {
	if op == 0 || op == opTxnCommit || int(op) >= len(opTable) {
		return u, fmt.Errorf("dstore: unknown op %d in log", op)
	}
	if dec := opTable[op].decode; dec != nil {
		if u, err = dec(payload); err != nil {
			return u, err
		}
	}
	u.op, u.name = op, name
	return u, nil
}

// replayRecord applies one logged record to a plane: its sub-op, or for an
// opTxnCommit record every sub-op of its write set in order. Used by
// checkpoint replay (onto PMEM shadows) and recovery replay (onto the rebuilt
// DRAM arena).
func replayRecord(p *plane, rv wal.RecordView) error {
	if rv.Op != opTxnCommit {
		u, err := decodeSub(rv.Op, rv.Name, rv.Payload)
		if err != nil {
			return err
		}
		return p.apply(&u, nil)
	}
	_, subs, err := decodeTxnPayload(rv.Payload)
	if err != nil {
		return err
	}
	for i := range subs {
		if err := p.apply(&subs[i], nil); err != nil {
			return err
		}
	}
	return nil
}

// rebuildPools reconstitutes the free slot and block pools from the
// metadata zone: free slots are the unused slots ascending, free blocks the
// unreferenced blocks ascending. Run after every replay batch.
func rebuildPools(p *plane, totalBlocks uint64) error {
	usedBlocks := make(map[uint64]bool)
	freeSlots := make([]uint64, 0, p.zone.Slots())
	for slot := uint64(0); slot < p.zone.Slots(); slot++ {
		e, used, err := p.zone.Read(slot)
		if err != nil {
			return err
		}
		if !used {
			freeSlots = append(freeSlots, slot)
			continue
		}
		for _, b := range e.Blocks {
			usedBlocks[b] = true
		}
	}
	freeBlocks := make([]uint64, 0, totalBlocks)
	for b := uint64(0); b < totalBlocks; b++ {
		if !usedBlocks[b] {
			freeBlocks = append(freeBlocks, b)
		}
	}
	if err := p.slotPool.ResetTo(freeSlots); err != nil {
		return err
	}
	return p.blockPool.ResetTo(freeBlocks)
}

// replayer adapts replayRecord to dipper.Replayer.
//
// Replay is sequential in LSN order. The paper sketches a parallel
// checkpoint thread pool exploiting commutativity (§3.5, §3.7); in this
// implementation every replayed phase feeds later records' decisions (the
// pool phase reads the zone and B-tree to decide slot/block reuse), so the
// commutativity win is realised where the paper measures it — in the
// frontend's OE locking (Fig. 9's "+OE") — while replay stays a
// deterministic, single-pass background activity. At the paper's record
// sizes (32 B logical records driving ~300 ns structure updates) the replay
// is log-bandwidth bound either way.
type replayer struct {
	blocks uint64 // data-plane capacity, for pool reconstitution
}

func (r replayer) Replay(al *alloc.Allocator, records func(fn func(wal.RecordView) error) error) error {
	p, err := openPlane(al)
	if err != nil {
		return err
	}
	if err := records(func(rv wal.RecordView) error {
		return replayRecord(p, rv)
	}); err != nil {
		return err
	}
	return rebuildPools(p, r.blocks)
}
