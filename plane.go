package dstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"

	"dstore/internal/alloc"
	"dstore/internal/btree"
	"dstore/internal/meta"
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
	rootTree = 0
	rootZone = 1
)

// plane bundles the control-plane structures rooted in one arena: the ones
// replay applies. The same plane code operates on the DRAM frontend and on
// PMEM shadow clones during checkpoint replay — DIPPER's same-code property.
// The free pools are not among them: they are the frontend's own (Store).
type plane struct {
	tree *btree.Tree
	zone *meta.Zone
}

// bootstrapPlane builds fresh structures in an empty arena.
func bootstrapPlane(al *alloc.Allocator, maxObjects, maxName, maxBlocks uint64) (*plane, error) {
	_, treeHdr, err := btree.New(al)
	if err != nil {
		return nil, err
	}
	zoneOff, err := meta.New(al, maxObjects, maxName, maxBlocks)
	if err != nil {
		return nil, err
	}
	al.SetRoot(rootTree, treeHdr)
	al.SetRoot(rootZone, zoneOff)
	return openPlane(al)
}

// openPlane attaches to the structures rooted in al. The zone geometry is
// media-derived, so attaching can fail with meta.ErrCorrupt.
func openPlane(al *alloc.Allocator) (*plane, error) {
	zone, err := meta.Open(al, al.Root(rootZone))
	if err != nil {
		return nil, err
	}
	return &plane{tree: btree.Open(al, al.Root(rootTree)), zone: zone}, nil
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
// (the frontend's pool phase already took the allocations, and replay never
// has pools: Open rebuilds the frontend's from the zone). The caller
// provides synchronization appropriate to its space: the frontend and the
// standby hold treeMu and the zone stripes (Store.applyOwned), replay onto a
// private arena holds nothing. metaDone, when non-nil, receives the time a
// put-shaped update finished its metadata half (Fig. 4 step ⑥) and moved on
// to the index (step ⑦) — Breakdown's meta/tree boundary.
func (p *plane) apply(u *subOp, metaDone *int64) error {
	if putShaped(u.op) {
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
	}
	switch u.op {
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
// failed index insert really left the index as it found it (btree.Insert
// promises it; Check and the absent name confirm it). Reports whether p is as
// it was.
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
// allocations instead of re-executing pool operations in log order, and
// Open rebuilds the free pools from the metadata zone once it is done.
// Physical-logging mode pads the payload with an image to model ARIES-style
// records (Fig. 9 baseline).
//
// A put-shaped sub-op's parameters are size u32 | slot u32 | n u16 |
// n × block u32 | n × sum u32: Format and Open refuse a geometry whose
// object sizes, slots or block ids do not fit those fields (checkGeometry),
// and a record holds at most MaxPayload bytes, fewer blocks than n can count.
//
// allocLen is the encoded size of a put-shaped sub-op's parameters over n
// blocks.
func allocLen(n int) int { return 10 + 8*n }

// putAllocPayload lays u's parameters down at the start of b.
func putAllocPayload(b []byte, u *subOp) {
	binary.LittleEndian.PutUint32(b[0:], uint32(u.size))
	binary.LittleEndian.PutUint32(b[4:], uint32(u.slot))
	binary.LittleEndian.PutUint16(b[8:], uint16(len(u.blocks)))
	so := 10 + 4*len(u.blocks)
	for i, blk := range u.blocks {
		binary.LittleEndian.PutUint32(b[10+4*i:], uint32(blk))
		if u.sums != nil {
			binary.LittleEndian.PutUint32(b[so+4*i:], u.sums[i])
		}
	}
}

// The encoders lay a record's parameters down in b, reusing its room: the
// log copies a payload out at the append, so a write keeps one buffer.
func encodeAllocPayload(b []byte, u *subOp, physPad int) []byte {
	b = append(b[:0], make([]byte, allocLen(len(u.blocks))+physPad)...)
	putAllocPayload(b, u)
	return b
}

func decodeAllocPayload(p []byte) (u subOp, err error) {
	if len(p) < 10 {
		return u, fmt.Errorf("dstore: short payload (%d bytes)", len(p))
	}
	u.size = uint64(binary.LittleEndian.Uint32(p[0:]))
	u.slot = uint64(binary.LittleEndian.Uint32(p[4:]))
	n := int(binary.LittleEndian.Uint16(p[8:]))
	if len(p) < 10+8*n {
		return u, fmt.Errorf("dstore: payload truncated (%d bytes for %d blocks)", len(p), n)
	}
	u.blocks = make([]uint64, n)
	u.sums = make([]uint32, n)
	so := 10 + 4*n
	for i := range u.blocks {
		u.blocks[i] = uint64(binary.LittleEndian.Uint32(p[10+4*i:]))
		u.sums[i] = binary.LittleEndian.Uint32(p[so+4*i:])
	}
	return u, nil
}

// decodePutPayload decodes a put-shaped record's parameters. Bytes after
// them are the physical-logging image, which encodeAllocPayload leaves zero.
func decodePutPayload(p []byte) (u subOp, err error) {
	if u, err = decodeAllocPayload(p); err != nil {
		return u, err
	}
	if pad := p[allocLen(len(u.blocks)):]; len(bytes.TrimLeft(pad, "\x00")) != 0 {
		return u, fmt.Errorf("dstore: %d bytes after the put parameters are not zero", len(pad))
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
	if uint64(len(p)) != 4+4*uint64(n) {
		return u, fmt.Errorf("dstore: inval payload of %d bytes for %d indices", len(p), n)
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
	b = binary.LittleEndian.AppendUint32(b, uint32(u.blocks[0]))
	return binary.LittleEndian.AppendUint32(b, u.sums[0])
}

func decodeRemapPayload(p []byte) (u subOp, err error) {
	if len(p) != 12 {
		return u, fmt.Errorf("dstore: remap payload of %d bytes, want 12", len(p))
	}
	u.idxs = []int{int(binary.LittleEndian.Uint32(p[0:]))}
	u.blocks = []uint64{uint64(binary.LittleEndian.Uint32(p[4:]))}
	u.sums = []uint32{binary.LittleEndian.Uint32(p[8:])}
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

func encodeTxnPayload(b []byte, txnid uint64, subs []subOp) []byte {
	b = binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint64(b[:0], txnid), uint32(len(subs)))
	for i := range subs {
		u, kind := &subs[i], txnSubDelete
		if putShaped(u.op) {
			kind = txnSubPut
		}
		b = binary.LittleEndian.AppendUint16(append(b, kind), uint16(len(u.name)))
		b = append(b, u.name...)
		if kind == txnSubPut {
			b = append(b, make([]byte, allocLen(len(u.blocks)))...)
			putAllocPayload(b[len(b)-allocLen(len(u.blocks)):], u)
		}
	}
	return b
}

func decodeTxnPayload(p []byte, dst []subOp) (txnid uint64, subs []subOp, err error) {
	if len(p) < 12 {
		return 0, nil, fmt.Errorf("dstore: short txn payload (%d bytes)", len(p))
	}
	txnid = binary.LittleEndian.Uint64(p[0:])
	n := binary.LittleEndian.Uint32(p[8:])
	off := 12
	subs = slices.Grow(dst, min(int(n), (len(p)-off)/3)) // a sub-op takes at least 3 bytes
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
		name, u := p[off:off+nameLen], subOp{op: opDelete}
		off += nameLen
		switch kind {
		case txnSubPut:
			if u, err = decodeAllocPayload(p[off:]); err != nil {
				return 0, nil, fmt.Errorf("dstore: txn payload sub %d: %w", i, err)
			}
			u.op, off = opPut, off+allocLen(len(u.blocks))
		case txnSubDelete:
		default:
			return 0, nil, fmt.Errorf("dstore: unknown txn sub kind %d", kind)
		}
		u.name = name
		subs = append(subs, u)
	}
	if off != len(p) {
		return 0, nil, fmt.Errorf("dstore: %d bytes after the txn write set", len(p)-off)
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
	} else if len(payload) != 0 {
		return u, fmt.Errorf("dstore: op %d carries a %d-byte payload", op, len(payload))
	}
	u.op, u.name = op, name
	return u, nil
}

// decodeRecord is the one reading of a logged record — replay's, the
// exporter's and the standby's: the sub-ops a plane applies, appended to
// dst[:0]. A transaction record yields its write set and its id, any other
// record its one sub-op.
func decodeRecord(op uint16, name, payload []byte, dst []subOp) (txnid uint64, subs []subOp, err error) {
	if op == opTxnCommit {
		return decodeTxnPayload(payload, dst[:0])
	}
	u, err := decodeSub(op, name, payload)
	if err != nil {
		return 0, nil, err
	}
	return 0, append(dst[:0], u), nil
}

// encodeRecord is decodeRecord's inverse: it lays w's record parameters down
// in w.params, reusing its room (the log copies a payload out at the append,
// so a write keeps one buffer), and returns them — nil for a record that has
// none.
func encodeRecord(w *writeSet, physPad int) []byte {
	switch enc := opTable[w.op].encode; {
	case w.op == opTxnCommit:
		w.params = encodeTxnPayload(w.params, w.txnid, w.subs)
	case enc != nil:
		w.params = enc(w.params, &w.subs[0], physPad)
	default:
		return nil
	}
	return w.params
}

// replayRecord applies one logged record's sub-ops to a plane in order. Used
// by checkpoint replay (onto PMEM shadows) and recovery replay (onto the
// rebuilt DRAM arena).
func replayRecord(p *plane, rv wal.RecordView) error {
	var one [1]subOp
	_, subs, err := decodeRecord(rv.Op, rv.Name, rv.Payload, one[:])
	for i := 0; i < len(subs) && err == nil; i++ {
		err = p.apply(&subs[i], nil)
	}
	return err
}

// replay applies the records it is handed to the plane rooted in al: the
// dipper.Replay of checkpoint replay and of recovery.
//
// Replay is sequential in LSN order. The paper sketches a parallel
// checkpoint thread pool exploiting commutativity (§3.5, §3.7); in this
// implementation every replayed phase feeds later records' decisions (the
// pool phase reads the zone and B-tree to decide slot/block reuse), so the
// commutativity win is realised where the paper measures it — in the
// frontend's OE locking (Fig. 9's "+OE") — while replay stays a
// deterministic, sequential background activity. At the paper's record
// sizes (32 B plus the name, driving ~300 ns structure updates; here a
// one-block put with a 14-byte name is 48 B) the replay is log-bandwidth
// bound either way.
//
// A first pass finds each slot's last single put-shaped record and the
// second skips every earlier one, whose whole effect that record overwrites
// (DESIGN.md §4 "Deterministic replay").
func replay(al *alloc.Allocator, records func(fn func(wal.RecordView) error) error) (skipped uint64, err error) {
	p, err := openPlane(al)
	if err != nil {
		return 0, err
	}
	last := make([]uint32, p.zone.Slots()) // 1 + the ordinal of the slot's last put
	var n uint32
	if err := records(func(rv wal.RecordView) error {
		n++
		if slot, ok := putSlot(rv, last); ok {
			last[slot] = n
		}
		return nil
	}); err != nil {
		return 0, err
	}
	n = 0
	err = records(func(rv wal.RecordView) error {
		n++
		if slot, ok := putSlot(rv, last); ok && last[slot] != n {
			skipped++
			return nil
		}
		return replayRecord(p, rv)
	})
	return skipped, err
}

// putSlot returns the slot a single put-shaped record rewrites (payload bytes
// 4–8, after the size), if it is one of last's.
func putSlot(rv wal.RecordView, last []uint32) (uint64, bool) {
	if !putShaped(rv.Op) || len(rv.Payload) < 8 {
		return 0, false
	}
	slot := uint64(binary.LittleEndian.Uint32(rv.Payload[4:]))
	return slot, slot < uint64(len(last))
}
