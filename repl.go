package dstore

// Phase-one replication, store side (see DESIGN.md §10). The WAL logs
// metadata only — block ids and checksums, never block content — so the
// exporter pairs every committed record with the SSD data it references and
// the standby applies both: data to its own SSD first, then the record
// through the same replay machinery recovery uses. The standby is a
// byte-compatible mirror (same LSNs, slots, and block ids), which makes
// promotion a local checkpoint plus pool rebuild: no state translation.

import (
	"encoding/binary"
	"errors"
	"fmt"

	"dstore/internal/meta"
	"dstore/internal/ssd"
	"dstore/internal/wal"
	"dstore/internal/wire"
)

// ErrStandby is returned for mutating operations on a store that is
// applying a primary's WAL (BeginStandby). Reads are served; writes are
// refused until Promote.
var ErrStandby = errors.New("dstore: standby (replicating, read-only)")

// ErrReplGap is returned by ExportCommitted when the subscriber's position
// predates the log recycling horizon: the standby cannot be caught up
// record-by-record and must re-seed from scratch.
var ErrReplGap = errors.New("dstore: replication gap (subscriber too far behind)")

// LastLSN returns the most recently assigned (primary) or applied
// (standby) log sequence number.
func (s *Store) LastLSN() uint64 { return s.eng.Pair().LastLSN() }

// AppliedLSN is the standby's ack position: the highest LSN it has durably
// applied. It equals LastLSN because replicated records are appended to the
// standby's own WAL at the primary's LSNs — and therefore survives a
// standby crash, which recovers the committed prefix and resubscribes from
// here.
func (s *Store) AppliedLSN() uint64 { return s.eng.Pair().LastLSN() }

// ExportCommitted returns up to max committed WAL records with LSN > from,
// each with one frame of Data per content-carrying sub-op (wire.Record).
// Content that is no longer live ships absent: a block freed and reused
// means a newer committed record rewrote the object and ships the fresh
// content later in the stream, so the standby drops the sub-op and still
// converges. Live content that does not read back fails the export. A short
// or empty result means "caught up for now"; ErrReplGap means the subscriber
// must re-seed.
func (s *Store) ExportCommitted(from uint64, max int) ([]wire.Record, error) {
	if s.closed.Load() {
		return nil, ErrClosed
	}
	recs, err := s.eng.Pair().ExportCommitted(from, max)
	if err != nil {
		if errors.Is(err, wal.ErrTruncated) {
			return nil, fmt.Errorf("%w: %v", ErrReplGap, err)
		}
		return nil, err
	}
	out := make([]wire.Record, 0, len(recs))
	var subs []subOp
	for _, r := range recs {
		if _, subs, err = decodeRecord(r.Op, r.Name, r.Payload, subs); err != nil {
			return nil, fmt.Errorf("dstore: export record %d: %w", r.LSN, err)
		}
		w := wire.Record{LSN: r.LSN, Op: r.Op, Name: r.Name, Payload: r.Payload}
		for i := range subs {
			n, sums, ok := shipped(&subs[i])
			if !ok {
				continue
			}
			at := len(w.Data)
			w.Data = binary.LittleEndian.AppendUint32(append(w.Data, 1), uint32(n))
			w.Data = append(w.Data, make([]byte, n)...)
			live, err := s.exportBlocks(&subs[i], sums, w.Data[at+5:])
			if err != nil {
				return nil, fmt.Errorf("dstore: export record %d: %w", r.LSN, err)
			}
			if !live {
				w.Data = append(w.Data[:at], 0, 0, 0, 0, 0)
			}
		}
		out = append(out, w)
	}
	return out, nil
}

// exportBlocks reads u's content into dst, each block once: from the cache,
// or with one device read checked against its sum. A block that does not read
// back and that u's name no longer maps was freed and reused — the record that
// superseded u ships the content later — so it reports false, with no re-read
// and no count in Health().Corruptions. Live content is read as a Get reads
// it, and fails the export if it stays corrupt rather than ship a write absent.
// A block rewritten in place since (WriteAt's opInval left it unverified) is
// live too, and ships its current bytes, read unverified: the opInval record
// that follows in the stream makes the standby's copy unverified as well.
func (s *Store) exportBlocks(u *subOp, sums []uint32, dst []byte) (bool, error) {
	for i, b := range u.blocks {
		p := s.span(dst, i)
		if p == nil {
			break
		}
		verified := sums[i] != meta.SumUnverified
		if verified && s.bcache.Get(b, sums[i], p) {
			continue
		}
		if s.ssdRead(s.dataOff(b), p) == nil && (!verified || blockSum(p) == sums[i]) {
			continue
		}
		sum, live := s.maps(u, i, sums[i])
		if !live {
			return false, nil
		}
		if err := s.readBlockVerified(b, p, sum, string(u.name)); err != nil {
			if _, live = s.maps(u, i, sums[i]); !live {
				return false, nil // superseded while it was re-read
			}
			return false, err
		}
	}
	return true, nil
}

// maps reports whether u's name still maps u's i-th block under sum, or
// unverified since an in-place rewrite, and returns the sum to read it under:
// a put-shaped sub-op's i-th block, or the block a remap repoints its index
// at.
func (s *Store) maps(u *subOp, i int, sum uint32) (uint32, bool) {
	var eb entryBuf
	_, e, err := s.lookup(u.name, &eb)
	b := u.blocks[i]
	if u.op == opRemap {
		i = u.idxs[0]
	}
	if err != nil || i >= len(e.Blocks) || e.Blocks[i] != b {
		return 0, false
	}
	if i < len(e.Sums) && e.Sums[i] == meta.SumUnverified {
		return meta.SumUnverified, true
	}
	return sum, sum == meta.SumUnverified || i < len(e.Sums) && e.Sums[i] == sum
}

// shipped returns the content length a replicated sub-op carries and the sums
// it is read under: a put-shaped sub-op's size bytes, verified, and a remap's
// whole relocation block, unverified, because its record carries no span
// length. ok is false for a sub-op without content.
func shipped(u *subOp) (n uint64, sums []uint32, ok bool) {
	if u.op == opRemap {
		return blockSize, []uint32{meta.SumUnverified}, true
	}
	return u.size, u.sums, putShaped(u.op)
}

// BeginStandby puts the store into standby mode: mutating operations return
// ErrStandby and ApplyReplicated is enabled. A standby is normally a fresh
// Format (mirroring from LSN 0) or a reopened previous standby (resuming
// from AppliedLSN).
func (s *Store) BeginStandby() { s.standby.Store(true) }

// IsStandby reports whether the store is in standby mode.
func (s *Store) IsStandby() bool { return s.standby.Load() }

// ApplyReplicated applies one shipped record to a standby: block data to
// this store's own SSD first, then a directly-committed WAL record at the
// primary's LSN, then the in-memory structures through applyOwned — the step
// the primary's own writes end in. A crash between the SSD write and the WAL
// append loses nothing (the record was not acked); a crash after the WAL
// append is repaired by recovery replay, which re-applies the committed
// record over the already-durable data.
//
// Every frame of rec.Data (see ExportCommitted) is checked against its
// sub-op before a byte is written. A sub-op whose content is absent is
// dropped from the record before it is logged, so the standby's own recovery
// replay stays self-consistent; its key is repaired by the later committed
// record that superseded it, which follows in the stream. A transaction that
// lost some sub-ops is re-encoded; a record that lost all is logged as a
// no-op, which replay ignores, so the applied position still passes it.
func (s *Store) ApplyReplicated(rec wire.Record) error {
	if !s.standby.Load() {
		return fmt.Errorf("dstore: ApplyReplicated on non-standby store")
	}
	if s.closed.Load() {
		return ErrClosed
	}
	if s.degraded.Load() {
		return s.checkWritable()
	}
	s.applyMu.Lock()
	defer s.applyMu.Unlock()
	if rec.LSN <= s.eng.Pair().LastLSN() {
		return nil // duplicate delivery (resubscribe overlap): idempotent
	}

	txnid, all, err := decodeRecord(rec.Op, rec.Name, rec.Payload, nil)
	if err != nil {
		return fmt.Errorf("dstore: apply record %d: %w", rec.LSN, err)
	}
	subs, data := all[:0], rec.Data
	for _, sub := range all {
		if n, _, ok := shipped(&sub); ok {
			if len(data) < 5 {
				return fmt.Errorf("dstore: apply record %d: content frame truncated", rec.LSN)
			}
			present, ln := data[0], uint64(binary.LittleEndian.Uint32(data[1:5]))
			if data = data[5:]; present > 1 || ln != n*uint64(present) || uint64(len(data)) < ln {
				return fmt.Errorf("dstore: apply record %d: content frame (present %d, %d of %d bytes) for %d-byte content",
					rec.LSN, present, ln, len(data), n)
			}
			sub.data, data = data[:ln], data[ln:]
			if present == 0 {
				continue
			}
		}
		subs = append(subs, sub)
	}
	if len(data) > 0 {
		return fmt.Errorf("dstore: apply record %d: %d bytes after the last content frame", rec.LSN, len(data))
	}
	switch {
	case len(subs) == 0:
		rec.Op, rec.Payload = opNoop, nil
	case len(subs) < len(all):
		rec.Payload = encodeRecord(&writeSet{op: rec.Op, txnid: txnid, subs: subs}, 0)
	}

	for i := range subs {
		sub := &subs[i]
		sub.key = string(sub.name)
		// What the apply displaces leaves the cache with it, as on the primary
		// (putOwned, deleteOwned) — but a standby frees nothing, so nothing
		// else would ever drop these entries.
		if putShaped(sub.op) || sub.op == opDelete || sub.op == opTxnAbort || sub.op == opRemap {
			if _, e, err := s.lookup(sub.name, nil); err == nil {
				sub.stale = e.Blocks
			}
		}
		if _, _, ok := shipped(sub); !ok {
			continue
		}
		reqs := make([]ssd.Write, len(sub.blocks))
		for j, b := range sub.blocks {
			reqs[j] = ssd.Write{Off: s.dataOff(b), P: s.span(sub.data, j)}
		}
		if err := s.ssdWrite(reqs...); err != nil {
			s.degrade(err)
			return fmt.Errorf("%w: standby data write: %v", ErrDegraded, err)
		}
		// The blocks just written may have entries from a previous life (no
		// free ever invalidated them here). applyOwned drops those and then
		// publishes the shipped content under the record's sums, so a
		// promoted standby starts warm.
		sub.stale = append(sub.stale, sub.blocks...)
	}

	// Data durable; now the record. AppendCommitted publishes with the
	// committed state already set, so the standby's recovery sees exactly
	// the applied prefix.
	if err := s.applyAppend(rec); err != nil {
		return err
	}
	// No frontend writers exist on a standby, but readers do.
	w := writeSet{subs: subs}
	if s.applyOwned([]*writeSet{&w}, nil); w.err != nil {
		s.degrade(w.err)
		return fmt.Errorf("%w: standby apply: %v", ErrDegraded, w.err)
	}
	return nil
}

// applyAppend appends rec to the standby's WAL as a committed record; a
// refusal gets the store's one answer (appendFailed). A record the standby
// cannot log degrades it: it can no longer follow the primary.
func (s *Store) applyAppend(rec wire.Record) error {
	var retry appendRetry
	for {
		err := s.eng.Pair().AppendCommitted(rec.LSN, rec.Op, rec.Name, rec.Payload)
		if err == nil {
			return nil
		}
		if err = s.appendFailed(err, &retry); err == nil {
			continue
		}
		if !errors.Is(err, ErrDegraded) {
			s.degrade(err)
			err = fmt.Errorf("%w: standby log append: %w", ErrDegraded, err)
		}
		return err
	}
}

// Promote opens a standby for writes: applies stop, the free pools are
// rebuilt from the mirrored metadata (the standby never allocates, so they
// are stale), a checkpoint makes the promoted state durable, and the
// standby gate lifts. After Promote the store is an ordinary primary — it
// can itself be replicated.
func (s *Store) Promote() error {
	if !s.standby.Load() {
		return nil
	}
	if s.closed.Load() {
		return ErrClosed
	}
	s.applyMu.Lock()
	defer s.applyMu.Unlock()
	s.poolMu.Lock()
	err := s.rebuildPoolsLocked()
	s.poolMu.Unlock()
	if err != nil {
		s.degrade(err)
		return fmt.Errorf("%w: promote pool rebuild: %v", ErrDegraded, err)
	}
	if !s.cfg.DisableCheckpoints {
		if err := s.eng.Checkpoint(); err != nil {
			s.degrade(err)
			return fmt.Errorf("%w: promote checkpoint: %v", ErrDegraded, err)
		}
	}
	s.standby.Store(false)
	return nil
}
