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

// exportSubData reads one put-shaped sub-op's object content back
// verifiably (logical spans only, concatenated in block order); ok=false
// means a block was superseded (or faulted) and the content cannot ship.
func (s *Store) exportSubData(sub subOp) ([]byte, bool) {
	data := make([]byte, 0, sub.size)
	for i, b := range sub.blocks {
		ln := s.exportSpanLen(sub.size, i)
		if ln == 0 {
			continue
		}
		span := make([]byte, ln)
		if err := s.readBlockVerified(b, span, sub.sums[i], string(sub.name)); err != nil {
			return nil, false
		}
		data = append(data, span...)
	}
	return data, true
}

// exportSpanLen returns the logical length of block i of an object of the
// given size.
func (s *Store) exportSpanLen(size uint64, i int) uint64 {
	lo := uint64(i) * blockSize
	hi := lo + blockSize
	hi = min(hi, size)
	if hi <= lo {
		return 0
	}
	return hi - lo
}

// ExportCommitted returns up to max committed WAL records with LSN > from,
// each paired with the SSD block content it references (concatenated in
// block order, logical spans only). Records whose data can no longer be
// read back verifiably are skipped: when a block was freed and reused, a
// newer committed record necessarily rewrote the object and ships the fresh
// content, so the standby still converges. A short or empty result means
// "caught up for now"; ErrReplGap means the subscriber must re-seed.
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
	for _, r := range recs {
		w := wire.Record{LSN: r.LSN, Op: r.Op, Name: r.Name, Payload: r.Payload}
		switch r.Op {
		case opTxnCommit:
			// A transaction record references several objects' data. Skipping
			// the whole record when one sub-op's blocks were superseded would
			// permanently diverge the standby on the others, so each put
			// sub-op ships with a present flag:
			//
			//	u8 present | u32 len | data   (per put sub-op, record order)
			//
			// A non-present sub-op's content was rewritten by a later
			// committed record that follows in the stream; the standby strips
			// that sub-op on apply and the later record repairs the key.
			_, subs, err := decodeTxnPayload(r.Payload)
			if err != nil {
				return nil, fmt.Errorf("dstore: export record %d: %w", r.LSN, err)
			}
			var data []byte
			for _, sub := range subs {
				if !putShaped(sub.op) {
					continue
				}
				span, ok := s.exportSubData(sub)
				if !ok {
					data = append(data, 0, 0, 0, 0, 0)
					continue
				}
				data = binary.LittleEndian.AppendUint32(append(data, 1), uint32(len(span)))
				data = append(data, span...)
			}
			w.Data = data
		case opPut, opCreate, opExtend, opTxnBegin:
			sub, err := decodeSub(r.Op, r.Name, r.Payload)
			if err != nil {
				return nil, fmt.Errorf("dstore: export record %d: %w", r.LSN, err)
			}
			data, ok := s.exportSubData(sub)
			if !ok {
				continue // superseded content (or at-rest fault): skip
			}
			w.Data = data
		case opRemap:
			// The record does not carry the span length, so the full block
			// ships unverified; bytes beyond the logical span are never read.
			sub, err := decodeRemapPayload(r.Payload)
			if err != nil {
				return nil, fmt.Errorf("dstore: export record %d: %w", r.LSN, err)
			}
			blk := make([]byte, blockSize)
			if err := s.ssdRead(s.dataOff(sub.blocks[0]), blk); err != nil {
				continue // standby keeps its intact pre-remap copy
			}
			w.Data = blk
		}
		out = append(out, w)
	}
	return out, nil
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
// A transaction record ships each put sub-op's data behind a present flag
// (see ExportCommitted). The not-present sub-ops are STRIPPED from the payload
// before it is logged, so the standby's own recovery replay stays
// self-consistent; their keys are repaired by the later committed records
// that superseded them, which follow in the stream.
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

	// Decode the record into sub-ops, each paired with its shipped data.
	var subs []subOp
	if rec.Op == opTxnCommit {
		txnid, all, err := decodeTxnPayload(rec.Payload)
		if err != nil {
			return fmt.Errorf("dstore: apply record %d: %w", rec.LSN, err)
		}
		data := rec.Data
		for _, sub := range all {
			if putShaped(sub.op) {
				if len(data) < 5 {
					return fmt.Errorf("dstore: apply record %d: transaction data truncated", rec.LSN)
				}
				present, ln := data[0], uint64(binary.LittleEndian.Uint32(data[1:5]))
				if data = data[5:]; uint64(len(data)) < ln {
					return fmt.Errorf("dstore: apply record %d: transaction data truncated", rec.LSN)
				}
				sub.data, data = data[:ln], data[ln:]
				if present == 0 {
					continue
				}
			}
			subs = append(subs, sub)
		}
		if len(subs) != len(all) {
			rec.Payload = encodeTxnPayload(txnid, subs)
		}
	} else {
		sub, err := decodeSub(rec.Op, rec.Name, rec.Payload)
		if err != nil {
			return fmt.Errorf("dstore: apply record %d: %w", rec.LSN, err)
		}
		sub.data = rec.Data
		subs = []subOp{sub}
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
		// Only whole-entry writes and remaps ship data: a put-shaped sub-op
		// its size bytes, a remap the whole block (its record carries no span
		// length).
		want := sub.size
		if sub.op == opRemap {
			want = blockSize
		} else if !putShaped(sub.op) {
			continue
		}
		if uint64(len(sub.data)) < want {
			return fmt.Errorf("dstore: apply record %d: data truncated (%d < %d)", rec.LSN, len(sub.data), want)
		}
		sub.data = sub.data[:want]
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
