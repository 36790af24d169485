package wal

// Replication export: a point-in-time view of the committed record prefix,
// copied out of log memory so it can be shipped over the wire after the
// locks are released. The exporter survives active-log switches because it
// scans *both* logs of the pair under the swap lock: the archived log holds
// the older committed prefix and the active log holds everything since the
// last swap (including the migrated suffix). The inactive log's region
// beyond its genuine archived prefix still contains stale copies of records
// that were migrated at the last swap, so the merge dedupes by LSN and
// prefers the active log's copy — its commit state is the live one.

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
)

// ErrTruncated is returned by ExportCommitted when records at or below the
// requested LSN may already have been recycled with the log region that
// held them. A subscriber this far behind cannot be caught up from the log
// alone and must re-seed (phase one: re-replicate from scratch).
var ErrTruncated = errors.New("wal: requested records already truncated")

// ExportRecord is a stable copy of a committed record: unlike RecordView,
// Name and Payload do not alias log memory and may be retained after the
// export call returns.
type ExportRecord struct {
	LSN     uint64
	Op      uint16
	Name    []byte
	Payload []byte
}

// Truncated returns the highest LSN that may have been discarded by log
// recycling (or that predates recovery). Subscriptions must start at or
// above this LSN.
func (p *Pair) Truncated() uint64 {
	p.swapMu.RLock()
	defer p.swapMu.RUnlock()
	return p.truncated
}

// ExportCommitted returns up to max committed records with LSN > from, in
// LSN order. The export stops at the first uncommitted record (in LSN
// order) regardless of later commits, so consecutive exports always extend
// a committed prefix — the property the standby's replay depends on. A
// sealed pair's uncommitted records never commit, so there it skips them. Dead
// records are skipped: they are permanent gaps in the LSN sequence, like
// LSNs burned by failed appends.
//
// A short (or empty) result is not an error; the subscriber polls again.
// ErrTruncated reports that from is below the recycling horizon.
func (p *Pair) ExportCommitted(from uint64, max int) ([]ExportRecord, error) {
	if max <= 0 {
		return nil, nil
	}
	p.swapMu.RLock()
	defer p.swapMu.RUnlock()
	if from < p.truncated {
		return nil, fmt.Errorf("%w: from %d, truncated through %d", ErrTruncated, from, p.truncated)
	}

	type cand struct {
		rec    ExportRecord
		state  uint8
		active bool
	}
	byLSN := make(map[uint64]cand)
	for i, l := range p.logs {
		isActive := i == p.active
		l.mu.Lock()
		off := uint64(logHeader)
		var prev uint64
		for {
			rv, next, ok := l.readRecord(off)
			if !ok || rv.LSN <= prev {
				break
			}
			prev = rv.LSN
			if old, dup := byLSN[rv.LSN]; !dup || (isActive && !old.active) {
				byLSN[rv.LSN] = cand{
					rec: ExportRecord{
						LSN:     rv.LSN,
						Op:      rv.Op,
						Name:    append([]byte(nil), rv.Name...),
						Payload: append([]byte(nil), rv.Payload...),
					},
					state:  rv.State,
					active: isActive,
				}
			}
			off = next
		}
		l.mu.Unlock()
	}

	lsns := slices.Collect(maps.Keys(byLSN))
	sort.Slice(lsns, func(i, j int) bool { return lsns[i] < lsns[j] })

	var out []ExportRecord
	for _, lsn := range lsns {
		c := byLSN[lsn]
		if c.state == StateUncommitted && !p.sealed.Load() {
			break // committed prefix ends here
		}
		if c.state != StateCommitted || lsn <= from {
			continue
		}
		out = append(out, c.rec)
		if len(out) >= max {
			break
		}
	}
	return out, nil
}

// AppendCommitted appends a record that is already committed, at an
// explicit LSN — the standby side of replication. The record is stored with
// the state byte already StateCommitted and published at once, with any
// pending suffix ahead of it (body, fence, then LSN), so a standby crash
// mid-apply leaves either a fully valid committed record or nothing. A
// refused append leaves the log as it was: nothing pending is added and the
// tail and LSN counter stay, so the same LSN applies on retry; a record no
// empty log holds is refused with ErrNeverFits, as Append does. LSNs must
// strictly increase; gaps are fine (the primary's sequence has them too).
// The pair's LSN counter advances to lsn, so LastLSN doubles as the
// standby's applied — and therefore ack — LSN, and it survives recovery
// because it is rebuilt from the records themselves.
func (p *Pair) AppendCommitted(lsn uint64, op uint16, name, payload []byte) error {
	if len(name) > MaxName || len(payload) > MaxPayload {
		return fmt.Errorf("wal: record fields too large (%d, %d)", len(name), len(payload))
	}
	p.swapMu.RLock()
	defer p.swapMu.RUnlock()
	l := p.logs[p.active]
	l.mu.Lock()
	defer l.mu.Unlock()
	if last := p.lsn.Load(); lsn <= last {
		return fmt.Errorf("wal: replicated LSN %d does not extend %d", lsn, last)
	}
	total := recordSize(len(name), len(payload))
	off := l.tail
	if off+total+8 > l.sp.Size() {
		if logHeader+total+8 > l.sp.Size() {
			return ErrNeverFits
		}
		return ErrLogFull
	}
	if err := l.storeRecordLocked(off, op, StateCommitted, name, payload, total); err != nil {
		return fmt.Errorf("wal: replicated append failed: %w", err)
	}
	// A standby may race local appends (promotion windows), whose pending
	// records publish with this one. A failed publish wrote no LSN: the
	// record leaves the pending list, or a later publish would make it valid.
	l.pending = append(l.pending, pendingRec{lsn: lsn, off: off, total: total})
	if err := l.publishPendingLocked(); err != nil {
		l.pending = l.pending[:len(l.pending)-1]
		return fmt.Errorf("wal: replicated append publish: %w", err)
	}
	l.tail = off + total
	l.appended, l.appendedBytes = l.appended+1, l.appendedBytes+total
	p.lsn.Store(lsn)
	return nil
}
