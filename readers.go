package dstore

import (
	"math/bits"
	"runtime"
	"sync/atomic"

	"dstore/internal/meta"
	"dstore/internal/wal"
)

// This file is the read side of DStore's read–write concurrency control
// (paper §4.4: "an in-memory hash table that maps object names to their
// current read count", "updated using the atomic fetch-and-add instruction",
// which writers poll to zero, plus the readers' look at the log's uncommitted
// window). A read pays for it with three atomic operations and no lock:
//
//	reader:  count[stripe(key)]++  …  load filter[stripe(key)]  …  count--
//	writer:  filter[stripe(key)]++ (inside its append)  …  load count
//
// count is the table below; filter is the WAL's in-flight-name filter
// (wal.Pair.Quiet), non-zero exactly while an unsettled record's name hashes
// there. Both are sequentially consistent atomics, so this is Dekker's
// pairing: a reader that finds the filter zero incremented before the writer's
// append, and the writer's later poll of the count waits for it to leave; a
// writer that polled zero appended before the reader's increment, and the
// reader finds the filter raised. Only then does the reader pay for the exact
// window scan (swapMu, l.mu) — which tells a real conflict, whose settling it
// waits for outside the count, from a neighbour on the stripe or its own
// olock. A zero filter stripe proves there was nothing to find.
//
// Both tables are striped by a hash of the name, not keyed by it: their size
// is fixed however many names a store has seen, and a collision costs a
// reader one scan or a writer one unrelated reader section, never a wrong
// verdict. What striping could cost is liveness — readers hammering one name
// keeping the shared count of a neighbour's writer above zero for ever — so a
// writer that has to wait raises the stripe's drain mark and readers of any
// name on the stripe hold off until it has seen zero.

// readStripes sizes the read-count table: 1,024 cache-line stripes, 64 KiB
// per store. With a handful of readers in a section at any instant, a writer
// meets an unrelated one on its stripe well under 1 % of the time.
const readStripes = 1 << 10

// readStripe is one padded slot of the table, its two words on one line: a
// reader loads drain and adds to n.
type readStripe struct {
	n     atomic.Int32 // readers inside a section on a name of this stripe
	drain atomic.Int32 // writers polling n for zero; readers wait while non-zero
	_     [56]byte
}

// exit closes the reader section enterRead opened.
func (st *readStripe) exit() { st.n.Add(-1) }

type readTable [readStripes]readStripe

// stripe returns the slot for a name hash. The filter indexes by the low bits
// of the same hash; taking the high half keeps the two collisions independent.
func (t *readTable) stripe(hash uint64) *readStripe {
	return &t[(hash>>32)&(readStripes-1)]
}

// awaitZero returns once no reader is inside a section on hash's stripe — the
// paper's "In case the read count is non-zero, we simply poll on it until it
// is zero." The caller's record is already appended, so readers arriving from
// here on see the filter; the common case is one load. When it does wait, the
// drain mark keeps new readers of the whole stripe out until the count has
// been seen at zero (drain is a count: two writers can drain one stripe).
func (t *readTable) awaitZero(hash uint64) {
	st := t.stripe(hash)
	if st.n.Load() == 0 {
		return
	}
	st.drain.Add(1)
	for st.n.Load() != 0 {
		runtime.Gosched()
	}
	st.drain.Add(-1)
}

// enterRead opens a CC reader section on key and returns the stripe to exit
// and key's name hash. held is the caller's own olocks (nil when it has none):
// a lock holder may read the object it locked, so its record is excluded from
// the exact check. A reader that must wait for a writer leaves the count
// first, so a blocked reader never holds up the writer's poll.
func (s *Store) enterRead(key string, held map[string]*wal.Handle) (*readStripe, uint64) {
	hash := wal.NameHash(key)
	st := s.readers.stripe(hash)
	pair := s.eng.Pair()
	for {
		for st.drain.Load() != 0 {
			runtime.Gosched()
		}
		st.n.Add(1)
		if pair.Quiet(hash) {
			return st, hash
		}
		w := pair.FindConflictIgnore([]byte(key), heldLSN(held, key))
		if w == nil {
			return st, hash
		}
		st.exit()
		w.Wait()
	}
}

// hintTable lets a point read inside a section skip the index: a bucket per
// name hash holds the slot the B+ tree last gave a reader of that name, as
// the hash's high half (a tag) over slot+1 (0 is empty). A hint is never
// trusted alone: a reader takes it only if the slot is used and records the
// reader's own name. A slot records a name the tree does not map there only
// inside a create's apply, which CC keeps that name's readers out of, or after
// such an apply failed half-way and stayed visible (a degraded store); and
// applyOwned empties the bucket of every sub-op that may move a name, after
// draining its readers and before the apply. Two buckets per zone slot (a
// zone stays far below 2³² slots), fixed when the store is built.
type hintTable []atomic.Uint64

func newHintTable(slots uint64) hintTable {
	return make(hintTable, 1<<bits.Len64(2*slots-1))
}

func (t hintTable) bucket(hash uint64) *atomic.Uint64 { return &t[hash&uint64(len(t)-1)] }

// hint is the bucket word naming slot for the name with this hash.
func hint(hash, slot uint64) uint64 { return hash>>32<<32 | (slot + 1) }

// hinted returns the slot a bucket word names for the name with this hash.
func hinted(w, hash uint64) (uint64, bool) {
	return w&(1<<32-1) - 1, w != 0 && w>>32 == hash>>32
}

// readLookup resolves key for a reader inside a CC section on it (hash is
// the section's): through the hint when the slot it names still records key,
// otherwise through the index, whose answer becomes the hint.
func (s *Store) readLookup(key string, hash uint64, buf *entryBuf) (meta.Entry, error) {
	if _, e, ok := s.viaHint(key, hash, buf); ok {
		return e, nil
	}
	slot, e, err := s.lookup([]byte(key), buf)
	if err == nil {
		s.hints.bucket(hash).Store(hint(hash, slot))
	}
	return e, err
}

// viaHint reads the slot hash's hint names, if the slot is used and records
// key.
func (s *Store) viaHint(key string, hash uint64, buf *entryBuf) (uint64, meta.Entry, bool) {
	slot, ok := hinted(s.hints.bucket(hash).Load(), hash)
	if !ok {
		return 0, meta.Entry{}, false
	}
	lk := &s.zoneMu[slot%uint64(len(s.zoneMu))]
	lk.Lock()
	e, used, err := s.front.zone.ReadInto(slot, buf.blocks[:], buf.sums[:])
	hit := err == nil && used && string(e.Name) == key
	lk.Unlock()
	return slot, e, hit
}
