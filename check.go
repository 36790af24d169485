package dstore

import (
	"bytes"
	"errors"
	"fmt"
	"maps"

	"dstore/internal/fault"
	"dstore/internal/meta"
	"dstore/internal/wal"
)

// Check verifies the store's cross-structure invariants — an fsck for the
// control plane. It validates that:
//
//   - the B-tree is structurally sound and every index entry points at a
//     used metadata slot whose recorded name matches the key;
//   - no metadata slot is referenced by two keys, and no used slot is
//     orphaned (unreachable from the index);
//   - every object's block list has exactly the blocks its size requires,
//     all within the data plane, and no block belongs to two objects;
//   - conservation: used slots + free slots in the slot pool equal the
//     zone capacity, and allocated blocks + free blocks in the block pool +
//     quarantined unowned blocks equal the device capacity;
//   - every slot hint a reader would take is the index's answer
//     (readers.go);
//   - no block in the free pool has a block-cache entry (cachePublish drops
//     what an apply displaces; a dead write's blocks never had one).
//
// Check takes the store's structure locks briefly; it is safe to run
// concurrently with normal operation (results reflect a quiescent moment
// only if the caller arranges one). The crash-recovery tests run it after
// every recovery.
func (s *Store) Check() error {
	if s.closed.Load() {
		return ErrClosed
	}
	s.quarMu.Lock()
	quarantined := maps.Clone(s.quarantine)
	s.quarMu.Unlock()
	s.poolMu.Lock()
	defer s.poolMu.Unlock()
	s.treeMu.RLock()
	defer s.treeMu.RUnlock()
	for i := range s.zoneMu {
		s.zoneMu[i].Lock()
		defer s.zoneMu[i].Unlock()
	}
	p, blocks, hints := s.front, s.cfg.Blocks, s.hints
	if err := p.tree.Check(); err != nil {
		return fmt.Errorf("dstore: index: %w", err)
	}

	slotOwner := make(map[uint64][]byte)
	blockOwner := make(map[uint64][]byte)
	err := p.tree.Iterate(func(key []byte, slot uint64) error {
		if prev, dup := slotOwner[slot]; dup {
			return fmt.Errorf("slot %d referenced by both %q and %q", slot, prev, key)
		}
		slotOwner[slot] = append([]byte(nil), key...)

		e, used, err := p.zone.Read(slot)
		if err != nil {
			return err
		}
		if !used {
			return fmt.Errorf("key %q points at free slot %d", key, slot)
		}
		if !bytes.Equal(e.Name, key) {
			return fmt.Errorf("slot %d holds name %q but is indexed by %q", slot, e.Name, key)
		}
		// A hint a reader of key would take names key's slot. (One taken
		// for a name the index lacks names a slot the orphan scan rejects.)
		hash := wal.NameHash(key)
		if h, ok := hinted(hints.bucket(hash).Load(), hash); ok && h != slot {
			if he, used, err := p.zone.Read(h); err == nil && used && bytes.Equal(he.Name, key) {
				return fmt.Errorf("%w: the slot hint for %q names slot %d, the index %d", ErrCorrupt, key, h, slot)
			}
		}
		if need := blocksFor(e.Size, blockSize); uint64(len(e.Blocks)) != need {
			return fmt.Errorf("object %q: size %d needs %d blocks, has %d", key, e.Size, need, len(e.Blocks))
		}
		for _, b := range e.Blocks {
			if b >= blocks {
				return fmt.Errorf("object %q references block %d beyond capacity %d", key, b, blocks)
			}
			if prev, dup := blockOwner[b]; dup {
				return fmt.Errorf("block %d owned by both %q and %q", b, prev, key)
			}
			blockOwner[b] = slotOwner[slot]
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("dstore: %w", err)
	}

	// Orphan scan: every used slot must be indexed.
	for slot := uint64(0); slot < p.zone.Slots(); slot++ {
		_, used, err := p.zone.Read(slot)
		if err != nil {
			return fmt.Errorf("dstore: slot %d: %w", slot, err)
		}
		_, indexed := slotOwner[slot]
		if used && !indexed {
			return fmt.Errorf("dstore: slot %d used but unreachable from the index", slot)
		}
	}

	// Conservation laws. Quarantined blocks that no object owns are neither
	// free nor allocated: they sit out of circulation until a reopen (on a
	// presumably repaired device) returns them through pool reconstitution.
	quarUnowned := uint64(0)
	for b := range quarantined {
		if _, owned := blockOwner[b]; !owned {
			quarUnowned++
		}
	}
	if got, want := s.slotPool.Free()+uint64(len(slotOwner)), p.zone.Slots(); got != want {
		return fmt.Errorf("dstore: slot conservation violated: %d free + %d used != %d", s.slotPool.Free(), len(slotOwner), want)
	}
	if got, want := s.blockPool.Free()+uint64(len(blockOwner))+quarUnowned, blocks; got != want {
		return fmt.Errorf("dstore: block conservation violated: %d free + %d allocated + %d quarantined != %d",
			s.blockPool.Free(), len(blockOwner), quarUnowned, want)
	}
	// By conservation the free blocks are those neither owned nor quarantined.
	for b := uint64(0); b < blocks; b++ {
		if _, owned := blockOwner[b]; !owned && !quarantined[b] && s.bcache.Holds(b) {
			return fmt.Errorf("dstore: free block %d has a cache entry", b)
		}
	}
	return nil
}

// ------------------------------------------------------------------ scrub

// ScrubFinding locates one block-level integrity event.
type ScrubFinding struct {
	Name  string // owning object
	Block uint64 // SSD block id
	Index int    // position in the object's block list
}

// ScrubReport summarizes a data-plane scrub pass.
type ScrubReport struct {
	BlocksChecked uint64 // live block spans examined
	Unverified    uint64 // blocks with no recorded checksum (skipped)
	// Corrupt lists blocks whose content failed checksum verification
	// (content unrecoverable from this store alone). Repaired lists
	// quarantined blocks whose intact content was migrated to fresh blocks.
	Corrupt  []ScrubFinding
	Repaired []ScrubFinding
}

// Scrub walks every live object and verifies each block carrying a recorded
// checksum against the data plane. With repair set, blocks that verify but
// sit on quarantined media are migrated to freshly allocated blocks through
// a durably logged remap (opRemap), so the object heals before the bad
// media is touched again. Corrupt blocks are reported, never "repaired" —
// their content is gone and rewriting it would manufacture data.
func (s *Store) Scrub(repair bool) (ScrubReport, error) {
	var rep ScrubReport
	if s.closed.Load() {
		return rep, ErrClosed
	}
	buf := make([]byte, blockSize)
	for slot := uint64(0); slot < s.cfg.MaxObjects; slot++ {
		e, used, err := s.zoneRead(slot, nil)
		if err != nil {
			return rep, err
		}
		if !used {
			continue
		}
		name := string(e.Name) // copy: Name aliases the arena
		for i, b := range e.Blocks {
			lo := uint64(i) * blockSize
			if lo >= e.Size { // fully beyond the logical size
				continue
			}
			span := min(e.Size-lo, blockSize)
			rep.BlocksChecked++
			if e.Sums[i] == meta.SumUnverified {
				rep.Unverified++
				continue
			}
			p := buf[:span]
			// Scrub verifies the medium, never the cache: a cached copy
			// would mask at-rest corruption on the device.
			if err := s.readBlockDevice(b, p, e.Sums[i], name); err != nil {
				if errors.Is(err, ErrCorrupt) {
					rep.Corrupt = append(rep.Corrupt, ScrubFinding{Name: name, Block: b, Index: i})
					continue
				}
				if fault.IsPermanent(err) {
					// Permanently unreadable media: the content is as gone as
					// a checksum mismatch. Quarantine so the block never
					// re-enters the pool, report, keep scrubbing.
					s.quarantineBlock(b)
					rep.Corrupt = append(rep.Corrupt, ScrubFinding{Name: name, Block: b, Index: i})
					continue
				}
				return rep, err
			}
			if repair && s.isQuarantined(b) {
				ok, err := s.remapBlock(name, slot, i, b, p, e.Sums[i])
				if err != nil {
					return rep, err
				}
				if ok {
					rep.Repaired = append(rep.Repaired, ScrubFinding{Name: name, Block: b, Index: i})
				}
			}
		}
	}
	return rep, nil
}

// remapBlock migrates one live block's verified content off quarantined
// media: a write set of one opRemap sub-op, whose data phase takes a fresh
// block and writes the content there, and whose apply repoints the metadata
// slot. Returns false (no error) when the object changed underneath and the
// repair is moot.
func (s *Store) remapBlock(name string, slot uint64, idx int, old uint64, data []byte, sum uint32) (bool, error) {
	w := s.single(opRemap, name, nil)
	u := &w.one[0]
	u.slot, u.idxs, u.sums, u.data = slot, []int{idx}, []uint32{sum}, data
	// The object's content will live at the fresh block; the apply drops
	// old's cache entry, and the deferred free withholds it (quarantined).
	u.old = []uint64{old}
	err := s.writeOne(w)
	if errors.Is(err, errStale) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("dstore: scrub: migrate block %d: %w", old, err)
	}
	s.health.remaps.Add(1)
	return true, nil
}
