// Package meta implements DStore's metadata zone (paper §4.2, Fig. 4): a
// fixed-slot array of object metadata pages. Each slot records an object's
// name, logical size and the list of SSD blocks holding its data. Slots are
// allocated from the metadata pool; the B-tree maps object names to slot
// indices.
//
// The zone lives in an allocator-managed Space, so it is part of the arena
// cloned at checkpoints and recovered by the PMEM→DRAM copy; the same code
// runs on both spaces.
package meta

import (
	"errors"
	"fmt"

	"dstore/internal/alloc"
	"dstore/internal/space"
)

// ErrOutOfRange is the typed error wrapped when a slot or block index falls
// outside the zone geometry. Slot indices flow through the B-tree and
// logged records — both media-derived — so a bad index is a runtime
// condition, not a programming error.
var ErrOutOfRange = errors.New("meta: index out of range")

// ErrCorrupt is the typed error wrapped when zone state read back from the
// arena does not decode (inconsistent geometry header, a slot whose
// recorded name length or block count exceeds the zone limits).
var ErrCorrupt = errors.New("meta: zone corrupt")

const (
	hdrSlots     = 0
	hdrSlotSize  = 8
	hdrMaxName   = 16
	hdrMaxBlocks = 24
	hdrSize      = 32

	slotUsed    = 0 // u8
	slotNameLen = 2 // u16
	slotNBlocks = 4 // u32
	slotSizeOff = 8 // u64 logical object size
	slotName    = 16
	// After the name field (maxName bytes) come the block-id array
	// (8*maxBlocks) and the per-block CRC32C array (4*maxBlocks). Sum 0 is
	// the "unverified" sentinel: readers skip the check for that block (used
	// for blocks whose content is not known at log-append time).
)

// SumUnverified is the per-block checksum sentinel meaning "no checksum
// recorded": integrity verification is skipped for that block.
const SumUnverified uint32 = 0

// Zone is a metadata zone handle.
type Zone struct {
	sp        space.Space
	base      uint64
	slots     uint64
	slotSize  uint64
	maxName   uint64
	maxBlocks uint64
}

// Entry is a decoded metadata slot. Name aliases arena memory.
type Entry struct {
	Name   []byte
	Size   uint64
	Blocks []uint64
	// Sums holds one CRC32C (Castagnoli) per block, parallel to Blocks;
	// SumUnverified entries carry no integrity information.
	Sums []uint32
}

// New allocates a zone with the given geometry and returns it with its arena
// offset.
func New(al *alloc.Allocator, slots, maxName, maxBlocks uint64) (*Zone, uint64, error) {
	slotSize := (slotName + maxName + 8*maxBlocks + 4*maxBlocks + 7) &^ 7
	base, err := al.Alloc(hdrSize + slots*slotSize)
	if err != nil {
		return nil, 0, err
	}
	sp := al.Space()
	sp.PutU64(base+hdrSlots, slots)
	sp.PutU64(base+hdrSlotSize, slotSize)
	sp.PutU64(base+hdrMaxName, maxName)
	sp.PutU64(base+hdrMaxBlocks, maxBlocks)
	z, err := Open(al, base)
	if err != nil {
		return nil, 0, err
	}
	return z, base, nil
}

// Open attaches to an existing zone at base. The geometry header is
// media-derived (it survives crashes via the checkpoint arena), so Open
// validates it — the slot size must match the recorded name/block limits
// and the whole slot array must lie inside the arena — and returns
// ErrCorrupt otherwise. This validation is what makes the unexported slot
// arithmetic safe against corrupt headers.
func Open(al *alloc.Allocator, base uint64) (*Zone, error) {
	sp := al.Space()
	if base+hdrSize > sp.Size() || base+hdrSize < base {
		return nil, fmt.Errorf("%w: zone base %d outside arena (size %d)", ErrCorrupt, base, sp.Size())
	}
	z := &Zone{
		sp:        sp,
		base:      base,
		slots:     sp.GetU64(base + hdrSlots),
		slotSize:  sp.GetU64(base + hdrSlotSize),
		maxName:   sp.GetU64(base + hdrMaxName),
		maxBlocks: sp.GetU64(base + hdrMaxBlocks),
	}
	wantSlotSize := (slotName + z.maxName + 8*z.maxBlocks + 4*z.maxBlocks + 7) &^ uint64(7)
	if z.slotSize != wantSlotSize {
		return nil, fmt.Errorf("%w: slot size %d does not match geometry (name %d, blocks %d → %d)",
			ErrCorrupt, z.slotSize, z.maxName, z.maxBlocks, wantSlotSize)
	}
	if z.slotSize == 0 || z.slots > (sp.Size()-base-hdrSize)/z.slotSize {
		return nil, fmt.Errorf("%w: %d slots of %d bytes exceed arena (base %d, size %d)",
			ErrCorrupt, z.slots, z.slotSize, base, sp.Size())
	}
	return z, nil
}

// Slots returns the zone capacity in slots.
func (z *Zone) Slots() uint64 { return z.slots }

// MaxName returns the maximum object name length.
func (z *Zone) MaxName() uint64 { return z.maxName }

// MaxBlocks returns the maximum number of blocks per object.
func (z *Zone) MaxBlocks() uint64 { return z.maxBlocks }

// slotOff returns the arena offset of slot. Slot indices reach the zone
// from the B-tree and from logged records, both media-derived, so an
// out-of-range slot is reported as a typed error rather than a panic.
func (z *Zone) slotOff(slot uint64) (uint64, error) {
	if slot >= z.slots {
		return 0, fmt.Errorf("%w: slot %d (zone has %d)", ErrOutOfRange, slot, z.slots)
	}
	return z.base + hdrSize + slot*z.slotSize, nil
}

// blockIndex validates block index i against the zone's per-object limit.
func (z *Zone) blockIndex(i int) error {
	if i < 0 || uint64(i) >= z.maxBlocks {
		return fmt.Errorf("%w: block index %d (max %d per object)", ErrOutOfRange, i, z.maxBlocks)
	}
	return nil
}

func (z *Zone) blocksOff(off uint64) uint64 { return off + slotName + z.maxName }
func (z *Zone) sumsOff(off uint64) uint64   { return off + slotName + z.maxName + 8*z.maxBlocks }

// Write fills slot with an object's metadata — Fig. 4 step ⑥. sums holds the
// per-block CRC32C values, parallel to blocks; a nil sums records
// SumUnverified for every block.
func (z *Zone) Write(slot uint64, name []byte, size uint64, blocks []uint64, sums []uint32) error {
	if uint64(len(name)) > z.maxName {
		return fmt.Errorf("meta: name length %d exceeds max %d", len(name), z.maxName)
	}
	if uint64(len(blocks)) > z.maxBlocks {
		return fmt.Errorf("meta: %d blocks exceed max %d", len(blocks), z.maxBlocks)
	}
	if sums != nil && len(sums) != len(blocks) {
		return fmt.Errorf("meta: %d sums for %d blocks", len(sums), len(blocks))
	}
	off, err := z.slotOff(slot)
	if err != nil {
		return err
	}
	z.sp.PutU8(off+slotUsed, 1)
	z.sp.PutU16(off+slotNameLen, uint16(len(name)))
	z.sp.PutU32(off+slotNBlocks, uint32(len(blocks)))
	z.sp.PutU64(off+slotSizeOff, size)
	z.sp.Write(off+slotName, name)
	bb := z.blocksOff(off)
	sb := z.sumsOff(off)
	for i, b := range blocks {
		z.sp.PutU64(bb+8*uint64(i), b)
		s := SumUnverified
		if sums != nil {
			s = sums[i]
		}
		z.sp.PutU32(sb+4*uint64(i), s)
	}
	return nil
}

// SetSum records the CRC32C of the i-th block of a used slot.
func (z *Zone) SetSum(slot uint64, i int, sum uint32) error {
	off, err := z.slotOff(slot)
	if err != nil {
		return err
	}
	if err := z.blockIndex(i); err != nil {
		return err
	}
	z.sp.PutU32(z.sumsOff(off)+4*uint64(i), sum)
	return nil
}

// SetBlockID rewrites the i-th block id of a used slot (block remapping:
// quarantine repair migrates data to a fresh block and repoints the slot).
func (z *Zone) SetBlockID(slot uint64, i int, block uint64) error {
	off, err := z.slotOff(slot)
	if err != nil {
		return err
	}
	if err := z.blockIndex(i); err != nil {
		return err
	}
	z.sp.PutU64(z.blocksOff(off)+8*uint64(i), block)
	return nil
}

// Read decodes slot; ok is false if the slot is unused. A used slot whose
// recorded name length or block count exceeds the zone limits decodes as
// ErrCorrupt (the limits bound the slot layout, so larger values would read
// into neighboring slots).
func (z *Zone) Read(slot uint64) (Entry, bool, error) {
	return z.ReadInto(slot, nil, nil)
}

// ReadInto is Read with the entry's block and checksum lists decoded into
// blocks and sums when they have the capacity: a caller that hands in arrays
// on its stack with room for the object's blocks reads the slot without
// allocating. A list that does not fit is allocated at its exact size.
func (z *Zone) ReadInto(slot uint64, blocks []uint64, sums []uint32) (Entry, bool, error) {
	off, err := z.slotOff(slot)
	if err != nil {
		return Entry{}, false, err
	}
	if z.sp.GetU8(off+slotUsed) == 0 {
		return Entry{}, false, nil
	}
	nl := uint64(z.sp.GetU16(off + slotNameLen))
	nb := uint64(z.sp.GetU32(off + slotNBlocks))
	if nl > z.maxName {
		return Entry{}, false, fmt.Errorf("%w: slot %d name length %d exceeds max %d", ErrCorrupt, slot, nl, z.maxName)
	}
	if nb > z.maxBlocks {
		return Entry{}, false, fmt.Errorf("%w: slot %d block count %d exceeds max %d", ErrCorrupt, slot, nb, z.maxBlocks)
	}
	if uint64(cap(blocks)) < nb {
		blocks = make([]uint64, nb)
	}
	if uint64(cap(sums)) < nb {
		sums = make([]uint32, nb)
	}
	e := Entry{
		Name:   z.sp.Slice(off+slotName, nl),
		Size:   z.sp.GetU64(off + slotSizeOff),
		Blocks: blocks[:nb],
		Sums:   sums[:nb],
	}
	bb := z.blocksOff(off)
	sb := z.sumsOff(off)
	for i := range e.Blocks {
		e.Blocks[i] = z.sp.GetU64(bb + 8*uint64(i))
		e.Sums[i] = z.sp.GetU32(sb + 4*uint64(i))
	}
	return e, true, nil
}

// Clear marks slot unused.
func (z *Zone) Clear(slot uint64) error {
	off, err := z.slotOff(slot)
	if err != nil {
		return err
	}
	z.sp.PutU8(off+slotUsed, 0)
	return nil
}
