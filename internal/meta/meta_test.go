package meta

import (
	"errors"
	"testing"

	"dstore/internal/alloc"
	"dstore/internal/space"
)

func newZone(t *testing.T) (*Zone, *alloc.Allocator, uint64) {
	t.Helper()
	al := alloc.Format(space.NewDRAM(1 << 20))
	off, err := New(al, 64, 32, 8)
	if err != nil {
		t.Fatal(err)
	}
	z, err := Open(al, off)
	if err != nil {
		t.Fatal(err)
	}
	return z, al, off
}

func mustRead(t *testing.T, z *Zone, slot uint64) (Entry, bool) {
	t.Helper()
	e, ok, err := z.Read(slot)
	if err != nil {
		t.Fatal(err)
	}
	return e, ok
}

func TestWriteRead(t *testing.T) {
	z, _, _ := newZone(t)
	blocks := []uint64{10, 20, 30}
	if err := z.Write(5, []byte("object-a"), 12288, blocks, nil); err != nil {
		t.Fatal(err)
	}
	e, ok := mustRead(t, z, 5)
	if !ok {
		t.Fatal("slot not used")
	}
	if string(e.Name) != "object-a" || e.Size != 12288 || len(e.Blocks) != 3 {
		t.Fatalf("entry = %+v", e)
	}
	for i, b := range blocks {
		if e.Blocks[i] != b {
			t.Fatalf("blocks = %v", e.Blocks)
		}
	}
}

func TestUnusedSlot(t *testing.T) {
	z, _, _ := newZone(t)
	if _, ok := mustRead(t, z, 0); ok {
		t.Fatal("fresh slot reads as used")
	}
}

func TestClear(t *testing.T) {
	z, _, _ := newZone(t)
	if err := z.Write(1, []byte("x"), 1, []uint64{1}, nil); err != nil {
		t.Fatal(err)
	}
	if err := z.Clear(1); err != nil {
		t.Fatal(err)
	}
	if _, ok := mustRead(t, z, 1); ok {
		t.Fatal("cleared slot still used")
	}
}

func TestLimitsEnforced(t *testing.T) {
	z, _, _ := newZone(t)
	longName := make([]byte, 33)
	if err := z.Write(0, longName, 1, nil, nil); err == nil {
		t.Fatal("oversize name accepted")
	}
	manyBlocks := make([]uint64, 9)
	if err := z.Write(0, []byte("k"), 1, manyBlocks, nil); err == nil {
		t.Fatal("too many blocks accepted")
	}
}

func TestSlotOutOfRange(t *testing.T) {
	z, _, _ := newZone(t)
	if _, _, err := z.Read(64); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("Read(64): got %v, want ErrOutOfRange", err)
	}
	if err := z.Clear(64); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("Clear(64): got %v, want ErrOutOfRange", err)
	}
	if err := z.SetSum(0, 8, 1); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("SetSum(0, 8): got %v, want ErrOutOfRange", err)
	}
	if err := z.SetBlockID(0, -1, 1); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("SetBlockID(0, -1): got %v, want ErrOutOfRange", err)
	}
}

func TestCorruptSlotDetected(t *testing.T) {
	z, al, off := newZone(t)
	if err := z.Write(4, []byte("victim"), 64, []uint64{1}, nil); err != nil {
		t.Fatal(err)
	}
	// Media corruption: scribble a name length beyond the zone limit.
	slotBase := off + hdrSize + 4*z.slotSize
	al.Space().PutU16(slotBase+slotNameLen, 999)
	if _, _, err := z.Read(4); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Read of corrupt slot: got %v, want ErrCorrupt", err)
	}
}

func TestOpenRejectsCorruptGeometry(t *testing.T) {
	_, al, off := newZone(t)
	al.Space().PutU64(off+hdrSlotSize, 8) // inconsistent with maxName/maxBlocks
	if _, err := Open(al, off); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open with corrupt slot size: got %v, want ErrCorrupt", err)
	}
	al.Space().PutU64(off+hdrSlotSize, (slotName+32+8*8+4*8+7)&^7)
	al.Space().PutU64(off+hdrSlots, 1<<40) // slot array beyond the arena
	if _, err := Open(al, off); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open with oversize slot count: got %v, want ErrCorrupt", err)
	}
}

func TestOpenRoundTrip(t *testing.T) {
	z, al, off := newZone(t)
	if err := z.Write(3, []byte("persist"), 999, []uint64{1, 2}, nil); err != nil {
		t.Fatal(err)
	}
	z2, err := Open(al, off)
	if err != nil {
		t.Fatal(err)
	}
	if z2.Slots() != 64 || z2.maxName != 32 || z2.MaxBlocks() != 8 {
		t.Fatalf("geometry lost: %d/%d/%d", z2.Slots(), z2.maxName, z2.MaxBlocks())
	}
	e, ok := mustRead(t, z2, 3)
	if !ok || string(e.Name) != "persist" || e.Size != 999 {
		t.Fatalf("entry = %+v ok=%v", e, ok)
	}
}

func TestCloneIndependence(t *testing.T) {
	z, al, off := newZone(t)
	if err := z.Write(1, []byte("orig"), 1, []uint64{1}, nil); err != nil {
		t.Fatal(err)
	}
	clone, err := al.CloneTo(space.NewDRAM(1 << 20))
	if err != nil {
		t.Fatal(err)
	}
	cz, err := Open(clone, off)
	if err != nil {
		t.Fatal(err)
	}
	if err := cz.Write(1, []byte("newv"), 2, []uint64{2}, nil); err != nil {
		t.Fatal(err)
	}
	e, _ := mustRead(t, z, 1)
	if string(e.Name) != "orig" {
		t.Fatal("clone write leaked into source zone")
	}
}

func TestSlotsIndependent(t *testing.T) {
	z, _, _ := newZone(t)
	for i := uint64(0); i < 64; i++ {
		name := []byte{byte('a' + i%26), byte('0' + i/26)}
		if err := z.Write(i, name, i, []uint64{i}, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < 64; i++ {
		e, ok := mustRead(t, z, i)
		if !ok || e.Size != i || e.Blocks[0] != i {
			t.Fatalf("slot %d corrupted: %+v", i, e)
		}
	}
}

// TestZoneLargerThanAnAllocatorClass pins that the zone is reserved at its
// exact size rather than taken from a size class: a 69 MB zone — 540,000
// slots of 128 bytes, beyond any class — formats in a 72 MiB arena, and its
// last slot reads back and survives a clone.
func TestZoneLargerThanAnAllocatorClass(t *testing.T) {
	const slots, maxName, maxBlocks = 540000, 64, 4
	if Bytes(1, maxName, maxBlocks) != hdrSize+128 || Bytes(slots, maxName, maxBlocks) <= 64<<20 {
		t.Fatalf("geometry gives a %d-byte zone", Bytes(slots, maxName, maxBlocks))
	}
	al := alloc.Format(space.NewDRAM(72 << 20))
	off, err := New(al, slots, maxName, maxBlocks)
	if err != nil {
		t.Fatal(err)
	}
	z, err := Open(al, off)
	if err != nil {
		t.Fatal(err)
	}
	if err := z.Write(slots-1, []byte("last"), 7, []uint64{1, 2, 3, 4}, []uint32{5, 6, 7, 8}); err != nil {
		t.Fatal(err)
	}
	clone, err := al.CloneTo(space.NewDRAM(72 << 20))
	if err != nil {
		t.Fatal(err)
	}
	cz, err := Open(clone, off)
	if err != nil {
		t.Fatal(err)
	}
	for _, z := range []*Zone{z, cz} {
		e, ok := mustRead(t, z, slots-1)
		if !ok || string(e.Name) != "last" || e.Size != 7 || e.Blocks[3] != 4 || e.Sums[3] != 8 {
			t.Fatalf("last slot = %+v, used %v", e, ok)
		}
	}
}
