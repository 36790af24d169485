package alloc

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"dstore/internal/pmem"
	"dstore/internal/space"
)

func newArena(t *testing.T, size uint64) *Allocator {
	t.Helper()
	return Format(space.NewDRAM(size))
}

func TestClassFor(t *testing.T) {
	cases := []struct {
		n    uint64
		want int
	}{
		{1, 0},
		{56, 0},
		{57, 1}, // 57+8 > 64
		{120, 1},
		{121, 2},
		{248, 2},
		{249, 3},
		{504, 3}, // a B+ tree node: 496 bytes
		{505, -1},
		{1<<20 - 8, -1},
	}
	for _, c := range cases {
		if got := classFor(c.n); got != c.want {
			t.Errorf("classFor(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	a := newArena(t, 1<<20)
	if _, err := a.Alloc(505); err == nil {
		t.Error("Alloc(505) found a class")
	}
}

func TestAllocZeroesAndSeparates(t *testing.T) {
	a := newArena(t, 1<<20)
	o1, err := a.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	o2, err := a.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if o1 == o2 {
		t.Fatal("two allocations share an offset")
	}
	for _, b := range a.Space().Slice(o1, 100) {
		if b != 0 {
			t.Fatal("allocation not zeroed")
		}
	}
	a.Space().Write(o1, []byte("xxxx"))
	if string(a.Space().Slice(o2, 4)) == "xxxx" {
		t.Fatal("allocations overlap")
	}
}

func TestFreeReuses(t *testing.T) {
	a := newArena(t, 1<<20)
	o1, _ := a.Alloc(100)
	a.Free(o1)
	o2, _ := a.Alloc(100)
	if o1 != o2 {
		t.Fatalf("free block not reused: %d then %d", o1, o2)
	}
}

func TestFreeDifferentClassesDoNotMix(t *testing.T) {
	a := newArena(t, 1<<20)
	small, _ := a.Alloc(10)
	a.Free(small)
	big, _ := a.Alloc(300)
	if big == small {
		t.Fatal("300-byte alloc reused a 64-byte block")
	}
}

func TestExhaustion(t *testing.T) {
	a := newArena(t, HeaderSize+128)
	if _, err := a.Alloc(56); err != nil {
		t.Fatalf("first alloc failed: %v", err)
	}
	if _, err := a.Alloc(56); err != nil {
		t.Fatalf("second alloc failed: %v", err)
	}
	if _, err := a.Alloc(56); err == nil {
		t.Fatal("expected exhaustion error")
	}
}

func TestDoubleFreeReported(t *testing.T) {
	a := newArena(t, 1<<20)
	o, _ := a.Alloc(100)
	if err := a.Free(o); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(o); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("double free: got %v, want ErrCorrupt", err)
	}
}

func TestFreeOutOfRange(t *testing.T) {
	a := newArena(t, 1<<20)
	if err := a.Free(3); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("Free(3): got %v, want ErrOutOfRange", err)
	}
	if err := a.Free(1 << 30); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("Free(huge): got %v, want ErrOutOfRange", err)
	}
}

func TestOpenRejectsCorruptBump(t *testing.T) {
	sp := space.NewDRAM(1 << 16)
	Format(sp)
	sp.PutU64(offBump, sp.Size()+64) // media corruption: bump beyond the arena
	if _, err := Open(sp); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open with corrupt bump: got %v, want ErrCorrupt", err)
	}
}

func TestAllocRejectsCorruptFreeList(t *testing.T) {
	a := newArena(t, 1<<20)
	o, _ := a.Alloc(100)
	if err := a.Free(o); err != nil {
		t.Fatal(err)
	}
	// Scribble the class-1 free-list head to point outside the heap.
	c := classFor(100)
	a.Space().PutU64(uint64(offFreeHeads+8*c), 1<<40)
	if _, err := a.Alloc(100); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Alloc from corrupt free list: got %v, want ErrCorrupt", err)
	}
}

func TestRoots(t *testing.T) {
	a := newArena(t, 1<<20)
	a.SetRoot(0, 12345)
	a.SetRoot(NumRoots-1, 999)
	if a.Root(0) != 12345 || a.Root(NumRoots-1) != 999 {
		t.Fatal("root round trip failed")
	}
}

func TestOpenRejectsUnformatted(t *testing.T) {
	if _, err := Open(space.NewDRAM(1 << 16)); err == nil {
		t.Fatal("Open accepted an unformatted space")
	}
}

func TestOpenAfterFormat(t *testing.T) {
	sp := space.NewDRAM(1 << 16)
	a := Format(sp)
	o, _ := a.Alloc(100)
	a.Space().Write(o, []byte("persist me"))
	a.SetRoot(0, o)

	b, err := Open(sp)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(b.Space().Slice(b.Root(0), 10)); got != "persist me" {
		t.Fatalf("reopened arena lost data: %q", got)
	}
}

func TestCloneToPreservesEverything(t *testing.T) {
	src := Format(space.NewDRAM(1 << 18))
	offs := make([]uint64, 0, 50)
	for i := 0; i < 50; i++ {
		o, err := src.Alloc(uint64(10 + i*7))
		if err != nil {
			t.Fatal(err)
		}
		src.Space().Write(o, []byte{byte(i), byte(i + 1)})
		offs = append(offs, o)
	}
	src.Free(offs[10])
	src.SetRoot(0, offs[0])

	dst := space.NewDRAM(1 << 18)
	clone, err := src.CloneTo(dst)
	if err != nil {
		t.Fatal(err)
	}
	if clone.Root(0) != offs[0] {
		t.Fatal("clone lost root")
	}
	for i, o := range offs {
		if i == 10 {
			continue
		}
		got := clone.Space().Slice(o, 2)
		if got[0] != byte(i) || got[1] != byte(i+1) {
			t.Fatalf("clone block %d corrupted", i)
		}
	}
	// The clone carries the free list, and taking from it leaves the
	// source's alone: both hand out the freed block next.
	for _, a := range []*Allocator{clone, src} {
		if o, err := a.Alloc(10 + 10*7); err != nil || o != offs[10] {
			t.Fatalf("Alloc after the clone = %d, %v; want the freed block %d", o, err, offs[10])
		}
	}
}

// TestReserve pins the metadata zone's way into the arena: a line-aligned,
// zeroed region with no block header that moves the bump pointer only when
// it fits and survives cloning and a PMEM round trip.
func TestReserve(t *testing.T) {
	const size = 1 << 16
	dev := pmem.New(pmem.Config{Size: size, TrackPersistence: true})
	pm := &space.MustPMEM(dev, 0, size).Arena
	// A clone destination still holds old bytes past the prefix it receives.
	pm.Write(0, bytes.Repeat([]byte{0xAB}, size))
	src := Format(space.NewDRAM(size))
	if _, err := src.Alloc(100); err != nil {
		t.Fatal(err)
	}
	a, err := src.CloneTo(pm)
	if err != nil {
		t.Fatal(err)
	}
	before := a.Used()
	off, err := a.Reserve(1000)
	if err != nil {
		t.Fatal(err)
	}
	if off != before || off%64 != 0 || a.Used() != off+1024 {
		t.Fatalf("Reserve(1000) = %d with used %d → %d; want a line-aligned 1024 bytes at the bump pointer", off, before, a.Used())
	}
	if !bytes.Equal(a.Space().Slice(off, 1024), make([]byte, 1024)) {
		t.Fatal("reserved region not zeroed")
	}
	if err := a.Free(off); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Free of a reserved region: got %v, want ErrCorrupt", err)
	}
	used := a.Used()
	if _, err := a.Reserve(size); err == nil || a.Used() != used {
		t.Fatalf("Reserve past the end: err %v, used %d → %d", err, used, a.Used())
	}
	a.Space().Write(off, []byte("zone"))
	a.Space().Write(off+996, []byte("tail"))
	a.SetRoot(1, off)
	a.FlushAll()
	dev.Crash(pmem.CrashDropDirty, 3)
	reopened, err := Open(pm)
	if err != nil {
		t.Fatal(err)
	}
	back, err := reopened.CloneTo(space.NewDRAM(size))
	if err != nil {
		t.Fatal(err)
	}
	sp, r := back.Space(), back.Root(1)
	if string(sp.Slice(r, 4)) != "zone" || string(sp.Slice(r+996, 4)) != "tail" || back.Used() != used {
		t.Fatalf("reserved region lost in the round trip: %q %q, used %d", sp.Slice(r, 4), sp.Slice(r+996, 4), back.Used())
	}
}

func TestCloneToPMEMAndBack(t *testing.T) {
	// DRAM -> PMEM -> DRAM round trip: the recovery path.
	src := Format(space.NewDRAM(1 << 16))
	o, _ := src.Alloc(200)
	src.Space().Write(o, []byte("round trip"))
	src.SetRoot(1, o)

	dev := pmem.New(pmem.Config{Size: 1 << 16, TrackPersistence: true})
	pm := &space.MustPMEM(dev, 0, 1<<16).Arena
	shadow, err := src.CloneTo(pm)
	if err != nil {
		t.Fatal(err)
	}
	shadow.FlushAll()
	dev.Crash(pmem.CrashDropDirty, 1)

	reopened, err := Open(pm)
	if err != nil {
		t.Fatal(err)
	}
	back := space.NewDRAM(1 << 16)
	vol, err := reopened.CloneTo(back)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(vol.Space().Slice(vol.Root(1), 10)); got != "round trip" {
		t.Fatalf("PMEM round trip lost data: %q", got)
	}
}

func TestFlushAllMakesArenaDurable(t *testing.T) {
	dev := pmem.New(pmem.Config{Size: 1 << 16, TrackPersistence: true})
	pm := &space.MustPMEM(dev, 0, 1<<16).Arena
	a := Format(pm)
	o, _ := a.Alloc(100)
	a.Space().Write(o, []byte("durable"))
	a.SetRoot(0, o)
	a.FlushAll()
	dev.Crash(pmem.CrashDropDirty, 7)
	b, err := Open(pm)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(b.Space().Slice(b.Root(0), 7)); got != "durable" {
		t.Fatalf("arena lost data after crash: %q", got)
	}
}

func TestConcurrentAllocFree(t *testing.T) {
	a := newArena(t, 1<<22)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			mine := make([]uint64, 0, 64)
			for i := 0; i < 500; i++ {
				if len(mine) > 0 && rng.Intn(2) == 0 {
					k := rng.Intn(len(mine))
					a.Free(mine[k])
					mine = append(mine[:k], mine[k+1:]...)
				} else {
					o, err := a.Alloc(uint64(1 + rng.Intn(500)))
					if err != nil {
						continue
					}
					a.Space().PutU64(o, uint64(g)<<32|uint64(i))
					mine = append(mine, o)
				}
			}
			for _, o := range mine {
				if a.Space().GetU64(o)>>32 != uint64(g) {
					t.Errorf("goroutine %d: block overwritten by another goroutine", g)
					return
				}
				a.Free(o)
			}
		}(g)
	}
	wg.Wait()
	// Every block ever carved is back on a free list.
	free := uint64(0)
	for c := 0; c < NumClasses; c++ {
		for b := a.Space().GetU64(uint64(offFreeHeads + 8*c)); b != 0; b = a.Space().GetU64(b + 8) {
			free += classSize(c)
		}
	}
	if carved := a.Used() - HeaderSize; free != carved {
		t.Fatalf("leaked %d of %d carved bytes", carved-free, carved)
	}
}

// Property: any interleaving of allocs and frees never hands out overlapping
// live blocks.
func TestQuickNoOverlap(t *testing.T) {
	type interval struct{ lo, hi uint64 }
	f := func(sizes []uint16, frees []uint8) bool {
		a := Format(space.NewDRAM(1 << 22))
		live := map[uint64]interval{}
		fi := 0
		for _, s := range sizes {
			sz := uint64(s%504) + 1
			o, err := a.Alloc(sz)
			if err != nil {
				continue
			}
			iv := interval{o, o + sz}
			for _, other := range live {
				if iv.lo < other.hi && other.lo < iv.hi {
					return false
				}
			}
			live[o] = iv
			if fi < len(frees) && len(live) > 0 && frees[fi]%3 == 0 {
				for k := range live {
					a.Free(k)
					delete(live, k)
					break
				}
			}
			fi++
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
