package dstore

import (
	"fmt"
	"sync"
	"testing"

	"dstore/internal/pmem"
	"dstore/internal/space"
)

// newCowForTest returns a DRAM arena behind a CoW barrier, and the barrier.
func newCowForTest(t *testing.T, arenaBytes uint64) (*cowSpace, *space.Arena) {
	t.Helper()
	dev := pmem.New(pmem.Config{Size: int(arenaBytes), TrackPersistence: true})
	inner := space.NewDRAM(arenaBytes)
	scratch := space.MustPMEM(dev, 0, arenaBytes)
	return newCowSpace(inner, scratch, 4096), inner
}

func TestCowInactivePassthrough(t *testing.T) {
	c, a := newCowForTest(t, 1<<16)
	a.Write(0, []byte("plain"))
	a.PutU64(8, 42)
	if string(a.Slice(0, 5)) != "plain" || a.GetU64(8) != 42 {
		t.Fatal("passthrough broken")
	}
	if c.pagesCopied.Load() != 0 {
		t.Fatal("copies without a freeze")
	}
}

func TestCowFreezeThenWriteCopiesOnce(t *testing.T) {
	c, a := newCowForTest(t, 1<<16)
	a.Write(0, []byte("original page content"))
	c.freeze(2 * 4096) // protect pages 0 and 1

	a.PutU8(10, 'X') // faults page 0
	if c.faultCopies.Load() != 1 || c.pagesCopied.Load() != 1 {
		t.Fatalf("copies after first store: fault=%d total=%d", c.faultCopies.Load(), c.pagesCopied.Load())
	}
	// The scratch snapshot holds the pre-write image.
	if string(c.scratch.Slice(0, 8)) != "original" {
		t.Fatalf("scratch = %q", c.scratch.Slice(0, 8))
	}
	// A second store to the same page must not copy again.
	a.PutU8(11, 'Y')
	if c.pagesCopied.Load() != 1 {
		t.Fatal("page copied twice")
	}
	// Page 1 still protected until touched or swept.
	a.PutU8(4096, 'Z')
	if c.pagesCopied.Load() != 2 {
		t.Fatal("second page not copied on fault")
	}
}

func TestCowSweepCopiesRemainder(t *testing.T) {
	c, a := newCowForTest(t, 1<<16)
	const pages = 10
	c.freeze(pages * 4096)
	a.PutU8(0, 1) // client copies page 0
	c.sweep()     // sweeper copies the other nine
	if got := c.pagesCopied.Load(); got != pages {
		t.Fatalf("pages copied = %d, want %d", got, pages)
	}
	if c.active.Load() {
		t.Fatal("protection still active after sweep")
	}
	// Post-sweep stores are free.
	before := c.pagesCopied.Load()
	a.PutU8(1, 2)
	if c.pagesCopied.Load() != before {
		t.Fatal("copy after sweep deactivated protection")
	}
}

func TestCowWriteSpanningPages(t *testing.T) {
	c, a := newCowForTest(t, 1<<16)
	c.freeze(4 * 4096)
	a.Write(4090, make([]byte, 100)) // spans pages 0 and 1
	if c.pagesCopied.Load() != 2 {
		t.Fatalf("spanning write copied %d pages, want 2", c.pagesCopied.Load())
	}
}

func TestCowConcurrentWritersCopyEachPageOnce(t *testing.T) {
	c, a := newCowForTest(t, 1<<20)
	const pages = 64
	for round := 0; round < 20; round++ {
		c.freeze(pages * 4096)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for p := 0; p < pages; p++ {
					a.PutU8(uint64(p)*4096+uint64(g), byte(g))
				}
			}(g)
		}
		go c.sweep()
		wg.Wait()
		// Wait for the sweeper to finish (active flips off at its end).
		for c.active.Load() {
		}
		if got := c.pagesCopied.Load(); got != uint64((round+1)*pages) {
			t.Fatalf("round %d: pages copied = %d, want %d (each page exactly once)",
				round, got, (round+1)*pages)
		}
	}
}

func TestCloseNoCheckpointReplaysOnReopen(t *testing.T) {
	cfg := testConfig()
	s := newStoreT(t, cfg)
	ctx := s.Init()
	for i := 0; i < 50; i++ {
		ctx.Put(fmt.Sprintf("k%02d", i), val(byte(i), 300))
	}
	if err := s.CloseNoCheckpoint(); err != nil {
		t.Fatal(err)
	}
	cfg.PMEM, cfg.SSD = s.Devices()
	s2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	_, replayNs := s2.Engine().RecoveryBreakdown()
	if replayNs <= 0 {
		t.Fatal("no log replay despite skipping the final checkpoint")
	}
	for i := 0; i < 50; i++ {
		got, err := s2.Init().Get(fmt.Sprintf("k%02d", i), nil)
		if err != nil || got[0] != byte(i) {
			t.Fatalf("k%02d: %v", i, err)
		}
	}
	if err := s2.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestPrepareWorstCaseCrashStoreLevel(t *testing.T) {
	cfg := testConfig()
	s := newStoreT(t, cfg)
	ctx := s.Init()
	for i := 0; i < 40; i++ {
		ctx.Put(fmt.Sprintf("k%02d", i), val(byte(i), 200))
	}
	s.PrepareWorstCaseCrash()
	root, err := s.Engine().RootState()
	if err != nil {
		t.Fatal(err)
	}
	if root.CkptInProgress != 1 {
		t.Fatalf("root = %+v", root)
	}
	cfg.PMEM, cfg.SSD, err = s.Crash(13)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	metaNs, _ := s2.Engine().RecoveryBreakdown()
	if metaNs <= 0 {
		t.Fatal("checkpoint redo not measured")
	}
	for i := 0; i < 40; i++ {
		if _, err := s2.Init().Get(fmt.Sprintf("k%02d", i), nil); err != nil {
			t.Fatalf("k%02d lost: %v", i, err)
		}
	}
	if err := s2.Check(); err != nil {
		t.Fatal(err)
	}
}
