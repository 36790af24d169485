package inplacestore

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"dstore/internal/baselines"
	"dstore/internal/kvapi"
)

func small(t *testing.T) *Store {
	t.Helper()
	s, err := New(Config{RigConfig: baselines.RigConfig{TrackPersistence: true}, Cells: 1024})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestBasicOps(t *testing.T) {
	s := small(t)
	defer s.Close()
	if err := s.Put("a", []byte("one")); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("a", nil)
	if err != nil || string(got) != "one" {
		t.Fatalf("get = %q, %v", got, err)
	}
	if err := s.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("a", nil); err != kvapi.ErrNotFound {
		t.Fatalf("get deleted: %v", err)
	}
}

func TestOverwriteInPlace(t *testing.T) {
	s := small(t)
	defer s.Close()
	s.Put("k", bytes.Repeat([]byte{1}, 4096))
	s.Put("k", bytes.Repeat([]byte{2}, 100))
	got, err := s.Get("k", nil)
	if err != nil || len(got) != 100 || got[0] != 2 {
		t.Fatalf("overwrite: %d bytes, %v", len(got), err)
	}
	// In-place: still exactly one live cell.
	_, pm, _ := s.FootprintBytes()
	if pm != uint64(stripes*undoSlot)+cellSize {
		t.Fatalf("pmem footprint = %d, want one cell", pm)
	}
}

func TestHeapFull(t *testing.T) {
	s, err := New(Config{Cells: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 4; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Put("overflow", []byte("v")); err == nil {
		t.Fatal("heap-full not reported")
	}
	s.Delete("k0")
	if err := s.Put("reuse", []byte("v")); err != nil {
		t.Fatalf("put after delete: %v", err)
	}
}

func TestCrashOutsideTransactionKeepsData(t *testing.T) {
	s := small(t)
	want := map[string]byte{}
	for i := 0; i < 50; i++ {
		k := fmt.Sprintf("k%02d", i)
		s.Put(k, bytes.Repeat([]byte{byte(i + 1)}, 512))
		want[k] = byte(i + 1)
	}
	s.Crash(3)
	metaNs, replayNs, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if metaNs <= 0 {
		t.Fatal("metadata phase unmeasured")
	}
	_ = replayNs
	for k, b := range want {
		got, err := s.Get(k, nil)
		if err != nil || got[0] != b {
			t.Fatalf("recovered %s: %v", k, err)
		}
	}
	s.Close()
}

func TestUndoRollsBackTornUpdate(t *testing.T) {
	s := small(t)
	s.Put("k", bytes.Repeat([]byte{0xAA}, 4096))

	// Start an update transaction by hand: undo persisted, cell half
	// mutated, no commit — then crash.
	cell := s.index["k"]
	off := s.cellOff(cell)
	st := stripeOf("k")
	undo := uint64(st * undoSlot)
	img := make([]byte, cellSize)
	s.PM.ReadAt(off, img)
	s.PM.PutU64(undo, off|1)
	s.PM.WriteAt(undo+8, img)
	s.PM.Persist(undo, undoSlot)
	// Torn in-place write: new bytes, never persisted, no commit.
	s.PM.WriteAt(off+128, bytes.Repeat([]byte{0xBB}, 2048))
	s.PM.Persist(off+128, 2048)

	s.Crash(4)
	if _, _, err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("k", nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range got {
		if b != 0xAA {
			t.Fatalf("undo did not roll back: found byte %#x", b)
		}
	}
	s.Close()
}

func TestNoCheckpointsNeeded(t *testing.T) {
	// The defining property: nothing periodic ever blocks the frontend.
	s := small(t)
	defer s.Close()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				k := fmt.Sprintf("g%dk%d", g, i%20)
				if err := s.Put(k, bytes.Repeat([]byte{byte(g)}, 2048)); err != nil {
					t.Errorf("put: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestFootprintSmallest(t *testing.T) {
	s := small(t)
	defer s.Close()
	for i := 0; i < 10; i++ {
		s.Put(fmt.Sprintf("k%d", i), bytes.Repeat([]byte{1}, 4096))
	}
	dram, pm, ssdB := s.FootprintBytes()
	if dram != 0 || ssdB != 0 {
		t.Fatalf("uncached store uses dram=%d ssd=%d", dram, ssdB)
	}
	if pm < 10*4096 {
		t.Fatalf("pmem footprint %d below data size", pm)
	}
}
