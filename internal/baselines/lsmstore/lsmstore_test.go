package lsmstore

import (
	"bytes"
	"fmt"
	"testing"

	"dstore/internal/baselines"
	"dstore/internal/kvapi"
)

// stalls reads the write-stall count.
func stalls(s *Store) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stalls
}

func small(t *testing.T) *Store {
	t.Helper()
	s, err := New(Config{
		RigConfig:     baselines.RigConfig{Blocks: 4096},
		MemtableBytes: 32 << 10,
		MaxL0Files:    2,
		WALBytes:      1 << 20,
	})
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

func TestReadThroughLevels(t *testing.T) {
	s := small(t)
	defer s.Close()
	// Enough 4 KB values to force rotations and compactions to L1.
	for i := 0; i < 64; i++ {
		if err := s.Put(fmt.Sprintf("k%02d", i), bytes.Repeat([]byte{byte(i)}, 4096)); err != nil {
			t.Fatal(err)
		}
	}
	// Every key readable regardless of which level holds it.
	for i := 0; i < 64; i++ {
		got, err := s.Get(fmt.Sprintf("k%02d", i), nil)
		if err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
		if got[0] != byte(i) {
			t.Fatalf("get %d: wrong data", i)
		}
	}
}

func TestWriteStallsHappen(t *testing.T) {
	s := small(t)
	defer s.Close()
	for i := 0; i < 400; i++ {
		if err := s.Put(fmt.Sprintf("k%03d", i), bytes.Repeat([]byte{1}, 4096)); err != nil {
			t.Fatal(err)
		}
	}
	if stalls(s) == 0 {
		t.Fatal("no write stalls under heavy write load (the RocksDB pathology must appear)")
	}
}

func TestDisableCompactionNeverStalls(t *testing.T) {
	s, err := New(Config{
		RigConfig:         baselines.RigConfig{Blocks: 4096},
		MemtableBytes:     32 << 10,
		MaxL0Files:        2,
		WALBytes:          1 << 20,
		DisableCompaction: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		if err := s.Put(fmt.Sprintf("k%03d", i), bytes.Repeat([]byte{1}, 4096)); err != nil {
			t.Fatal(err)
		}
	}
	if n := stalls(s); n != 0 {
		t.Fatalf("stalls with compaction disabled: %d", n)
	}
	// Close without the background loop consuming L0 compactions.
	s.Halt()
}

func TestOverwriteLatestWins(t *testing.T) {
	s := small(t)
	defer s.Close()
	for round := 0; round < 5; round++ {
		for i := 0; i < 30; i++ {
			v := bytes.Repeat([]byte{byte(round*37 + i)}, 4096)
			if err := s.Put(fmt.Sprintf("k%02d", i), v); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 30; i++ {
		got, err := s.Get(fmt.Sprintf("k%02d", i), nil)
		if err != nil || got[0] != byte(4*37+i) {
			t.Fatalf("k%02d: got %d, err %v", i, got[0], err)
		}
	}
}

func TestCleanRecovery(t *testing.T) {
	s, err := New(Config{RigConfig: baselines.RigConfig{Blocks: 4096, TrackPersistence: true}, MemtableBytes: 32 << 10, WALBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		s.Put(fmt.Sprintf("k%02d", i), bytes.Repeat([]byte{byte(i)}, 1024))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		got, err := s.Get(fmt.Sprintf("k%02d", i), nil)
		if err != nil || got[0] != byte(i) {
			t.Fatalf("recovered k%02d: %v", i, err)
		}
	}
	s.Close()
}

func TestFootprintReservesCache(t *testing.T) {
	s := small(t)
	defer s.Close()
	dram, pm, _ := s.FootprintBytes()
	if dram < reservedCacheBytes {
		t.Fatalf("dram footprint %d below reserved cache", dram)
	}
	if pm != 64+s.cfg.WALBytes+baselines.TableBytes {
		t.Fatalf("pmem footprint = %d", pm)
	}
}
