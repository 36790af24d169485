package btreestore

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"dstore/internal/baselines"
	"dstore/internal/kvapi"
)

// checkpoints reads the completed-checkpoint count.
func checkpoints(s *Store) uint64 {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	return s.checkpoints
}

func small(t *testing.T) *Store {
	t.Helper()
	s, err := New(Config{
		RigConfig:    baselines.RigConfig{Blocks: 4096},
		JournalBytes: 1 << 20,
		CacheBytes:   64 << 10,
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

func TestEvictionWritesThrough(t *testing.T) {
	s := small(t)
	defer s.Close()
	// More data than the 64 KiB cache: pages must round-trip via SSD.
	for i := 0; i < 64; i++ {
		if err := s.Put(fmt.Sprintf("k%02d", i), bytes.Repeat([]byte{byte(i)}, 4096)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		got, err := s.Get(fmt.Sprintf("k%02d", i), nil)
		if err != nil || got[0] != byte(i) {
			t.Fatalf("k%02d: %v", i, err)
		}
	}
}

func TestCheckpointBlocksClients(t *testing.T) {
	s := small(t)
	defer s.Close()
	for i := 0; i < 8; i++ {
		s.Put(fmt.Sprintf("k%d", i), bytes.Repeat([]byte{1}, 4096))
	}
	// Hold the cache lock the way a checkpoint does and verify a client op
	// cannot complete meanwhile — the Fig. 1 mechanism.
	s.cacheMu.Lock()
	done := make(chan struct{})
	go func() {
		s.Put("blocked", []byte("x"))
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("put completed during a checkpoint's cache lock")
	case <-time.After(20 * time.Millisecond):
	}
	s.cacheMu.Unlock()
	<-done
}

func TestCheckpointTruncatesJournal(t *testing.T) {
	s := small(t)
	defer s.Close()
	for i := 0; i < 16; i++ {
		s.Put(fmt.Sprintf("k%d", i), bytes.Repeat([]byte{1}, 2048))
	}
	s.Checkpoint()
	s.stateMu.Lock()
	used := s.journal.Used()
	s.stateMu.Unlock()
	if used != 0 {
		t.Fatalf("journal not truncated: %d bytes in use", used)
	}
	if checkpoints(s) == 0 {
		t.Fatal("checkpoint not counted")
	}
}

func TestJournalPressureTriggersCheckpoint(t *testing.T) {
	s, err := New(Config{RigConfig: baselines.RigConfig{Blocks: 4096}, JournalBytes: 128 << 10, CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 200; i++ {
		if err := s.Put(fmt.Sprintf("k%03d", i%20), bytes.Repeat([]byte{1}, 4096)); err != nil {
			t.Fatal(err)
		}
	}
	// Allow async checkpoints to land.
	deadline := time.Now().Add(2 * time.Second)
	for checkpoints(s) == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if checkpoints(s) == 0 {
		t.Fatal("journal pressure never triggered a checkpoint")
	}
}

func TestConcurrentClients(t *testing.T) {
	s := small(t)
	defer s.Close()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := fmt.Sprintf("g%dk%d", g, i%10)
				if err := s.Put(k, bytes.Repeat([]byte{byte(g)}, 1024)); err != nil {
					t.Errorf("put: %v", err)
					return
				}
				if _, err := s.Get(k, nil); err != nil {
					t.Errorf("get: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestCrashRecoveryReplaysJournal(t *testing.T) {
	s, err := New(Config{RigConfig: baselines.RigConfig{Blocks: 4096, TrackPersistence: true}, JournalBytes: 1 << 20, CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		s.Put(fmt.Sprintf("k%02d", i), bytes.Repeat([]byte{byte(i)}, 2048))
	}
	s.Checkpoint()
	for i := 20; i < 30; i++ {
		s.Put(fmt.Sprintf("k%02d", i), bytes.Repeat([]byte{byte(i)}, 2048))
	}
	s.Crash(5)
	metaNs, replayNs, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	_ = metaNs
	_ = replayNs
	for i := 0; i < 30; i++ {
		got, err := s.Get(fmt.Sprintf("k%02d", i), nil)
		if err != nil || got[0] != byte(i) {
			t.Fatalf("recovered k%02d: %v", i, err)
		}
	}
	s.Close()
}
