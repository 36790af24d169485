package dstore

import (
	"bytes"
	"fmt"
	"testing"
	"time"
)

// Tests for the comparison modes (CoW, physical logging), olock semantics,
// and OE-specific behaviour.

func TestCoWFaultCopiesHappen(t *testing.T) {
	cfg := testConfig()
	cfg.Mode = ModeCoW
	s := newStoreT(t, cfg)
	defer s.Close()
	ctx := s.Init()
	for i := 0; i < 50; i++ {
		ctx.Put(fmt.Sprintf("k%02d", i), val('a', 2048))
	}
	// Freeze via an explicit checkpoint; the writes racing with it must
	// fault and copy pages.
	done := make(chan error, 1)
	go func() { done <- s.CheckpointNow() }()
	for i := 0; i < 200; i++ {
		if err := ctx.Put(fmt.Sprintf("k%02d", i%50), val(byte(i), 2048)); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.CowPagesCopied == 0 {
		t.Fatal("CoW checkpoint copied no pages")
	}
	// Data remains correct under CoW.
	got, err := ctx.Get("k00", nil)
	if err != nil || len(got) != 2048 {
		t.Fatalf("get after CoW checkpoint: %v", err)
	}
}

func TestCowSweepCompletesProtection(t *testing.T) {
	cfg := testConfig()
	cfg.Mode = ModeCoW
	s := newStoreT(t, cfg)
	defer s.Close()
	ctx := s.Init()
	for i := 0; i < 20; i++ {
		ctx.Put(fmt.Sprintf("k%02d", i), val('x', 1024))
	}
	if err := s.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	// After the checkpoint returns, protection must be off: a write must not
	// increase fault copies.
	before := s.Stats().CowFaultCopies
	ctx.Put("k00", val('y', 1024))
	if s.Stats().CowFaultCopies != before {
		t.Fatal("page protection still active after checkpoint completed")
	}
}

func TestPhysicalModeInflatesLog(t *testing.T) {
	base := testConfig()
	phys := testConfig()
	phys.Mode = ModePhysical

	countRecords := func(cfg Config) uint64 {
		s := newStoreT(t, cfg)
		defer s.Close()
		ctx := s.Init()
		for i := 0; i < 20; i++ {
			if err := ctx.Put(fmt.Sprintf("k%02d", i), val('x', 512)); err != nil {
				t.Fatal(err)
			}
		}
		return s.Engine().Pair().Active().Tail()
	}
	logical := countRecords(base)
	physical := countRecords(phys)
	if physical < logical+20*physicalImageBytes {
		t.Fatalf("physical log tail %d vs logical %d: images not logged", physical, logical)
	}
}

func TestLockHolderMayWriteLockedObject(t *testing.T) {
	s := newStoreT(t, testConfig())
	defer s.Close()
	ctx := s.Init()
	if err := ctx.Lock("obj"); err != nil {
		t.Fatal(err)
	}
	// The holder's own operations on the locked object must proceed
	// (reentrancy via the ignore-LSN CC path)...
	if err := ctx.Put("obj", []byte("mine")); err != nil {
		t.Fatal(err)
	}
	got, err := ctx.Get("obj", nil)
	if err != nil || string(got) != "mine" {
		t.Fatalf("holder read: %q %v", got, err)
	}
	// ...while another context blocks until unlock.
	other := s.Init()
	done := make(chan error, 1)
	go func() { done <- other.Put("obj", []byte("theirs")) }()
	select {
	case err := <-done:
		t.Fatalf("non-holder write completed under lock: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	if err := ctx.Unlock("obj"); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestDoubleLockSameCtxRejected(t *testing.T) {
	s := newStoreT(t, testConfig())
	defer s.Close()
	ctx := s.Init()
	if err := ctx.Lock("x"); err != nil {
		t.Fatal(err)
	}
	if err := ctx.Lock("x"); err == nil {
		t.Fatal("re-lock by the same context accepted")
	}
	ctx.Unlock("x")
}

func TestFinalizeReleasesLocks(t *testing.T) {
	s := newStoreT(t, testConfig())
	defer s.Close()
	ctx := s.Init()
	if err := ctx.Lock("held"); err != nil {
		t.Fatal(err)
	}
	ctx.Finalize()
	// A fresh context must now be able to write immediately.
	c2 := s.Init()
	done := make(chan error, 1)
	go func() { done <- c2.Put("held", []byte("v")) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Finalize did not release the lock")
	}
}

func TestLockSurvivesLogSwap(t *testing.T) {
	// A held lock's NOOP record must keep conflicting after checkpoints
	// migrate it to the new active log.
	s := newStoreT(t, testConfig())
	defer s.Close()
	ctx := s.Init()
	if err := ctx.Lock("obj"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		ctx.Put(fmt.Sprintf("filler%02d", i), val('f', 256))
	}
	if err := s.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	other := s.Init()
	done := make(chan error, 1)
	go func() { done <- other.Put("obj", []byte("x")) }()
	select {
	case <-done:
		t.Fatal("lock lost across a checkpoint swap")
	case <-time.After(20 * time.Millisecond):
	}
	ctx.Unlock("obj")
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestPhysicalModeCrashRecovers(t *testing.T) {
	cfg := testConfig()
	cfg.Mode = ModePhysical
	s := newStoreT(t, cfg)
	ctx := s.Init()
	want := map[string][]byte{}
	for i := 0; i < 60; i++ {
		k := fmt.Sprintf("k%02d", i%20)
		v := val(byte(i), 1500)
		if err := ctx.Put(k, v); err != nil {
			t.Fatal(err)
		}
		want[k] = v
	}
	s.CheckpointNow()
	s2 := reopen(t, s, cfg, 5, true)
	defer s2.Close()
	c2 := s2.Init()
	for k, v := range want {
		got, err := c2.Get(k, nil)
		if err != nil || !bytes.Equal(got, v) {
			t.Fatalf("%s after crash: %v", k, err)
		}
	}
}

func TestBlocksForHelper(t *testing.T) {
	cases := []struct{ size, bs, want uint64 }{
		{0, 4096, 0},
		{1, 4096, 1},
		{4096, 4096, 1},
		{4097, 4096, 2},
		{16384, 4096, 4},
	}
	for _, c := range cases {
		if got := blocksFor(c.size, c.bs); got != c.want {
			t.Errorf("blocksFor(%d,%d) = %d, want %d", c.size, c.bs, got, c.want)
		}
	}
}
