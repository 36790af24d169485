package dstore

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCheckFreshStore(t *testing.T) {
	s := newStoreT(t, testConfig())
	defer s.Close()
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestCheckAfterWorkload(t *testing.T) {
	s := newStoreT(t, testConfig())
	defer s.Close()
	ctx := s.Init()
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 800; i++ {
		k := fmt.Sprintf("k%02d", rng.Intn(60))
		switch rng.Intn(3) {
		case 0, 1:
			if err := ctx.Put(k, val(byte(i), 1+rng.Intn(8000))); err != nil {
				t.Fatal(err)
			}
		case 2:
			if err := ctx.Delete(k); err != nil && err != ErrNotFound {
				t.Fatal(err)
			}
		}
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	if err := s.Check(); err != nil {
		t.Fatalf("after checkpoint: %v", err)
	}
}

func TestCheckDetectsCorruption(t *testing.T) {
	s := newStoreT(t, testConfig())
	defer s.Close()
	ctx := s.Init()
	ctx.Put("victim", val('v', 4096))
	// Corrupt: clear the metadata slot behind the index's back.
	slot, ok := s.front.tree.Get([]byte("victim"))
	if !ok {
		t.Fatal("victim missing")
	}
	s.front.zone.Clear(slot)
	if err := s.Check(); err == nil {
		t.Fatal("fsck missed a cleared slot behind a live index entry")
	}
}

func TestCheckDetectsLeakedBlock(t *testing.T) {
	s := newStoreT(t, testConfig())
	defer s.Close()
	ctx := s.Init()
	ctx.Put("obj", val('x', 4096))
	// Leak a block: steal one from the pool without recording an owner.
	s.poolMu.Lock()
	if _, err := s.blockPool.Get(); err != nil {
		t.Fatal(err)
	}
	s.poolMu.Unlock()
	if err := s.Check(); err == nil {
		t.Fatal("fsck missed a leaked block")
	}
}

// Property: after any op stream, a crash at any point, and recovery, the
// recovered store passes fsck — i.e. recovery never leaks or double-assigns
// slots or blocks.
func TestQuickFsckAfterCrashRecovery(t *testing.T) {
	f := func(ops []uint16, seed int64) bool {
		cfg := testConfig()
		cfg.LogBytes = 1 << 14
		s, err := Format(cfg)
		if err != nil {
			return false
		}
		ctx := s.Init()
		for i, op := range ops {
			k := fmt.Sprintf("k%02d", op%19)
			if op%4 == 3 {
				ctx.Delete(k)
			} else if err := ctx.Put(k, val(byte(op), 1+int(op)%9000)); err != nil {
				return false
			}
			if i%37 == 36 {
				if err := s.CheckpointNow(); err != nil {
					return false
				}
			}
		}
		var cerr error
		cfg.PMEM, cfg.SSD, cerr = s.Crash(seed)
		if cerr != nil {
			return false
		}
		s2, err := Open(cfg)
		if err != nil {
			return false
		}
		defer s2.Close()
		return s2.Check() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// The shadow arena must also pass fsck after a checkpoint: the replayed
// backend is a valid store image, not merely byte soup.
func TestShadowPassesFsckAfterCheckpoint(t *testing.T) {
	cfg := testConfig()
	s := newStoreT(t, cfg)
	defer s.Close()
	ctx := s.Init()
	for i := 0; i < 200; i++ {
		ctx.Put(fmt.Sprintf("k%03d", i%70), val(byte(i), 512+i*11))
		if i%3 == 0 {
			ctx.Delete(fmt.Sprintf("k%03d", (i+35)%70))
		}
	}
	if err := s.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	// Recover into a fresh store from a crash right now; its volatile plane
	// is a copy of the shadow + active-log replay, so fsck on it validates
	// the shadow lineage end to end.
	var cerr error
	cfg.PMEM, cfg.SSD, cerr = s.Crash(77)
	if cerr != nil {
		t.Fatal(cerr)
	}
	s2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if err := s2.Check(); err != nil {
		t.Fatal(err)
	}
}
