package dstore

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"dstore/internal/fault"
	"dstore/internal/wal"
)

// With checkpoints disabled a full log refuses an olock exactly as it
// refuses a Put — for Lock and for a transaction commit's olocks — and no
// checkpoint runs (Fig. 1's "no checkpoint" series stays checkpoint-free).
func TestFullLogRefusesOlocksWithoutCheckpoint(t *testing.T) {
	s := newStoreT(t, Config{Blocks: 1024, MaxObjects: 512, LogBytes: 16 << 10, DisableCheckpoints: true})
	defer s.Close()
	ctx := s.Init()
	defer ctx.Finalize()

	var refusal error
	for i := 0; refusal == nil; i++ {
		if i == 10000 {
			t.Fatal("a 16 KiB log never refused a Put")
		}
		refusal = ctx.Put(fmt.Sprintf("k%05d", i), val(1, 32))
	}
	// A NOOP record is smaller than a Put's, so a few locks may still fit.
	// Stop at the first checkpoint: one behind the locks held here could
	// repeat forever.
	var err error
	for i := 0; err == nil && s.Stats().Engine.Checkpoints == 0; i++ {
		err = ctx.Lock(fmt.Sprintf("l%05d", i))
	}
	if err == nil || err.Error() != refusal.Error() || s.Stats().Engine.Checkpoints != 0 {
		t.Fatalf("Lock on a full log: err %v, checkpoints %d; want %q, 0", err, s.Stats().Engine.Checkpoints, refusal)
	}
	tx, _ := ctx.Begin()
	if err := tx.Put("txkey", val(2, 32)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err == nil || err.Error() != refusal.Error() {
		t.Fatalf("txn commit on a full log: err %v; want %q", err, refusal)
	}
	if n := s.Stats().Engine.Checkpoints; n != 0 {
		t.Fatalf("checkpoints = %d with checkpoints disabled", n)
	}
}

// One transient PMEM write fault under an olock append is retried, as it is
// under a Put's append: Lock and a transaction commit succeed and the store
// stays writable.
func TestTransientFaultUnderOlockIsRetried(t *testing.T) {
	s := newStoreT(t, testConfig())
	defer s.Close()
	ctx := s.Init()
	defer ctx.Finalize()
	pm, _ := s.Devices()
	oneFault := func() *fault.Plan {
		p := fault.NewPlan(fault.Config{FailWriteAt: []uint64{1}})
		pm.SetFaultPlan(p)
		return p
	}

	p := oneFault()
	if err := ctx.Lock("held"); err != nil {
		t.Fatalf("Lock under one transient fault: %v", err)
	}
	if err := ctx.Unlock("held"); err != nil {
		t.Fatal(err)
	}
	if n := p.Stats().TransientWrites; n != 1 {
		t.Fatalf("lock: %d faults injected, want 1", n)
	}

	tx, _ := ctx.Begin()
	if err := tx.Put("txkey", val(3, 32)); err != nil {
		t.Fatal(err)
	}
	p = oneFault()
	if err := tx.Commit(); err != nil {
		t.Fatalf("txn commit under one transient fault: %v", err)
	}
	if n := p.Stats().TransientWrites; n != 1 {
		t.Fatalf("txn: %d faults injected, want 1", n)
	}
	if s.Degraded() {
		t.Fatalf("store degraded: %v", s.Health())
	}
	if got, err := ctx.Get("txkey", nil); err != nil || string(got) != string(val(3, 32)) {
		t.Fatalf("Get after commit: %q, %v", got, err)
	}
}

// putMany puts n one-byte values from c under 256 names and reports the first
// refusal, or nil, on the returned channel.
func putMany(c *Ctx, n int) <-chan error {
	done := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if err := c.Put(fmt.Sprintf("k%03d", i%256), val(byte(i), 1)); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	return done
}

// A lock held by one context pins a 16 KiB log at its head. Another context's
// writes fill the log, find that a foreground checkpoint freed nothing, and
// wait for the lock, as for a CC conflict, instead of checkpointing again;
// they finish once it is released.
func TestPinnedLogWaitsForTheLockHolder(t *testing.T) {
	s := newStoreT(t, Config{Blocks: 1024, MaxObjects: 512, LogBytes: 16 << 10})
	defer s.Close()
	a, b := s.Init(), s.Init()
	defer a.Finalize()
	defer b.Finalize()
	if err := a.Lock("held"); err != nil {
		t.Fatal(err)
	}
	done := putMany(b, 2000)
	for deadline := time.Now().Add(30 * time.Second); s.Stats().ForegroundCheckpoints == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("2,000 puts never filled a 16 KiB log")
		}
	}
	time.Sleep(300 * time.Millisecond)
	select {
	case err := <-done:
		t.Fatalf("the writer finished behind a held lock: %v", err)
	default:
	}
	if n := s.Stats().ForegroundCheckpoints; n > 2 {
		t.Fatalf("%d foreground checkpoints behind a held lock; want at most 2", n)
	}
	if err := a.Unlock("held"); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("the writer did not finish after Unlock")
	}
}

// A context whose own lock pins the log would wait on itself: once a
// checkpoint frees nothing, its Put and its next Lock are refused with an
// error wrapping wal.ErrLogFull, and the store stays writable.
func TestOwnLockPinningTheLogIsRefused(t *testing.T) {
	s := newStoreT(t, Config{Blocks: 1024, MaxObjects: 512, LogBytes: 16 << 10})
	defer s.Close()
	a := s.Init()
	defer a.Finalize()
	if err := a.Lock("held"); err != nil {
		t.Fatal(err)
	}
	var err error
	select {
	case err = <-putMany(a, 2000):
	case <-time.After(30 * time.Second):
		t.Fatal("a Put behind its own lock hung")
	}
	if !errors.Is(err, wal.ErrLogFull) || errors.Is(err, ErrDegraded) {
		t.Fatalf("Put behind its own lock: %v; want a wal.ErrLogFull refusal", err)
	}
	if err := a.Lock("other"); !errors.Is(err, wal.ErrLogFull) {
		t.Fatalf("Lock behind its own lock: %v; want a wal.ErrLogFull refusal", err)
	}
	if err := a.Unlock("held"); err != nil {
		t.Fatal(err)
	}
	if err := a.Put("after", val(1, 1)); err != nil || s.Degraded() {
		t.Fatalf("Put after Unlock: %v (degraded %v)", err, s.Degraded())
	}
}
