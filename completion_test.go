package dstore

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"dstore/internal/fault"
	"dstore/internal/latency"
	"dstore/internal/ssd"
)

// The data phase submits a put's content and the pass waits for the device
// only before the apply (write.go landData). These tests pin what that wait
// guards: nothing is published or committed before the device time has
// passed, and a verdict the device reports at the completion is acted on as
// one found at submission was.

// A permanent error reported at the completion reaches a put whose record is
// already appended: the record is aborted, the bad block quarantined, and the
// set runs again on a fresh block, so the put succeeds. After a power cut the
// aborted record replays as dead.
func TestCompletionPermanentFaultRerunsOnFreshBlock(t *testing.T) {
	cfg := testConfig()
	s := newStoreT(t, cfg)
	ctx := s.Init()
	if err := ctx.Put("probe", val(1, 10)); err != nil {
		t.Fatal(err)
	}
	_, probe, err := s.lookup([]byte("probe"), nil)
	if err != nil {
		t.Fatal(err)
	}
	// The pool hands out ascending ids: the victim's one block is probe+1,
	// on page probe+2 (page 0 is the superblock).
	dead := probe.Blocks[0] + 1
	_, data := s.Devices()
	data.SetFaultPlan(fault.NewPlan(fault.Config{BadPages: []uint64{s.dataOff(dead) / blockSize}}))
	v := val(7, 3000)
	lsn := s.LastLSN()
	if err := ctx.Put("victim", v); err != nil {
		t.Fatalf("a put on a bad block: %v", err)
	}
	if q := s.Health().QuarantinedBlocks; len(q) != 1 || q[0] != dead {
		t.Fatalf("quarantined %v, want [%d]", q, dead)
	}
	// Two records: the one the completion's verdict aborted, and the rerun's.
	if got := s.LastLSN() - lsn; got != 2 {
		t.Fatalf("the put appended %d records, want 2 (aborted, then committed)", got)
	}
	recs, err := s.ExportCommitted(lsn, 10)
	if err != nil || len(recs) != 1 {
		t.Fatalf("%d committed records after the probe, want 1: %v", len(recs), err)
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
	data.SetFaultPlan(nil)
	cfg.PMEM, cfg.SSD, err = s.Crash(1)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	_, e, err := s2.lookup([]byte("victim"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if e.Blocks[0] == dead {
		t.Fatalf("after replay the victim lives on the block its aborted record named")
	}
	if got, err := s2.Init().Get("victim", nil); err != nil || !bytes.Equal(got, v) {
		t.Fatalf("Get(victim) after replay = %d bytes, %v", len(got), err)
	}
	if err := s2.Check(); err != nil {
		t.Fatal(err)
	}
}

// A batch that names a key twice keeps its order when the first write of
// the key is sent back by a bad block: the rerun goes ahead of the second,
// so the second's value is the one that stays.
func TestCompletionRerunKeepsBatchOrder(t *testing.T) {
	s := newStoreT(t, testConfig())
	defer s.Close()
	c := s.Init()
	if err := c.Put("probe", val(1, 10)); err != nil {
		t.Fatal(err)
	}
	_, probe, err := s.lookup([]byte("probe"), nil)
	if err != nil {
		t.Fatal(err)
	}
	// The batch's first sub-op takes probe+1; its page is bad.
	_, data := s.Devices()
	data.SetFaultPlan(fault.NewPlan(fault.Config{BadPages: []uint64{s.dataOff(probe.Blocks[0]+1) / blockSize}}))
	vals := [][]byte{val(2, 4096), val(3, 4096)}
	for i, err := range s.MPut(0, []string{"d", "d"}, vals) {
		if err != nil {
			t.Fatalf("sub-op %d: %v", i, err)
		}
	}
	if q := s.Health().QuarantinedBlocks; len(q) != 1 {
		t.Fatalf("quarantined %v, want one block", q)
	}
	if got, err := c.Get("d", nil); err != nil || !bytes.Equal(got, vals[1]) {
		t.Fatalf("Get(d) = %d bytes, %v; want the batch's second value", len(got), err)
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
}

// A transient error reported at the completion is retried in place — the
// record names the block and nothing reads it yet — and counted.
func TestCompletionTransientFaultRetriedInPlace(t *testing.T) {
	s := newStoreT(t, testConfig())
	defer s.Close()
	ctx := s.Init()
	_, data := s.Devices()
	data.SetFaultPlan(fault.NewPlan(fault.Config{FailWriteAt: []uint64{1}}))
	lsn := s.LastLSN()
	v := val(9, 5000)
	if err := ctx.Put("k", v); err != nil {
		t.Fatal(err)
	}
	if h := s.Health(); h.IORetries != 1 || len(h.QuarantinedBlocks) != 0 {
		t.Fatalf("IORetries %d, quarantined %v: want one retry in place", h.IORetries, h.QuarantinedBlocks)
	}
	if got := s.LastLSN() - lsn; got != 1 {
		t.Fatalf("the put appended %d records, want 1", got)
	}
	if got, err := ctx.Get("k", nil); err != nil || !bytes.Equal(got, v) {
		t.Fatalf("Get = %d bytes, %v", len(got), err)
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
}

// With a 2 ms page write, a put's apply and commit come after the device
// time: the index and zone show the put (its apply), a racing reader sees
// the value (its commit), and the PMEM sees the commit's last mutation, all
// no sooner than 2 ms after the put began. The record's append runs under
// the device time; that is logged, not asserted, as a loaded host may
// stretch it.
func TestCompletionPrecedesApplyAndCommit(t *testing.T) {
	const perPage = 2 * time.Millisecond
	cfg := testConfig()
	pages := int((cfg.Blocks + 1) * blockSize / ssd.DefaultPageSize)
	cfg.SSD = ssd.New(ssd.Config{Pages: pages, PowerProtected: true, Latency: ssd.Latencies{WritePerPage: perPage}})
	s := newStoreT(t, cfg)
	defer s.Close()
	pm, _ := s.Devices()
	latency.Enable()
	defer latency.Disable()
	for round := 0; round < 3; round++ {
		key := string(rune('a' + round))
		var first, last time.Time
		pm.SetMutationHook(func() {
			if first.IsZero() {
				first = time.Now()
			}
			last = time.Now()
		})
		var applied, seen time.Time
		var wg sync.WaitGroup
		stop := make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := s.Init()
			defer c.Finalize()
			// One more look once the put returned.
			for last := false; !last && (applied.IsZero() || seen.IsZero()); {
				select {
				case <-stop:
					last = true
				default:
				}
				if _, _, err := s.lookup([]byte(key), nil); err == nil && applied.IsZero() {
					applied = time.Now()
				}
				if _, err := c.Get(key, nil); err == nil && seen.IsZero() {
					seen = time.Now()
				} else if err != nil && !errors.Is(err, ErrNotFound) {
					t.Error(err)
					return
				}
			}
		}()
		t0 := time.Now()
		if err := s.Init().Put(key, val(byte(round), 4096)); err != nil {
			t.Fatal(err)
		}
		took := time.Since(t0)
		pm.SetMutationHook(nil)
		close(stop)
		wg.Wait()
		if seen.IsZero() || applied.IsZero() {
			t.Fatal("the reader never saw the put")
		}
		if d := applied.Sub(t0); d < perPage {
			t.Fatalf("round %d: the index showed the put %v after it began, before the %v device time", round, d, perPage)
		}
		if d := seen.Sub(t0); d < perPage {
			t.Fatalf("round %d: a reader saw the put %v after it began, before the %v device time", round, d, perPage)
		}
		if d := last.Sub(t0); d < perPage {
			t.Fatalf("round %d: the commit's last PMEM mutation came %v after the put began, before the %v device time", round, d, perPage)
		}
		t.Logf("round %d: first PMEM mutation (the append) at %v, put took %v", round, first.Sub(t0), took)
	}
}
