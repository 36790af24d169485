package dstore

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"dstore/internal/fault"
	"dstore/internal/latency"
	"dstore/internal/pmem"
	"dstore/internal/ssd"
	"dstore/internal/wal"
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

// slowSSD is testConfig on a device that spends perPage on every page write.
func slowSSD(perPage time.Duration) Config {
	cfg := testConfig()
	pages := int((cfg.Blocks + 1) * blockSize / ssd.DefaultPageSize)
	cfg.SSD = ssd.New(ssd.Config{Pages: pages, PowerProtected: true, Latency: ssd.Latencies{WritePerPage: perPage}})
	return cfg
}

// findRecord returns the valid record with LSN lsn in either of s's logs.
func findRecord(s *Store, lsn uint64) (rv wal.RecordView, ok bool) {
	for i := range 2 {
		s.eng.Pair().Log(i).IterateAll(func(r wal.RecordView) error { //nolint:errcheck // fn never fails
			if r.LSN == lsn {
				rv, ok = r, true
			}
			return nil
		})
	}
	return rv, ok
}

// With a 2 ms page write, a put's record is published while the device
// works, and only its state byte waits for the completion: the record turns
// valid and uncommitted, it is still uncommitted once nothing of the PMEM is
// left unpersisted, and its state byte turns committed no sooner than 2 ms
// after the put began. That the publish comes before the device time ends is
// a matter of timing, which a loaded host may stretch, so one round of three
// showing it suffices.
func TestCompletionPublishesBeforeTheDeadline(t *testing.T) {
	const perPage = 2 * time.Millisecond
	s := newStoreT(t, slowSSD(perPage))
	defer s.Close()
	pm, _ := s.Devices()
	latency.Enable()
	defer latency.Disable()
	early := 0
	for round := range 3 {
		lsn := s.LastLSN() + 1
		var valid, settled time.Time
		var validState uint8
		durable := false
		// The hook runs before each PMEM mutation, on the writer's goroutine.
		pm.SetMutationHook(func() {
			rv, ok := findRecord(s, lsn)
			switch {
			case !ok:
			case valid.IsZero():
				valid, validState = time.Now(), rv.State
			case rv.State == wal.StateUncommitted && pm.DirtyLines() == 0:
				durable = true
			case rv.State == wal.StateCommitted && settled.IsZero():
				settled = time.Now()
			}
		})
		t0 := time.Now()
		err := s.Init().Put(string(rune('a'+round)), val(byte(round), 4096))
		pm.SetMutationHook(nil)
		if err != nil {
			t.Fatal(err)
		}
		if valid.IsZero() || validState != wal.StateUncommitted {
			t.Fatalf("round %d: the record never turned valid while uncommitted (state %d)", round, validState)
		}
		if !durable {
			t.Fatalf("round %d: the record was never persistent while uncommitted", round)
		}
		if settled.IsZero() {
			t.Fatalf("round %d: the record never settled", round)
		}
		if d := settled.Sub(t0); d < perPage {
			t.Fatalf("round %d: the state byte settled %v after the put began, before the %v device time", round, d, perPage)
		}
		if valid.Sub(t0) < perPage {
			early++
		}
		t.Logf("round %d: record valid at %v, settled at %v", round, valid.Sub(t0), settled.Sub(t0))
	}
	if early == 0 {
		t.Fatal("no round published its record before the device time ended")
	}
}

// A power cut after a put's record was published, before the completion is
// acted on, finds the record uncommitted: the store reopens with the key's old
// value, the record dead, the put's blocks free again and a clean Check, and
// the exporter ships nothing of it.
func TestCompletionCrashAfterPublishLeavesRecordDead(t *testing.T) {
	cfg := slowSSD(2 * time.Millisecond)
	s := newStoreT(t, cfg)
	ctx := s.Init()
	old := val(1, 4096)
	if err := ctx.Put("k", old); err != nil {
		t.Fatal(err)
	}
	free, lsn := s.blockPool.Free(), s.LastLSN()+1
	pm, data := s.Devices()
	latency.Enable()
	defer latency.Disable()
	// Cut at the first PMEM mutation that finds the record valid and nothing
	// unpersisted: the one after the publish's last fence.
	var cut wal.RecordView
	func() {
		defer func() {
			pm.SetMutationHook(nil)
			if r := recover(); r != crashSentinel {
				t.Fatalf("the put ended without the cut (recovered %v)", r)
			}
			s.CloseNoCheckpoint() //nolint:errcheck // abandoning the incarnation; the reopen is the verdict
		}()
		pm.SetMutationHook(func() {
			if rv, ok := findRecord(s, lsn); ok && pm.DirtyLines() == 0 {
				cut = rv
				panic(crashSentinel)
			}
		})
		ctx.Put("k", val(2, 3*4096)) //nolint:errcheck // the cut ends it
	}()
	if cut.State != wal.StateUncommitted {
		t.Fatalf("the record was persistent in state %d before its completion was acted on, want uncommitted", cut.State)
	}
	if err := pm.Crash(pmem.CrashDropDirty, 1); err != nil {
		t.Fatal(err)
	}
	data.Crash(1)
	cfg.PMEM, cfg.SSD = pm, data
	s2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got, err := s2.Init().Get("k", nil); err != nil || !bytes.Equal(got, old) {
		t.Fatalf("Get(k) after the cut = %d bytes, %v; want the old value", len(got), err)
	}
	if rv, ok := findRecord(s2, lsn); !ok || rv.State != wal.StateDead {
		t.Fatalf("the put's record after recovery: valid %v, state %d; want dead", ok, rv.State)
	}
	if got := s2.blockPool.Free(); got != free {
		t.Fatalf("%d free blocks after recovery, %d before the put", got, free)
	}
	if err := s2.Check(); err != nil {
		t.Fatal(err)
	}
	recs, err := s2.ExportCommitted(lsn-1, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.LSN == lsn || string(r.Name) == "k" {
			t.Fatalf("the exporter shipped record %d (%q) of the cut put", r.LSN, r.Name)
		}
	}
}

// Content-less writes — deletes and olocks, whose records publish in their
// own commit — settle from many goroutines at once, each on its own: every
// one commits, none is lost, no committer is parked. Once the log pair is
// sealed, a settle fails and leaves its record dead.
func TestSettleContentlessRace(t *testing.T) {
	const workers, perWorker = 4, 25
	cfg := testConfig()
	cfg.LogBytes = 1 << 20
	s := newStoreT(t, cfg)
	defer s.Close()
	key := func(w, i int) string { return fmt.Sprintf("w%d/%02d", w, i) }
	for w := range workers {
		for i := range perWorker {
			if err := s.Init().Put(key(w, i), val(byte(i), 10)); err != nil {
				t.Fatal(err)
			}
		}
	}
	before := s.Stats().Engine
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := s.Init()
			defer c.Finalize()
			for i := range perWorker {
				k := key(w, i)
				if err := c.Lock(k); err != nil {
					t.Error(err)
					return
				}
				if err := c.Delete(k); err != nil {
					t.Error(err)
				}
				if err := c.Unlock(k); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	after := s.Stats().Engine
	if got := after.GCRecords - before.GCRecords; got != 2*workers*perWorker {
		t.Fatalf("%d records settled, want %d (a delete and an olock per key)", got, 2*workers*perWorker)
	}
	if after.GCParked != 0 {
		t.Fatalf("%d committers parked; every committer settles its own records", after.GCParked)
	}
	if n := s.eng.Pair().InFlight(); n != 0 {
		t.Fatalf("%d records in flight after every settle returned", n)
	}
	committed := map[string]int{}
	for i := range 2 {
		s.eng.Pair().Log(i).IterateAll(func(rv wal.RecordView) error { //nolint:errcheck // fn never fails
			if rv.State == wal.StateCommitted && (rv.Op == opDelete || rv.Op == opNoop) {
				committed[string(rv.Name)]++
			}
			return nil
		})
	}
	for w := range workers {
		for i := range perWorker {
			if k := key(w, i); committed[k] != 2 {
				t.Fatalf("%s: %d committed records, want its delete and its olock", k, committed[k])
			}
			if _, err := s.Init().Get(key(w, i), nil); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Get(%s) after its delete: %v", key(w, i), err)
			}
		}
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}

	// A put publishes its record while the device works; sealed, its settle
	// fails and the record stays visible dead.
	s.eng.Pair().Seal()
	lsn := s.LastLSN() + 1
	if err := s.Init().Put("sealed", val(3, 4096)); err == nil {
		t.Fatal("a put on a sealed log pair succeeded")
	}
	if rv, ok := findRecord(s, lsn); !ok || rv.State != wal.StateDead {
		t.Fatalf("the sealed put's record: valid %v, state %d; want dead", ok, rv.State)
	}
	if n := s.eng.Pair().InFlight(); n != 0 {
		t.Fatalf("%d records in flight after the sealed settle", n)
	}
}
