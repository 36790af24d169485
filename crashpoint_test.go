package dstore

import (
	"bytes"
	"fmt"
	"testing"

	"dstore/internal/fault"
	"dstore/internal/pmem"
)

// Deterministic crash-point injection: run a fixed single-threaded workload
// and crash the store at the k-th PMEM mutation, for a sweep of k values
// covering every phase of the persistence protocols (log appends, commits,
// checkpoint clones, root flips). After each crash, recovery must produce a
// store that (a) passes fsck and (b) contains exactly the operations that
// completed before the crash — the at-most-one-in-flight ambiguity allowed
// for the operation interrupted mid-pipeline.
//
// This complements the randomized quick-check crash tests: the random tests
// sample outcomes broadly; this sweep proves there is no *specific* mutation
// index in the protocol whose interruption loses committed state.

const crashSentinel = "injected crash point"

// runToCrash runs fn with every given PMEM device's mutation hook armed to
// panic at the crashAt-th mutation (one counter shared across the devices —
// the sweeps drive their stores from one goroutine, so the order is
// deterministic; 0 never fires) and reports whether the crash fired. A fired
// crash leaves the incarnation abandoned mid-operation, so runToCrash stops
// it with stop — the store's CloseNoCheckpoint — before returning. That
// takes no lock the panicked operation can still hold (its deferred unlocks
// ran while the panic unwound), and it retires the engine's checkpoint
// goroutine and the batch workers, which would otherwise pin the
// incarnation's devices (~32 MB each) for the life of the process and could
// keep mutating the very PMEM the caller is about to power-fail and recover
// from.
func runToCrash(pms []*pmem.Device, crashAt uint64, stop func() error, fn func()) (crashed bool) {
	var count uint64
	armed := true
	for _, pm := range pms {
		pm.SetMutationHook(func() {
			if !armed {
				return
			}
			count++
			if count == crashAt {
				armed = false
				panic(crashSentinel)
			}
		})
	}
	defer func() {
		for _, pm := range pms {
			pm.SetMutationHook(nil)
		}
		if r := recover(); r != nil {
			if r != crashSentinel {
				panic(r)
			}
			crashed = true
			stop() //nolint:errcheck // abandoning the incarnation; the reopen is the verdict
		}
	}()
	fn()
	return false
}

// crashWorkload runs a deterministic op sequence, recording each op into the
// model BEFORE issuing it (so at a crash the last model entry may or may not
// have applied). Returns the completed-op count.
func crashWorkload(ctx *Ctx, onOpDone func(i int)) error {
	for i := 0; i < 120; i++ {
		k := fmt.Sprintf("k%02d", i%17)
		var err error
		switch i % 5 {
		case 4:
			err = ctx.Delete(k)
			if err == ErrNotFound {
				err = nil
			}
		default:
			err = ctx.Put(k, bytes.Repeat([]byte{byte(i + 1)}, 500+i*13))
		}
		if err != nil {
			return err
		}
		onOpDone(i)
	}
	return ctx.s.CheckpointNow()
}

// modelAt returns the expected store contents after the first n completed
// operations of crashWorkload.
func modelAt(n int) map[string][]byte {
	m := map[string][]byte{}
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("k%02d", i%17)
		if i%5 == 4 {
			delete(m, k)
		} else {
			m[k] = bytes.Repeat([]byte{byte(i + 1)}, 500+i*13)
		}
	}
	return m
}

func TestCrashPointSweep(t *testing.T) {
	// First pass: count total PMEM mutations of the full workload.
	mkConfig := func() Config {
		return Config{
			Blocks:     2048,
			MaxObjects: 512,
			LogBytes:   1 << 14, // small log: the sweep crosses checkpoints
			// Avoid async checkpoint triggers so every mutation happens on
			// the worker goroutine and the sweep is deterministic
			// (log-full checkpoints still run, inline).
			CheckpointThreshold: 1e-9,
			TrackPersistence:    true,
		}
	}
	cfg := mkConfig()
	s, err := Format(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var total uint64
	pm, _ := s.Devices()
	pm.SetMutationHook(func() { total++ })
	if err := crashWorkload(s.Init(), func(int) {}); err != nil {
		t.Fatal(err)
	}
	pm.SetMutationHook(nil)
	s.Close()
	if total < 1000 {
		t.Fatalf("workload performed only %d PMEM mutations", total)
	}

	// Sweep: crash at every stride-th mutation. Keep the stride small enough
	// to land inside every protocol phase but large enough for test time.
	stride := total / 97
	if stride == 0 {
		stride = 1
	}
	points := 0
	for k := uint64(1); k < total; k += stride {
		points++
		runCrashPoint(t, mkConfig(), k)
	}
	t.Logf("verified %d crash points across %d PMEM mutations", points, total)
}

func runCrashPoint(t *testing.T, cfg Config, crashAt uint64) {
	t.Helper()
	s, err := Format(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pm, data := s.Devices()

	completed := 0
	crashed := runToCrash([]*pmem.Device{pm}, crashAt, s.CloseNoCheckpoint, func() {
		if err := crashWorkload(s.Init(), func(i int) { completed = i + 1 }); err != nil {
			t.Fatalf("crash point %d: workload error before crash: %v", crashAt, err)
		}
	})
	if !crashed {
		// The crash point fell beyond this run's mutations (mutation counts
		// can vary slightly run to run); nothing to verify.
		s.Close()
		return
	}

	// Power loss: adversarial line reversion, then recover.
	cfg.PMEM, cfg.SSD = pm, data
	pm.Crash(pmem.CrashDropDirty, int64(crashAt))
	s2, err := Open(cfg)
	if err != nil {
		t.Fatalf("crash point %d: recovery failed: %v", crashAt, err)
	}
	defer s2.Close()
	if err := s2.Check(); err != nil {
		t.Fatalf("crash point %d: fsck after recovery: %v", crashAt, err)
	}

	// Every op that returned before the crash must be present; the op in
	// flight (index `completed`) may have either its old or new effect.
	want := modelAt(completed)
	maybe := modelAt(completed + 1)
	ctx := s2.Init()
	for i := 0; i < 17; i++ {
		k := fmt.Sprintf("k%02d", i)
		got, err := ctx.Get(k, nil)
		wv, inWant := want[k]
		mv, inMaybe := maybe[k]
		switch {
		case err == ErrNotFound:
			if inWant && inMaybe && bytes.Equal(wv, mv) {
				t.Fatalf("crash point %d: committed key %q lost", crashAt, k)
			}
			// Absent is fine if either state allows absence.
			if inWant && inMaybe {
				t.Fatalf("crash point %d: key %q absent but present in both states", crashAt, k)
			}
		case err != nil:
			t.Fatalf("crash point %d: get(%q): %v", crashAt, k, err)
		default:
			okWant := inWant && bytes.Equal(got, wv)
			okMaybe := inMaybe && bytes.Equal(got, mv)
			if !okWant && !okMaybe {
				t.Fatalf("crash point %d: key %q has %d bytes matching neither pre- nor post-op state",
					crashAt, k, len(got))
			}
		}
	}
}

// TestCrashThenBadPage combines the two failure modes: a worst-case
// mid-checkpoint power loss followed by one data page going permanently bad
// before the store is used again. Recovery must succeed (recovery reads only
// PMEM metadata), reads of the affected object must fail with a typed
// permanent error — never wrong data — and a scrub must find and quarantine
// the block so an overwrite heals the object without ever reusing the bad
// media.
func TestCrashThenBadPage(t *testing.T) {
	cfg := Config{
		Blocks:           2048,
		MaxObjects:       512,
		LogBytes:         1 << 16,
		TrackPersistence: true,
	}
	s, err := Format(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := crashWorkload(s.Init(), func(int) {}); err != nil {
		t.Fatal(err)
	}
	s.PrepareWorstCaseCrash()
	var cerr error
	if cfg.PMEM, cfg.SSD, cerr = s.Crash(99); cerr != nil {
		t.Fatal(cerr)
	}
	s2, err := Open(cfg)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer s2.Close()
	want := modelAt(120)

	// Pick a live block of a surviving object and mark its page bad
	// (dataOff: block b is page b+1).
	var victim string
	var badBlock uint64
	for k := range want {
		s2.treeMu.RLock()
		slot, ok := s2.front.tree.Get([]byte(k))
		s2.treeMu.RUnlock()
		if !ok {
			t.Fatalf("committed key %q lost in recovery", k)
		}
		if e, used, _ := s2.zoneRead(slot); used && len(e.Blocks) > 0 {
			victim, badBlock = k, e.Blocks[0]
			break
		}
	}
	if victim == "" {
		t.Fatal("no live object found")
	}
	plan := fault.NewPlan(fault.Config{BadPages: []uint64{badBlock + 1}})
	_, data := s2.Devices()
	data.SetFaultPlan(plan)

	ctx := s2.Init()
	if _, err := ctx.Get(victim, nil); !fault.IsPermanent(err) {
		t.Fatalf("Get(%s) on bad page: want permanent error, got %v", victim, err)
	}
	// Every other object still reads back correctly.
	for k, v := range want {
		if k == victim {
			continue
		}
		got, err := ctx.Get(k, nil)
		if err != nil {
			t.Fatalf("Get(%s): %v", k, err)
		}
		if !bytes.Equal(got, v) {
			t.Fatalf("Get(%s): wrong data after crash+bad page", k)
		}
	}

	// The scrub localizes the damage and quarantines the block.
	rep, err := s2.Scrub(false)
	if err != nil {
		t.Fatalf("scrub: %v", err)
	}
	found := false
	for _, f := range rep.Corrupt {
		if f.Block == badBlock && f.Name == victim {
			found = true
		}
	}
	if !found {
		t.Fatalf("scrub did not report block %d of %q: %+v", badBlock, victim, rep.Corrupt)
	}
	if !s2.isQuarantined(badBlock) {
		t.Fatal("bad block not quarantined by scrub")
	}

	// Overwriting the object allocates healthy blocks; the quarantined one
	// never re-enters circulation, and fsck's conservation law still holds.
	fresh := bytes.Repeat([]byte{0x5A}, 600)
	if err := ctx.Put(victim, fresh); err != nil {
		t.Fatalf("healing Put: %v", err)
	}
	got, err := ctx.Get(victim, nil)
	if err != nil || !bytes.Equal(got, fresh) {
		t.Fatalf("Get after healing Put: %v", err)
	}
	if err := s2.Check(); err != nil {
		t.Fatalf("fsck: %v", err)
	}
}
