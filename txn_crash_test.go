package dstore

// Crash-point sweep over the transaction commit path: a deterministic
// sequence of multi-key transactions is interrupted at every stride-th PMEM
// mutation (log appends, data writes, record commits, checkpoint machinery —
// the sweep spans them all because the small log forces mid-run
// checkpoints), plus the engine's worst-case mid-checkpoint crash. After
// recovery the store must pass fsck and show each transaction's effects
// all-or-nothing: a transaction is a unit, so no crash point may expose some
// of its keys new and others old.

import (
	"bytes"
	"fmt"
	"testing"

	"dstore/internal/pmem"
)

// txnCrashKeys is the key-space size; each transaction rewrites three keys.
const txnCrashKeys = 8

// txnCrashTag renders the value every key carries after transaction i
// touched it (0 = the preload value).
func txnCrashTag(key string, i int) []byte {
	return bytes.Repeat([]byte(fmt.Sprintf("%s#%03d|", key, i)), 20)
}

// txnCrashSet returns the keys transaction i writes: three distinct slots so
// atomicity violations have room to show.
func txnCrashSet(i int) []string {
	return []string{
		fmt.Sprintf("k%d", i%txnCrashKeys),
		fmt.Sprintf("k%d", (i+3)%txnCrashKeys),
		fmt.Sprintf("k%d", (i+5)%txnCrashKeys),
	}
}

// txnCrashPreload fills the key space (run before the crash hook arms, so
// the sweep covers only the transaction phase).
func txnCrashPreload(s *Store) error {
	ctx := s.Init()
	for k := 0; k < txnCrashKeys; k++ {
		key := fmt.Sprintf("k%d", k)
		if err := ctx.Put(key, txnCrashTag(key, 0)); err != nil {
			return err
		}
	}
	return nil
}

// txnCrashWorkload runs 40 sequential transactions, each reading and
// rewriting its three keys (a real RMW, so commits carry read sets too).
// onTxnDone fires after each commit returns.
func txnCrashWorkload(s *Store, onTxnDone func(i int)) error {
	ctx := s.Init()
	for i := 1; i <= 40; i++ {
		txn, err := ctx.Begin()
		if err != nil {
			return err
		}
		for _, key := range txnCrashSet(i) {
			if _, err := txn.Get(key, nil); err != nil {
				return err
			}
			if err := txn.Put(key, txnCrashTag(key, i)); err != nil {
				return err
			}
		}
		if err := txn.Commit(); err != nil {
			return err
		}
		onTxnDone(i)
	}
	return nil
}

// txnCrashModelAt returns expected store contents after the first n
// committed transactions.
func txnCrashModelAt(n int) map[string][]byte {
	m := map[string][]byte{}
	for k := 0; k < txnCrashKeys; k++ {
		key := fmt.Sprintf("k%d", k)
		m[key] = txnCrashTag(key, 0)
	}
	for i := 1; i <= n; i++ {
		for _, key := range txnCrashSet(i) {
			m[key] = txnCrashTag(key, i)
		}
	}
	return m
}

func txnCrashConfig() Config {
	return Config{
		Blocks:     4096,
		MaxObjects: 1024,
		LogBytes:   1 << 14, // small log: the sweep crosses checkpoints
		// Inline checkpoints only, so every mutation happens on the worker
		// goroutine and the sweep is deterministic.
		CheckpointThreshold: 1e-9,
		TrackPersistence:    true,
	}
}

func TestTxnCrashPointSweep(t *testing.T) {
	// First pass: count the PMEM mutations of the full workload.
	s, err := Format(txnCrashConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := txnCrashPreload(s); err != nil {
		t.Fatal(err)
	}
	var total uint64
	pm, _ := s.Devices()
	pm.SetMutationHook(func() { total++ })
	if err := txnCrashWorkload(s, func(int) {}); err != nil {
		t.Fatal(err)
	}
	pm.SetMutationHook(nil)
	s.Close()
	if total < 500 {
		t.Fatalf("workload performed only %d PMEM mutations", total)
	}

	stride := total / 89
	if stride == 0 {
		stride = 1
	}
	points := 0
	for k := uint64(1); k < total; k += stride {
		points++
		runTxnCrashPoint(t, k, false)
	}
	// Worst case: crash with the log pair mid-swap (checkpoint barely
	// started), on top of a mid-commit mutation point.
	runTxnCrashPoint(t, 0, true)
	t.Logf("verified %d txn crash points across %d PMEM mutations (+ worst-case swap)", points, total)
}

// runTxnCrashPoint crashes the workload at the crashAt-th PMEM mutation
// (or, with worstCase, after the full run with the engine parked at its
// worst-case checkpoint crash window) and verifies atomic visibility.
func runTxnCrashPoint(t *testing.T, crashAt uint64, worstCase bool) {
	t.Helper()
	cfg := txnCrashConfig()
	s, err := Format(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := txnCrashPreload(s); err != nil {
		t.Fatal(err)
	}
	pm, data := s.Devices()

	// With worstCase, crashAt is 0: the hook never fires, the workload runs
	// to completion, and the crash is the parked checkpoint window instead.
	committed := 0
	crashed := runToCrash([]*pmem.Device{pm}, crashAt, s.CloseNoCheckpoint, func() {
		if err := txnCrashWorkload(s, func(i int) { committed = i }); err != nil {
			t.Fatalf("txn crash point %d: workload error before crash: %v", crashAt, err)
		}
	})
	if !crashed && !worstCase {
		s.Close()
		return
	}
	if worstCase {
		s.PrepareWorstCaseCrash()
		s.CloseNoCheckpoint() //nolint:errcheck // abandoning the incarnation
	}

	cfg.PMEM, cfg.SSD = pm, data
	pm.Crash(pmem.CrashDropDirty, int64(crashAt)+1)
	s2, err := Open(cfg)
	if err != nil {
		t.Fatalf("txn crash point %d: recovery failed: %v", crashAt, err)
	}
	defer s2.Close()
	if err := s2.Check(); err != nil {
		t.Fatalf("txn crash point %d: fsck after recovery: %v", crashAt, err)
	}

	// All-or-nothing: the store must match either the state after `committed`
	// transactions or after `committed+1` (the one in flight) — never a mix.
	want := txnCrashModelAt(committed)
	maybe := txnCrashModelAt(committed + 1)
	ctx := s2.Init()
	matchesWant, matchesMaybe := true, true
	var firstDiff string
	for k := 0; k < txnCrashKeys; k++ {
		key := fmt.Sprintf("k%d", k)
		got, err := ctx.Get(key, nil)
		if err != nil {
			t.Fatalf("txn crash point %d: get(%s): %v", crashAt, key, err)
		}
		if !bytes.Equal(got, want[key]) {
			matchesWant = false
			firstDiff = key
		}
		if !bytes.Equal(got, maybe[key]) {
			matchesMaybe = false
		}
	}
	if !matchesWant && !matchesMaybe {
		t.Fatalf("txn crash point %d (after %d commits): state is neither pre- nor post-transaction (first diff at %s) — partial transaction exposed",
			crashAt, committed, firstDiff)
	}
}
