package dstore

// Unit tests for the OCC transaction layer, on a single store but for the last
// two (a read set that outlives a ring flip or a failover): buffered-write
// visibility (read-your-writes inside, invisible outside until Commit),
// commit-time validation (version bumps and racing writers force
// ErrTxnConflict with nothing applied), session lifecycle, reserved-name and
// size limits, stats counters, recovery replay of commit records, and a
// concurrent conflicting-RMW soak meant to run under -race (the CI txn
// smoke).

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"dstore/internal/fault"
)

func txnTestConfig() Config {
	return Config{
		Blocks:           4096,
		MaxObjects:       1024,
		LogBytes:         1 << 18,
		TrackPersistence: true,
	}
}

func newTxnTestStore(t *testing.T) *Store {
	t.Helper()
	s, err := Format(txnTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() }) //nolint:errcheck // test teardown
	return s
}

// TestTxnReadYourWrites pins session visibility: buffered writes are visible
// to the session's own reads (including deletes masking committed state) and
// invisible to other contexts until Commit applies them all at once.
func TestTxnReadYourWrites(t *testing.T) {
	s := newTxnTestStore(t)
	ctx := s.Init()
	if err := ctx.Put("a", []byte("old-a")); err != nil {
		t.Fatal(err)
	}
	if err := ctx.Put("b", []byte("old-b")); err != nil {
		t.Fatal(err)
	}

	txn, err := ctx.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := txn.Put("a", []byte("new-a")); err != nil {
		t.Fatal(err)
	}
	if err := txn.Delete("b"); err != nil {
		t.Fatal(err)
	}
	if err := txn.Put("c", []byte("new-c")); err != nil {
		t.Fatal(err)
	}

	// Inside: the session sees its own buffer.
	if v, err := txn.Get("a", nil); err != nil || !bytes.Equal(v, []byte("new-a")) {
		t.Fatalf("txn Get(a) = %q, %v", v, err)
	}
	if _, err := txn.Get("b", nil); err != ErrNotFound {
		t.Fatalf("txn Get(b) after buffered delete: %v, want ErrNotFound", err)
	}
	if v, err := txn.Get("c", nil); err != nil || !bytes.Equal(v, []byte("new-c")) {
		t.Fatalf("txn Get(c) = %q, %v", v, err)
	}

	// Outside: nothing applied yet.
	other := s.Init()
	if v, err := other.Get("a", nil); err != nil || !bytes.Equal(v, []byte("old-a")) {
		t.Fatalf("outside Get(a) = %q, %v before commit", v, err)
	}
	if _, err := other.Get("c", nil); err != ErrNotFound {
		t.Fatalf("outside Get(c) before commit: %v, want ErrNotFound", err)
	}

	if err := txn.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	// After: all three effects at once.
	if v, err := other.Get("a", nil); err != nil || !bytes.Equal(v, []byte("new-a")) {
		t.Fatalf("Get(a) after commit = %q, %v", v, err)
	}
	if _, err := other.Get("b", nil); err != ErrNotFound {
		t.Fatalf("Get(b) after commit: %v, want ErrNotFound", err)
	}
	if v, err := other.Get("c", nil); err != nil || !bytes.Equal(v, []byte("new-c")) {
		t.Fatalf("Get(c) after commit = %q, %v", v, err)
	}
}

// TestTxnPutCopiesValue pins the buffering contract: mutating the caller's
// slice after Put must not leak into the committed value.
func TestTxnPutCopiesValue(t *testing.T) {
	s := newTxnTestStore(t)
	ctx := s.Init()
	txn, err := ctx.Begin()
	if err != nil {
		t.Fatal(err)
	}
	val := []byte("stable")
	if err := txn.Put("k", val); err != nil {
		t.Fatal(err)
	}
	copy(val, "MUTATE")
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if v, err := ctx.Get("k", nil); err != nil || !bytes.Equal(v, []byte("stable")) {
		t.Fatalf("Get(k) = %q, %v; buffered value aliased caller slice", v, err)
	}
}

// TestTxnConflict pins the OCC validation matrix: a racing overwrite, a
// racing delete, and a racing create of a key the transaction read as absent
// all fail the commit with ErrTxnConflict and apply nothing.
func TestTxnConflict(t *testing.T) {
	cases := []struct {
		name string
		race func(ctx *Ctx) error
		read string // key the victim transaction reads first
	}{
		{"overwrite", func(ctx *Ctx) error { return ctx.Put("k", []byte("racer")) }, "k"},
		{"delete", func(ctx *Ctx) error { return ctx.Delete("k") }, "k"},
		{"create-absent", func(ctx *Ctx) error { return ctx.Put("ghost", []byte("racer")) }, "ghost"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := newTxnTestStore(t)
			ctx := s.Init()
			if err := ctx.Put("k", []byte("base")); err != nil {
				t.Fatal(err)
			}
			txn, err := ctx.Begin()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := txn.Get(tc.read, nil); err != nil && err != ErrNotFound {
				t.Fatal(err)
			}
			if err := txn.Put("out", []byte("victim")); err != nil {
				t.Fatal(err)
			}
			if err := tc.race(ctx); err != nil {
				t.Fatal(err)
			}
			if err := txn.Commit(); !errors.Is(err, ErrTxnConflict) {
				t.Fatalf("Commit after racing %s: %v, want ErrTxnConflict", tc.name, err)
			}
			// Nothing applied.
			if _, err := ctx.Get("out", nil); err != ErrNotFound {
				t.Fatalf("Get(out) after conflict: %v, want ErrNotFound", err)
			}
			// The session is finished; the conflict is not retryable in place.
			if err := txn.Put("out", []byte("late")); err == nil {
				t.Fatal("Put on conflicted session succeeded")
			}
			st := s.Stats()
			if st.TxnConflicts != 1 || st.TxnCommits != 0 {
				t.Fatalf("stats after conflict: commits=%d conflicts=%d", st.TxnCommits, st.TxnConflicts)
			}
		})
	}
}

// TestTxnNoFalseConflict pins the other half of validation: disjoint
// transactions and blind writes never abort each other.
func TestTxnNoFalseConflict(t *testing.T) {
	s := newTxnTestStore(t)
	ctx := s.Init()
	if err := ctx.Put("k", []byte("base")); err != nil {
		t.Fatal(err)
	}
	// Blind write (no reads) races with an overwrite of the same key: last
	// writer wins, no conflict.
	txn, err := ctx.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := txn.Put("k", []byte("blind")); err != nil {
		t.Fatal(err)
	}
	if err := ctx.Put("k", []byte("racer")); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatalf("blind-write commit: %v", err)
	}
	if v, _ := ctx.Get("k", nil); !bytes.Equal(v, []byte("blind")) {
		t.Fatalf("Get(k) = %q, want committed blind write", v)
	}
	// A read of one key does not conflict with a racing write to another.
	txn2, err := ctx.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := txn2.Get("k", nil); err != nil {
		t.Fatal(err)
	}
	if err := ctx.Put("unrelated", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := txn2.Put("k2", []byte("y")); err != nil {
		t.Fatal(err)
	}
	if err := txn2.Commit(); err != nil {
		t.Fatalf("disjoint commit: %v", err)
	}
}

// TestTxnAbortAndLifecycle pins the session state machine: Abort applies
// nothing, double-finish is rejected, a read-only commit is free, and an
// empty transaction commits cleanly.
func TestTxnAbortAndLifecycle(t *testing.T) {
	s := newTxnTestStore(t)
	ctx := s.Init()
	if err := ctx.Put("k", []byte("base")); err != nil {
		t.Fatal(err)
	}
	txn, err := ctx.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := txn.Put("k", []byte("doomed")); err != nil {
		t.Fatal(err)
	}
	if err := txn.Abort(); err != nil {
		t.Fatalf("Abort: %v", err)
	}
	if v, _ := ctx.Get("k", nil); !bytes.Equal(v, []byte("base")) {
		t.Fatalf("Get(k) after abort = %q", v)
	}
	if err := txn.Commit(); err == nil {
		t.Fatal("Commit after Abort succeeded")
	}
	if _, err := txn.Get("k", nil); err == nil {
		t.Fatal("Get on finished session succeeded")
	}

	// Read-only and empty transactions commit without conflict or records.
	ro, err := ctx.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ro.Get("k", nil); err != nil {
		t.Fatal(err)
	}
	if err := ro.Commit(); err != nil {
		t.Fatalf("read-only commit: %v", err)
	}
	empty, err := ctx.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := empty.Commit(); err != nil {
		t.Fatalf("empty commit: %v", err)
	}
	st := s.Stats()
	if st.TxnAborts != 1 {
		t.Fatalf("TxnAborts = %d, want 1", st.TxnAborts)
	}
}

// TestTxnLimits pins the guard rails: reserved names are rejected at Put,
// and a write set whose commit record would exceed the WAL payload cap
// fails with ErrTxnTooLarge before anything is appended.
func TestTxnLimits(t *testing.T) {
	s := newTxnTestStore(t)
	ctx := s.Init()
	txn, err := ctx.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := txn.Put("\x00sneaky", []byte("v")); err == nil {
		t.Fatal("Put of reserved name succeeded")
	}
	if err := txn.Put("", []byte("v")); err == nil {
		t.Fatal("Put of empty name succeeded")
	}
	if err := txn.Abort(); err != nil {
		t.Fatal(err)
	}

	big, err := ctx.Begin()
	if err != nil {
		t.Fatal(err)
	}
	// Enough sub-ops that the encoded commit record cannot fit in one WAL
	// payload, whatever the per-sub overhead.
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("big-%03d-%s", i, string(bytes.Repeat([]byte{'x'}, 40)))
		if err := big.Put(key, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := big.Commit(); !errors.Is(err, ErrTxnTooLarge) {
		t.Fatalf("oversized commit: %v, want ErrTxnTooLarge", err)
	}
	if _, err := ctx.Get("big-000-"+string(bytes.Repeat([]byte{'x'}, 40)), nil); err != ErrNotFound {
		t.Fatalf("oversized txn leaked a key: %v", err)
	}
}

// TestTxnScanHidesReservedNames pins the namespace split: transaction
// bookkeeping objects (prepare/decision markers) never appear in user scans.
func TestTxnScanHidesReservedNames(t *testing.T) {
	s := newTxnTestStore(t)
	ctx := s.Init()
	if err := ctx.Put("user-key", []byte("v")); err != nil {
		t.Fatal(err)
	}
	// Plant a reserved object through the internal path (what a crashed 2PC
	// leaves behind before resolution).
	if err := s.putReserved("\x00txnprep\x00deadbeef00000000", []byte("prep")); err != nil {
		t.Fatal(err)
	}
	var seen []string
	if err := ctx.Scan("", func(info ObjectInfo) bool {
		seen = append(seen, info.Name)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 1 || seen[0] != "user-key" {
		t.Fatalf("Scan saw %v, want only user-key", seen)
	}
	if _, err := ctx.Get("\x00txnprep\x00deadbeef00000000", nil); err == nil {
		t.Fatal("user Get of reserved name succeeded")
	}
}

// TestTxnRecoveryReplay pins durability: committed transactions survive a
// replay-only reopen (no final checkpoint), atomically.
func TestTxnRecoveryReplay(t *testing.T) {
	cfg := txnTestConfig()
	s, err := Format(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := s.Init()
	if err := ctx.Put("seed", []byte("v0")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		txn, err := ctx.Begin()
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 3; j++ {
			k := fmt.Sprintf("t%d-%d", i, j)
			if err := txn.Put(k, []byte(fmt.Sprintf("v%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		if i == 2 {
			if err := txn.Delete("seed"); err != nil {
				t.Fatal(err)
			}
		}
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.CloseNoCheckpoint(); err != nil {
		t.Fatal(err)
	}
	cfg.PMEM, cfg.SSD = s.Devices()
	s2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if err := s2.Check(); err != nil {
		t.Fatalf("fsck after replay: %v", err)
	}
	ctx2 := s2.Init()
	for i := 0; i < 5; i++ {
		for j := 0; j < 3; j++ {
			k := fmt.Sprintf("t%d-%d", i, j)
			if v, err := ctx2.Get(k, nil); err != nil || !bytes.Equal(v, []byte(fmt.Sprintf("v%d", i))) {
				t.Fatalf("Get(%s) after replay = %q, %v", k, v, err)
			}
		}
	}
	if _, err := ctx2.Get("seed", nil); err != ErrNotFound {
		t.Fatalf("Get(seed) after replayed txn delete: %v, want ErrNotFound", err)
	}
}

// TestTxnConcurrentRMW is the CI txn race smoke: goroutines hammer a small
// set of counters with conflicting read-modify-write transactions, retrying
// on ErrTxnConflict. Every committed increment must land exactly once — lost
// updates or double-applies change the final sums.
func TestTxnConcurrentRMW(t *testing.T) {
	s := newTxnTestStore(t)
	init := s.Init()
	const counters = 4
	for i := 0; i < counters; i++ {
		if err := init.Put(fmt.Sprintf("ctr%d", i), make([]byte, 8)); err != nil {
			t.Fatal(err)
		}
	}

	const workers = 8
	const perWorker = 40
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := s.Init()
			for n := 0; n < perWorker; n++ {
				// Each iteration atomically increments two counters.
				a := fmt.Sprintf("ctr%d", (w+n)%counters)
				b := fmt.Sprintf("ctr%d", (w+n+1)%counters)
				for {
					txn, err := ctx.Begin()
					if err != nil {
						errCh <- err
						return
					}
					ok := true
					for _, k := range []string{a, b} {
						v, err := txn.Get(k, nil)
						if err != nil {
							errCh <- err
							return
						}
						binary.LittleEndian.PutUint64(v, binary.LittleEndian.Uint64(v)+1)
						if err := txn.Put(k, v); err != nil {
							errCh <- err
							return
						}
					}
					err = txn.Commit()
					if errors.Is(err, ErrTxnConflict) {
						ok = false
					} else if err != nil {
						errCh <- err
						return
					}
					if ok {
						break
					}
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}

	var sum uint64
	for i := 0; i < counters; i++ {
		v, err := init.Get(fmt.Sprintf("ctr%d", i), nil)
		if err != nil {
			t.Fatal(err)
		}
		sum += binary.LittleEndian.Uint64(v)
	}
	if want := uint64(workers * perWorker * 2); sum != want {
		t.Fatalf("counter sum = %d, want %d (lost or double-applied increments)", sum, want)
	}
	st := s.Stats()
	if st.TxnCommits != workers*perWorker {
		t.Fatalf("TxnCommits = %d, want %d", st.TxnCommits, workers*perWorker)
	}
	if err := s.Check(); err != nil {
		t.Fatalf("fsck after concurrent RMW: %v", err)
	}
}

// TestTxnRingOfOneEquivalence runs one seeded transaction script — read-only
// transactions, read-modify-writes, deletes of absent keys, explicit aborts,
// and commits invalidated by a plain Put between read and commit — against a
// bare Store and against a one-member Sharded. Both run the same Txn type
// through the same routed commit (a bare store as its own ring of one), so
// they must take the same verdicts step by step and end with byte-identical
// Scan output, identical values, and identical commit/abort/conflict
// counters.
func TestTxnRingOfOneEquivalence(t *testing.T) {
	type outcome struct {
		verdicts []string
		scan     []ObjectInfo
		values   map[string]string
		stats    [3]uint64
	}
	run := func(api API) outcome {
		defer api.Close() //nolint:errcheck // test teardown
		var out outcome
		note := func(step int, err error) {
			out.verdicts = append(out.verdicts, fmt.Sprintf("%d:%v", step, err))
		}
		ctx := api.NewContext()
		rng := rand.New(rand.NewSource(20260926))
		key := func() string { return fmt.Sprintf("eq-%02d", rng.Intn(12)) }
		for step := 0; step < 300; step++ {
			txn, err := ctx.Begin()
			if err != nil {
				t.Fatalf("step %d: Begin: %v", step, err)
			}
			a, b := key(), key()
			va, err := txn.Get(a, nil)
			if err != nil && !errors.Is(err, ErrNotFound) {
				t.Fatalf("step %d: Get(%s): %v", step, a, err)
			}
			switch kind := rng.Intn(10); {
			case kind < 2: // read-only
				_, err := txn.Get(b, nil)
				if err != nil && !errors.Is(err, ErrNotFound) {
					t.Fatalf("step %d: Get(%s): %v", step, b, err)
				}
			case kind < 3: // delete, often of an absent key
				if err := txn.Delete(b); err != nil {
					t.Fatalf("step %d: Delete(%s): %v", step, b, err)
				}
			case kind < 4: // abort with writes buffered
				if err := txn.Put(b, []byte("never")); err != nil {
					t.Fatalf("step %d: Put(%s): %v", step, b, err)
				}
				note(step, txn.Abort())
				continue
			case kind < 6: // invalidate the read before committing
				if err := ctx.Put(a, []byte(fmt.Sprintf("plain-%d", step))); err != nil {
					t.Fatalf("step %d: plain Put(%s): %v", step, a, err)
				}
				fallthrough
			default: // read-modify-write: b's new value extends what a held
				val := append(append([]byte(nil), va...), byte('a'+step%26))
				if len(val) > 600 {
					val = val[len(val)-1:]
				}
				if err := txn.Put(b, val); err != nil {
					t.Fatalf("step %d: Put(%s): %v", step, b, err)
				}
			}
			err = txn.Commit()
			if err != nil && !errors.Is(err, ErrTxnConflict) {
				t.Fatalf("step %d: Commit: %v", step, err)
			}
			note(step, err)
		}
		out.values = map[string]string{}
		if err := ctx.Scan("", func(info ObjectInfo) bool {
			out.scan = append(out.scan, info)
			v, err := ctx.Get(info.Name, nil)
			if err != nil {
				t.Fatalf("Get(%s): %v", info.Name, err)
			}
			out.values[info.Name] = string(v)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		st := api.Stats()
		out.stats = [3]uint64{st.TxnCommits, st.TxnAborts, st.TxnConflicts}
		return out
	}

	bare, err := Format(txnTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	ring, err := FormatSharded(1, txnTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	got, want := run(ring), run(bare)
	if !reflect.DeepEqual(got.verdicts, want.verdicts) {
		t.Errorf("verdicts differ:\n ring %v\n bare %v", got.verdicts, want.verdicts)
	}
	if !reflect.DeepEqual(got.scan, want.scan) {
		t.Errorf("Scan output differs:\n ring %+v\n bare %+v", got.scan, want.scan)
	}
	if !reflect.DeepEqual(got.values, want.values) {
		t.Error("values differ between the ring of one and the bare store")
	}
	if got.stats != want.stats {
		t.Errorf("commit/abort/conflict counters: ring %v, bare %v", got.stats, want.stats)
	}
	if want.stats[0] == 0 || want.stats[1] == 0 || want.stats[2] == 0 {
		t.Errorf("script did not exercise every outcome: commits/aborts/conflicts = %v", want.stats)
	}
}

// TestTxnReadSetOutlivesRingFlip: a version captured by txn.Get belongs to the
// version table of the store that served the read. Each key is overwritten
// five times on its donor (its stripe stands at 5) and read by a transaction;
// AddShard then moves some keys to a recipient whose stripe restarts at 1 with
// the copy, and four more overwrites bring it back to 5 — equal numbers from
// unrelated tables. Every commit must conflict: it read a value four updates
// old. Before read sets remembered their store, the moved keys' commits
// returned nil and overwrote those updates.
func TestTxnReadSetOutlivesRingFlip(t *testing.T) {
	sh, err := FormatSharded(3, shardTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	ctx := sh.Init()
	const keys = 40
	key := func(i int) string { return fmt.Sprintf("rf/%03d", i) }
	put := func(i, n int) {
		t.Helper()
		if err := ctx.Put(key(i), []byte(fmt.Sprintf("v%d", n))); err != nil {
			t.Fatal(err)
		}
	}
	txns, donor := make([]Txn, keys), make([]int, keys)
	for i := range txns {
		for n := 1; n <= 5; n++ {
			put(i, n)
		}
		donor[i] = sh.ShardFor(key(i))
		if txns[i], err = ctx.Begin(); err != nil {
			t.Fatal(err)
		}
		if v, err := txns[i].Get(key(i), nil); err != nil || string(v) != "v5" {
			t.Fatalf("txn Get(%s) = %q, %v", key(i), v, err)
		}
	}
	if _, err := sh.AddShard(); err != nil {
		t.Fatal(err)
	}
	moved := 0
	for i, txn := range txns {
		for n := 6; n <= 9; n++ {
			put(i, n)
		}
		if sh.ShardFor(key(i)) != donor[i] {
			moved++
		}
		if err := txn.Put(key(i), []byte("from v5")); err != nil {
			t.Fatal(err)
		}
		if err := txn.Commit(); !errors.Is(err, ErrTxnConflict) {
			t.Errorf("%s (moved=%v): Commit = %v over four lost updates, want ErrTxnConflict", key(i), sh.ShardFor(key(i)) != donor[i], err)
		}
		if v, err := ctx.Get(key(i), nil); err != nil || string(v) != "v9" {
			t.Errorf("Get(%s) = %q, %v; want v9", key(i), v, err)
		}
	}
	if moved == 0 {
		t.Fatal("AddShard moved none of the keys; the test no longer crosses a ring flip")
	}
}

// TestTxnReadSetOutlivesFailover is the ring flip's twin: a failover between
// Get and Commit hands the key to the promoted standby, whose version table is
// its own. A standby's counters usually mirror its primary's, so an equal
// number there is not shown wrong — only unproven — and the rule is the same:
// the read is refused, and the retried transaction commits.
func TestTxnReadSetOutlivesFailover(t *testing.T) {
	sh, err := FormatShardedReplicated(1, replTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close() //nolint:errcheck // teardown
	ctx := sh.Init()
	if err := ctx.Put("k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	waitReplDrained(t, sh)
	rmw := func() (Txn, error) {
		txn, err := ctx.Begin()
		if err == nil {
			_, err = txn.Get("k", nil)
		}
		if err == nil {
			err = txn.Put("k", []byte("v2"))
		}
		return txn, err
	}
	txn, err := rmw()
	if err != nil {
		t.Fatal(err)
	}
	pm, _ := sh.Replica(0).Active().Devices()
	pm.SetFaultPlan(fault.NewPlan(fault.Config{Seed: 1, WriteErrRate: 1}))
	if err := ctx.Put("other", []byte("lands on the standby")); err != nil || !sh.Replica(0).FailedOver() {
		t.Fatalf("Put during primary death: %v, failed over = %v", err, sh.Replica(0).FailedOver())
	}
	if err := txn.Commit(); !errors.Is(err, ErrTxnConflict) {
		t.Fatalf("Commit of a read set captured on the retired primary = %v, want ErrTxnConflict", err)
	}
	if txn, err = rmw(); err == nil {
		err = txn.Commit()
	}
	if v, gerr := ctx.Get("k", nil); err != nil || gerr != nil || string(v) != "v2" {
		t.Fatalf("retried transaction: commit %v; Get = %q, %v", err, v, gerr)
	}
}
