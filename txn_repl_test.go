package dstore

// Replication interplay for transactions: the committed stream carries
// opTxnCommit records whole (one record per shard-local transaction), a
// standby applies them atomically, and a standby crashed at any PMEM
// mutation point mid-apply and then PROMOTED — the failover path, with no
// chance to resume the stream — never exposes a partial transaction: its
// key space always equals the state after some whole-transaction prefix.

import (
	"bytes"
	"fmt"
	"testing"

	"dstore/internal/fault"
	"dstore/internal/pmem"
)

// buildTxnPrimary makes a primary whose committed stream interleaves plain
// puts, deletes, and multi-key transactions (the txn_crash_test workload:
// preload of 8 keys, then 40 three-key RMW transactions).
func buildTxnPrimary(t *testing.T) *Store {
	t.Helper()
	primary, err := Format(replTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := txnCrashPreload(primary); err != nil {
		t.Fatal(err)
	}
	if err := txnCrashWorkload(primary, func(int) {}); err != nil {
		t.Fatal(err)
	}
	return primary
}

// TestStandbyTxnStreamConverges pins the easy half: a clean full apply of a
// transaction-heavy stream converges the standby to the primary byte for
// byte, and the standby's counters see the applied transactions.
func TestStandbyTxnStreamConverges(t *testing.T) {
	primary := buildTxnPrimary(t)
	defer primary.Close()
	sb, err := Format(replTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer sb.Close()
	sb.BeginStandby()
	if err := pumpAll(primary, sb); err != nil {
		t.Fatalf("apply: %v", err)
	}
	if err := sb.Promote(); err != nil {
		t.Fatal(err)
	}
	want := txnCrashModelAt(40)
	sctx := sb.Init()
	for k, v := range want {
		got, err := sctx.Get(k, nil)
		if err != nil {
			t.Fatalf("standby Get(%s): %v", k, err)
		}
		if !bytes.Equal(got, v) {
			t.Fatalf("standby Get(%s): wrong bytes", k)
		}
	}
	if got, wantN := sb.Count(), uint64(len(want)); got != wantN {
		t.Fatalf("standby has %d objects, want %d", got, wantN)
	}
}

// TestStandbyTxnCrashPromote is the required standby crash-point test: crash
// the standby at a swept set of PMEM mutation points mid-apply, reopen, and
// promote IMMEDIATELY (a failover has no stream to resume). The promoted
// store must pass fsck and match the state after some whole number of
// transactions — any mixed state is a partial transaction escaping through
// failover.
func TestStandbyTxnCrashPromote(t *testing.T) {
	primary := buildTxnPrimary(t)
	defer primary.Close()

	total := countApplyMutations(t, primary)
	if total < 200 {
		t.Fatalf("apply performed only %d standby PMEM mutations", total)
	}
	stride := total / 29
	if stride == 0 {
		stride = 1
	}
	points := 0
	for k := uint64(1); k < total; k += stride {
		points++
		runStandbyTxnCrashPoint(t, primary, k)
	}
	t.Logf("verified %d standby txn crash points across %d PMEM mutations", points, total)
}

func runStandbyTxnCrashPoint(t *testing.T, primary *Store, crashAt uint64) {
	t.Helper()
	cfg := replTestConfig()
	sb, err := Format(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sb.BeginStandby()
	pm, data := sb.Devices()

	crashed := runToCrash([]*pmem.Device{pm}, crashAt, sb.CloseNoCheckpoint, func() {
		if err := pumpAll(primary, sb); err != nil {
			t.Fatalf("standby txn crash point %d: apply: %v", crashAt, err)
		}
	})
	if !crashed {
		sb.Close() //nolint:errcheck // crash point beyond this run's mutations
		return
	}

	cfg.PMEM, cfg.SSD = pm, data
	pm.Crash(pmem.CrashDropDirty, int64(crashAt))
	sb2, err := Open(cfg)
	if err != nil {
		t.Fatalf("standby txn crash point %d: recovery failed: %v", crashAt, err)
	}
	defer sb2.Close()
	if err := sb2.Check(); err != nil {
		t.Fatalf("standby txn crash point %d: fsck: %v", crashAt, err)
	}
	// Promote with no stream resume: the failover case.
	sb2.BeginStandby()
	if err := sb2.Promote(); err != nil {
		t.Fatalf("standby txn crash point %d: promote: %v", crashAt, err)
	}

	// The promoted key space must equal the state after some whole number of
	// transactions (possibly mid-preload: a prefix of the preload puts).
	sctx := sb2.Init()
	state := map[string][]byte{}
	for k := 0; k < txnCrashKeys; k++ {
		key := fmt.Sprintf("k%d", k)
		v, err := sctx.Get(key, nil)
		if err == ErrNotFound {
			continue
		}
		if err != nil {
			t.Fatalf("standby txn crash point %d: Get(%s): %v", crashAt, key, err)
		}
		state[key] = v
	}
	if matchesPreloadPrefix(state) {
		return
	}
	for n := 0; n <= 40; n++ {
		if txnStateEquals(state, txnCrashModelAt(n)) {
			// Promoted standby writable at that consistent state.
			if err := sctx.Put("post-failover", []byte("writable")); err != nil {
				t.Fatalf("standby txn crash point %d: post-promote write: %v", crashAt, err)
			}
			return
		}
	}
	t.Fatalf("standby txn crash point %d: promoted state matches no whole-transaction prefix — partial transaction exposed: %d keys",
		crashAt, len(state))
}

// matchesPreloadPrefix reports whether state is a prefix of the preload
// (keys k0..k_{n-1} at tag 0, the rest absent) — a crash before the first
// transaction's record.
func matchesPreloadPrefix(state map[string][]byte) bool {
	for n := 0; n < txnCrashKeys; n++ {
		key := fmt.Sprintf("k%d", n)
		if _, ok := state[key]; !ok {
			// Keys n.. must all be absent, keys 0..n-1 already matched.
			for m := n; m < txnCrashKeys; m++ {
				if _, ok := state[fmt.Sprintf("k%d", m)]; ok {
					return false
				}
			}
			return true
		}
		if !bytes.Equal(state[key], txnCrashTag(key, 0)) {
			return false
		}
	}
	return false // full preload present: defer to the txn models (n=0)
}

// txnStateEquals compares a read-back state with a model exactly.
func txnStateEquals(state, model map[string][]byte) bool {
	if len(state) != len(model) {
		return false
	}
	for k, v := range model {
		if !bytes.Equal(state[k], v) {
			return false
		}
	}
	return true
}

// TestSharded2PCParticipantFailover fails a cross-shard commit's participant
// over at every PMEM mutation the commit makes on the participant's primary
// (group commit on, the default). The olocks the commit took there stay on
// the retired primary: releasing them through the promoted standby used to
// store a state byte at the primary's offsets in the standby's own log — a
// stray byte inside a record recovery CRC-checks — and could degrade the
// healthy promoted store on the dead device's error. At every point the
// transaction is all-or-nothing, the promoted store passes fsck and stays
// writable, and reopening it from its log alone finds every committed key.
func TestSharded2PCParticipantFailover(t *testing.T) {
	total, _ := run2PCFailoverPoint(t, 0)
	if total < 20 {
		t.Fatalf("commit performed only %d PMEM mutations on the participant", total)
	}
	failovers := 0
	for k := uint64(1); k <= total; k++ {
		if _, failedOver := run2PCFailoverPoint(t, k); failedOver {
			failovers++
		}
	}
	if failovers == 0 {
		t.Fatal("no kill point failed the participant over")
	}
	t.Logf("verified %d participant kill points, %d failed over mid-commit", total, failovers)
}

// run2PCFailoverPoint runs one cross-shard commit on a fresh replicated ring
// of two, killing the participant primary's PMEM at its killAt-th mutation
// inside the commit (0 = never). It returns the mutations the commit made
// there and whether the participant failed over.
func run2PCFailoverPoint(t *testing.T, killAt uint64) (mutations uint64, failedOver bool) {
	t.Helper()
	const coord, part = 0, 1 // the coordinator is the lowest write shard
	sh, err := FormatShardedReplicated(2, replTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	closed := false
	defer func() {
		if !closed {
			sh.CloseNoCheckpoint() //nolint:errcheck // teardown after a failed point
		}
	}()
	ctx := sh.Init()

	// Two write keys per shard: the participant's second olock sits past its
	// first, where the standby's log holds the body of another record.
	var keys, partKeys []string
	perShard := map[int]int{}
	for i := 0; len(keys) < 4; i++ {
		k := fmt.Sprintf("fo-%d", i)
		if owner := sh.ShardFor(k); perShard[owner] < 2 {
			perShard[owner]++
			keys = append(keys, k)
			if owner == part {
				partKeys = append(partKeys, k)
			}
		}
	}
	for _, k := range keys {
		if err := ctx.Put(k, []byte("old:"+k)); err != nil {
			t.Fatal(err)
		}
	}
	waitReplDrained(t, sh)

	pm, _ := sh.Replica(part).Active().Devices()
	pm.SetMutationHook(func() {
		mutations++
		if mutations == killAt {
			pm.SetFaultPlan(fault.NewPlan(fault.Config{Seed: int64(killAt), WriteErrRate: 1}))
		}
	})
	txn, err := ctx.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if err := txn.Put(k, []byte("new:"+k)); err != nil {
			t.Fatal(err)
		}
	}
	cerr := txn.Commit()
	pm.SetMutationHook(nil)
	if killAt == 0 {
		if cerr != nil {
			t.Fatalf("undisturbed commit: %v", cerr)
		}
		closed = true
		if err := sh.Close(); err != nil {
			t.Fatal(err)
		}
		return mutations, false
	}

	// All-or-nothing, and a nil Commit means committed.
	want := "new:"
	if v, err := ctx.Get(keys[0], nil); err != nil {
		t.Fatalf("kill point %d: Get(%s): %v", killAt, keys[0], err)
	} else if bytes.HasPrefix(v, []byte("old:")) {
		want = "old:"
	}
	if cerr == nil && want != "new:" {
		t.Fatalf("kill point %d: Commit returned nil but the old values are visible", killAt)
	}
	for _, k := range keys {
		if v, err := ctx.Get(k, nil); err != nil || string(v) != want+k {
			t.Fatalf("kill point %d (commit err %v): Get(%s) = %q, %v; want %q — partial transaction", killAt, cerr, k, v, err, want+k)
		}
	}
	if !sh.Replica(part).FailedOver() {
		return mutations, false // the commit finished before the kill took effect
	}

	// The promoted standby is healthy, consistent and writable.
	promoted := sh.Replica(part).Active()
	if h := sh.Health(); h.Degraded {
		t.Fatalf("kill point %d: promoted topology degraded: %+v", killAt, h)
	}
	if err := promoted.Check(); err != nil {
		t.Fatalf("kill point %d: promoted store fsck: %v", killAt, err)
	}
	post := "post-" + partKeys[0] // routed wherever; the direct write below is what matters
	if err := promoted.Init().Put(post, []byte("writable")); err != nil {
		t.Fatalf("kill point %d: write to the promoted store: %v", killAt, err)
	}

	// Its log alone — no final checkpoint — recovers every committed key.
	cfg := sh.ShardConfigs()[part]
	cfg.PMEM, cfg.SSD = promoted.Devices()
	closed = true
	if err := sh.CloseNoCheckpoint(); err != nil {
		t.Fatalf("kill point %d: close: %v", killAt, err)
	}
	reopened, err := Open(cfg)
	if err != nil {
		t.Fatalf("kill point %d: reopen promoted store: %v", killAt, err)
	}
	defer reopened.Close() //nolint:errcheck // read-only from here
	if err := reopened.Check(); err != nil {
		t.Fatalf("kill point %d: reopened store fsck: %v", killAt, err)
	}
	rctx := reopened.Init()
	for _, k := range append([]string{post}, partKeys...) {
		wantV := want + k
		if k == post {
			wantV = "writable"
		}
		if v, err := rctx.Get(k, nil); err != nil || string(v) != wantV {
			t.Fatalf("kill point %d: reopened Get(%s) = %q, %v; want %q", killAt, k, v, err, wantV)
		}
	}
	return mutations, true
}
