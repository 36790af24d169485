package dstore

// Cross-shard transaction tests: routed sessions behave like single-store
// ones (read-your-writes, conflict detection, atomic visibility across
// shards), and the two-phase commit protocol survives a crash-point sweep —
// power loss at any PMEM mutation on any shard mid-commit must recover, via
// OpenSharded's resolution pass, to a state where every transaction is
// all-or-nothing across the whole sharded namespace and no bookkeeping
// objects leak.

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"dstore/internal/pmem"
)

func shardedTxnConfig() Config {
	return Config{
		Blocks:              4096,
		MaxObjects:          1024,
		LogBytes:            1 << 15,
		CheckpointThreshold: 1e-9, // inline checkpoints: deterministic sweeps
		TrackPersistence:    true,
	}
}

const txnShards = 3

// crossShardKeys returns count keys guaranteed to span at least two shards,
// tagged by seq so successive calls pick fresh names.
func crossShardKeys(t *testing.T, sh *Sharded, count, seq int) []string {
	t.Helper()
	keys := make([]string, 0, count)
	shardsSeen := map[int]bool{}
	for i := 0; len(keys) < count; i++ {
		k := fmt.Sprintf("xk-%d-%d", seq, i)
		owner := sh.ShardFor(k)
		if len(keys) < count-1 || !shardsSeen[owner] || len(shardsSeen) > 1 {
			keys = append(keys, k)
			shardsSeen[owner] = true
		}
	}
	if len(shardsSeen) < 2 {
		t.Fatalf("keys %v landed on one shard", keys)
	}
	return keys
}

// TestShardedTxnAtomicVisibility runs a cross-shard transaction and checks
// buffered invisibility, read-your-writes through routing, and all-at-once
// visibility after the two-phase commit — plus zero leaked bookkeeping.
func TestShardedTxnAtomicVisibility(t *testing.T) {
	sh, err := FormatSharded(txnShards, shardedTxnConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	ctx := sh.Init()
	keys := crossShardKeys(t, sh, 4, 0)
	for _, k := range keys {
		if err := ctx.Put(k, []byte("old:"+k)); err != nil {
			t.Fatal(err)
		}
	}

	txn, err := ctx.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys[:3] {
		if v, err := txn.Get(k, nil); err != nil || !bytes.Equal(v, []byte("old:"+k)) {
			t.Fatalf("txn Get(%s) = %q, %v", k, v, err)
		}
		if err := txn.Put(k, []byte("new:"+k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := txn.Delete(keys[3]); err != nil {
		t.Fatal(err)
	}
	// Read-your-writes through the router.
	if v, err := txn.Get(keys[0], nil); err != nil || !bytes.Equal(v, []byte("new:"+keys[0])) {
		t.Fatalf("txn reread = %q, %v", v, err)
	}
	if _, err := txn.Get(keys[3], nil); err != ErrNotFound {
		t.Fatalf("txn Get after buffered delete: %v", err)
	}
	// Invisible outside.
	for _, k := range keys {
		if v, err := ctx.Get(k, nil); err != nil || !bytes.Equal(v, []byte("old:"+k)) {
			t.Fatalf("outside Get(%s) = %q, %v before commit", k, v, err)
		}
	}
	if err := txn.Commit(); err != nil {
		t.Fatalf("cross-shard Commit: %v", err)
	}
	for _, k := range keys[:3] {
		if v, err := ctx.Get(k, nil); err != nil || !bytes.Equal(v, []byte("new:"+k)) {
			t.Fatalf("Get(%s) after commit = %q, %v", k, v, err)
		}
	}
	if _, err := ctx.Get(keys[3], nil); err != ErrNotFound {
		t.Fatalf("Get(%s) after committed delete: %v", keys[3], err)
	}
	assertNoTxnResidue(t, sh)
	st := sh.Stats()
	if st.TxnCommits != 1 {
		t.Fatalf("aggregate TxnCommits = %d, want 1", st.TxnCommits)
	}
}

// TestShardedTxnConflict pins cross-shard OCC: a racing write on ANY
// participant shard fails the whole transaction, leaving every shard
// untouched.
func TestShardedTxnConflict(t *testing.T) {
	sh, err := FormatSharded(txnShards, shardedTxnConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	ctx := sh.Init()
	keys := crossShardKeys(t, sh, 3, 1)
	for _, k := range keys {
		if err := ctx.Put(k, []byte("base")); err != nil {
			t.Fatal(err)
		}
	}
	txn, err := ctx.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if _, err := txn.Get(k, nil); err != nil {
			t.Fatal(err)
		}
		if err := txn.Put(k, []byte("txn")); err != nil {
			t.Fatal(err)
		}
	}
	// Race on the last key (some non-coordinating shard for most layouts).
	if err := ctx.Put(keys[len(keys)-1], []byte("racer")); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); !errors.Is(err, ErrTxnConflict) {
		t.Fatalf("Commit after racing put: %v, want ErrTxnConflict", err)
	}
	for _, k := range keys[:len(keys)-1] {
		if v, _ := ctx.Get(k, nil); !bytes.Equal(v, []byte("base")) {
			t.Fatalf("Get(%s) = %q after conflict — partial 2PC applied", k, v)
		}
	}
	assertNoTxnResidue(t, sh)
}

// assertNoTxnResidue checks no shard retains prepare or decision objects.
func assertNoTxnResidue(t *testing.T, sh *Sharded) {
	t.Helper()
	for i := 0; i < sh.Shards(); i++ {
		for _, prefix := range []string{txnPrepPrefix, txnDecPrefix} {
			names, err := sh.Shard(i).reservedNames(prefix)
			if err != nil {
				t.Fatal(err)
			}
			if len(names) != 0 {
				t.Fatalf("shard %d leaked txn bookkeeping %q", i, names)
			}
		}
	}
}

// shardedTxnWorkload runs sequential cross-shard transactions, each
// rewriting a fixed 4-key set that spans shards. onTxnDone fires after each
// commit returns.
func shardedTxnWorkload(t *testing.T, ctx *ShardedCtx, keys []string, onTxnDone func(i int)) error {
	for i := 1; i <= 25; i++ {
		txn, err := ctx.Begin()
		if err != nil {
			return err
		}
		for _, k := range keys {
			if _, err := txn.Get(k, nil); err != nil {
				return err
			}
			if err := txn.Put(k, []byte(fmt.Sprintf("%s@%03d", k, i))); err != nil {
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

// TestSharded2PCCrashSweep crashes a cross-shard commit workload at every
// stride-th PMEM mutation across ALL shards, reopens via OpenSharded (which
// resolves in-doubt transactions from the surviving prepare/decision
// objects), and asserts the whole-namespace all-or-nothing invariant plus
// clean fsck and zero bookkeeping residue.
func TestSharded2PCCrashSweep(t *testing.T) {
	// Pass one: count mutations of the transaction phase across all shards.
	sh, err := FormatSharded(txnShards, shardedTxnConfig())
	if err != nil {
		t.Fatal(err)
	}
	keys := crossShardKeys(t, sh, 4, 7) // every fresh ring of txnShards places them alike
	ctx := sh.Init()
	for _, k := range keys {
		if err := ctx.Put(k, []byte(k+"@000")); err != nil {
			t.Fatal(err)
		}
	}
	var total uint64
	for i := 0; i < sh.Shards(); i++ {
		pm, _ := sh.Shard(i).Devices()
		pm.SetMutationHook(func() { total++ })
	}
	if err := shardedTxnWorkload(t, ctx, keys, func(int) {}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < sh.Shards(); i++ {
		pm, _ := sh.Shard(i).Devices()
		pm.SetMutationHook(nil)
	}
	sh.Close()
	if total < 500 {
		t.Fatalf("workload performed only %d PMEM mutations", total)
	}

	stride := total / 61
	if stride == 0 {
		stride = 1
	}
	points := 0
	for k := uint64(1); k < total; k += stride {
		points++
		runSharded2PCCrashPoint(t, keys, k)
	}
	t.Logf("verified %d cross-shard crash points across %d PMEM mutations", points, total)
}

func runSharded2PCCrashPoint(t *testing.T, keys []string, crashAt uint64) {
	t.Helper()
	sh, err := FormatSharded(txnShards, shardedTxnConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx := sh.Init()
	for _, k := range keys {
		if err := ctx.Put(k, []byte(k+"@000")); err != nil {
			t.Fatal(err)
		}
	}

	// One shared counter across every shard's PMEM: the workload is
	// single-threaded, so ordering is deterministic.
	cfgs := sh.ShardConfigs()
	pms := make([]*pmem.Device, sh.Shards())
	for i := range pms {
		pms[i], cfgs[i].SSD = sh.Shard(i).Devices()
		cfgs[i].PMEM = pms[i]
	}
	committed := 0
	crashed := runToCrash(pms, crashAt, sh.CloseNoCheckpoint, func() {
		if err := shardedTxnWorkload(t, ctx, keys, func(i int) { committed = i }); err != nil {
			t.Fatalf("2pc crash point %d: workload error before crash: %v", crashAt, err)
		}
	})
	if !crashed {
		sh.Close()
		return
	}

	// Power loss on every shard, then the resolving reopen.
	for i := range cfgs {
		cfgs[i].PMEM.Crash(pmem.CrashDropDirty, int64(crashAt)+int64(i))
	}
	sh2, err := OpenSharded(cfgs)
	if err != nil {
		t.Fatalf("2pc crash point %d: OpenSharded failed: %v", crashAt, err)
	}
	defer sh2.Close()
	if err := sh2.Check(); err != nil {
		t.Fatalf("2pc crash point %d: fsck after recovery: %v", crashAt, err)
	}

	// All-or-nothing across the namespace: every key must carry the same
	// transaction index, equal to committed or committed+1.
	ctx2 := sh2.Init()
	seen := map[string]int{}
	for _, k := range keys {
		v, err := ctx2.Get(k, nil)
		if err != nil {
			t.Fatalf("2pc crash point %d: Get(%s): %v", crashAt, k, err)
		}
		var idx int
		if _, err := fmt.Sscanf(string(v), k+"@%d", &idx); err != nil {
			t.Fatalf("2pc crash point %d: Get(%s) = %q: unparseable", crashAt, k, v)
		}
		seen[k] = idx
	}
	first := seen[keys[0]]
	for k, idx := range seen {
		if idx != first {
			t.Fatalf("2pc crash point %d (after %d commits): key %s at txn %d but %s at txn %d — partial cross-shard transaction",
				crashAt, committed, keys[0], first, k, idx)
		}
	}
	if first != committed && first != committed+1 {
		t.Fatalf("2pc crash point %d: namespace at txn %d, want %d or %d",
			crashAt, first, committed, committed+1)
	}
	assertNoTxnResidue(t, sh2)

	// The resolved store accepts new cross-shard transactions.
	txn, err := ctx2.Begin()
	if err != nil {
		t.Fatalf("2pc crash point %d: Begin after resolve: %v", crashAt, err)
	}
	for _, k := range keys {
		if err := txn.Put(k, []byte(k+"@999")); err != nil {
			t.Fatalf("2pc crash point %d: %v", crashAt, err)
		}
	}
	if err := txn.Commit(); err != nil {
		t.Fatalf("2pc crash point %d: post-resolve commit: %v", crashAt, err)
	}
}
