package dstore

// Cross-shard transaction tests: routed sessions behave like single-store
// ones (read-your-writes, conflict detection, atomic visibility across
// shards). That the two-phase commit survives power loss at any PMEM mutation
// on any shard — every transaction all-or-nothing across the namespace after
// OpenSharded's resolution pass, no bookkeeping leaked — is the crash
// oracle's "2pc" row (oracle_test.go).

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// shardedTxnConfig checkpoints inline, so the 2PC sweep is deterministic.
func shardedTxnConfig() Config { return sweepConfig(4096, 1024, 1<<15) }

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
