package dstore_test

// End-to-end tests of batched wire operations: MPUT/MGET/MDELETE frames
// against single and sharded stores, strict per-sub-op error semantics
// (a failed sub-op fails only its caller), batched-vs-unbatched state
// equivalence under a concurrent workload, NOT_MINE convergence when a
// reshard lands mid-batch, and a standby applying group-committed records
// identically.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"dstore"
	"dstore/internal/client"
	"dstore/internal/fault"
	"dstore/internal/replica"
	"dstore/internal/wire"
)

// TestNetBatchRoundTrip drives explicit M-ops through the full stack over a
// single store, including a batch large enough to chunk into multiple
// frames (> wire.MaxBatch sub-ops).
func TestNetBatchRoundTrip(t *testing.T) {
	st, err := dstore.Format(netTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	addr, srv := serveStore(t, st, dstore.ServeOptions{})
	defer shutdownServer(t, srv)

	c, err := client.Dial(client.Config{Addr: addr, Conns: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	const n = wire.MaxBatch + 44 // forces client-side chunking into 2 frames
	keys := make([]string, n)
	vals := make([][]byte, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("mb/%04d", i)
		vals[i] = bytes.Repeat([]byte{byte(i%251 + 1)}, 16+i%50)
	}
	for i, err := range c.MPut(ctx, keys, vals) {
		if err != nil {
			t.Fatalf("MPut[%d]: %v", i, err)
		}
	}

	got, errs := c.MGet(ctx, keys)
	for i := range keys {
		if errs[i] != nil {
			t.Fatalf("MGet[%d]: %v", i, errs[i])
		}
		if !bytes.Equal(got[i], vals[i]) {
			t.Fatalf("MGet[%d]: %d bytes, want %d", i, len(got[i]), len(vals[i]))
		}
	}

	// Delete every other key; re-read shows per-slot NotFound only there.
	var delKeys []string
	for i := 0; i < n; i += 2 {
		delKeys = append(delKeys, keys[i])
	}
	for i, err := range c.MDelete(ctx, delKeys) {
		if err != nil {
			t.Fatalf("MDelete[%d]: %v", i, err)
		}
	}
	got, errs = c.MGet(ctx, keys)
	for i := range keys {
		if i%2 == 0 {
			if !errors.Is(errs[i], dstore.ErrNotFound) {
				t.Fatalf("MGet[%d] after delete: %v, want ErrNotFound", i, errs[i])
			}
			continue
		}
		if errs[i] != nil || !bytes.Equal(got[i], vals[i]) {
			t.Fatalf("MGet[%d]: err=%v", i, errs[i])
		}
	}

	// The group-commit stats section rides STATS once batches have formed.
	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Batch == nil || stats.Batch.Records == 0 {
		t.Fatalf("stats batch section missing after batched writes: %+v", stats.Batch)
	}
}

// TestNetBatchEquivalence applies one deterministic concurrent workload
// twice — batched (Batcher + explicit M-ops, group commit on) and unbatched
// (singleton ops, group commit off) — and requires byte-identical final
// state: same scan listing, same values.
func TestNetBatchEquivalence(t *testing.T) {
	run := func(batched bool) (map[string][]byte, []wire.Object) {
		cfg := netTestConfig()
		cfg.DisableGroupCommit = !batched
		st, err := dstore.Format(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		addr, srv := serveStore(t, st, dstore.ServeOptions{})
		defer shutdownServer(t, srv)
		c, err := client.Dial(client.Config{Addr: addr, Conns: 4})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		ctx := context.Background()
		b := client.NewBatcher(c)

		// Each goroutine owns a disjoint key range, so the final state is
		// deterministic regardless of interleaving.
		const workers, perKey = 6, 20
		var wg sync.WaitGroup
		errCh := make(chan error, workers)
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < perKey; i++ {
					k := fmt.Sprintf("eq/%d/%02d", g, i%7)
					v := bytes.Repeat([]byte{byte(g*40 + i + 1)}, 32+i*9)
					var err error
					if batched {
						switch i % 4 {
						case 3:
							err = b.Delete(context.Background(), k)
						case 2:
							errs := c.MPut(ctx, []string{k}, [][]byte{v})
							err = errs[0]
						default:
							err = b.Put(context.Background(), k, v)
						}
					} else {
						if i%4 == 3 {
							err = c.Delete(ctx, k)
						} else {
							err = c.Put(ctx, k, v)
						}
					}
					if err != nil && !errors.Is(err, dstore.ErrNotFound) {
						errCh <- fmt.Errorf("g%d op%d: %w", g, i, err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		close(errCh)
		for err := range errCh {
			t.Fatal(err)
		}

		objs, err := c.Scan(ctx, "eq/", 0)
		if err != nil {
			t.Fatal(err)
		}
		state := map[string][]byte{}
		for _, o := range objs {
			v, err := c.Get(ctx, o.Name)
			if err != nil {
				t.Fatalf("Get(%s): %v", o.Name, err)
			}
			state[o.Name] = v
		}
		return state, objs
	}

	gotState, gotObjs := run(true)
	wantState, wantObjs := run(false)
	if len(gotObjs) != len(wantObjs) {
		t.Fatalf("scan listing: %d objects batched, %d unbatched", len(gotObjs), len(wantObjs))
	}
	for i := range gotObjs {
		if gotObjs[i] != wantObjs[i] {
			t.Fatalf("scan[%d]: %+v batched vs %+v unbatched", i, gotObjs[i], wantObjs[i])
		}
	}
	for k, v := range wantState {
		if !bytes.Equal(gotState[k], v) {
			t.Fatalf("key %q: batched value differs from unbatched", k)
		}
	}
}

// TestNetBatchPartialVerdicts pins the per-sub-op error contract: with one
// shard degraded, an MPut spanning all shards fails exactly the sub-ops
// owned by the degraded shard (with ErrDegraded) and applies the rest.
func TestNetBatchPartialVerdicts(t *testing.T) {
	const shards = 4
	sh, addr, srv := serveSharded(t, shards)
	defer sh.Close()
	defer shutdownServer(t, srv)

	c, err := client.Dial(client.Config{Addr: addr, Conns: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	const victim = 2
	pm, _ := sh.Shard(victim).Devices()
	pm.SetFaultPlan(fault.NewPlan(fault.Config{Seed: 11, WriteErrRate: 1}))

	keys := make([]string, 60)
	vals := make([][]byte, 60)
	for i := range keys {
		keys[i] = fmt.Sprintf("pv/%03d", i)
		vals[i] = bytes.Repeat([]byte{byte(i + 1)}, 48)
	}
	errs := c.MPut(ctx, keys, vals)
	sawVictim, sawOK := false, false
	for i, err := range errs {
		if sh.ShardFor(keys[i]) == victim {
			sawVictim = true
			if !errors.Is(err, dstore.ErrDegraded) {
				t.Fatalf("MPut[%d] on degraded shard: %v, want ErrDegraded", i, err)
			}
			continue
		}
		sawOK = true
		if err != nil {
			t.Fatalf("MPut[%d] on healthy shard: %v", i, err)
		}
	}
	if !sawVictim || !sawOK {
		t.Fatalf("workload did not span healthy and degraded shards (victim=%v ok=%v)", sawVictim, sawOK)
	}

	// Reads keep serving on every shard: per-slot verdicts are NotFound for
	// the failed puts, values for the applied ones.
	got, gerrs := c.MGet(ctx, keys)
	for i := range keys {
		if sh.ShardFor(keys[i]) == victim {
			if !errors.Is(gerrs[i], dstore.ErrNotFound) {
				t.Fatalf("MGet[%d]: %v, want ErrNotFound (put failed)", i, gerrs[i])
			}
			continue
		}
		if gerrs[i] != nil || !bytes.Equal(got[i], vals[i]) {
			t.Fatalf("MGet[%d]: err=%v", i, gerrs[i])
		}
	}
}

// TestNetBatchReshardConvergence covers NOT_MINE mid-batch: a client with a
// cached ring keeps issuing MPuts while AddShard flips the epoch under it.
// Every sub-op must converge (transparent per-sub retry after a ring
// refresh) and every written value must be readable afterwards. The direct
// store-level call pins the raw verdict: a stale epoch fails sub-ops with
// ErrNotMine rather than applying them under routing the client never saw.
func TestNetBatchReshardConvergence(t *testing.T) {
	sh, addr, srv := serveSharded(t, 2)
	defer sh.Close()
	defer shutdownServer(t, srv)

	c, err := client.Dial(client.Config{Addr: addr, Conns: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	if _, err := c.Ring(ctx); err != nil {
		t.Fatal(err)
	}
	oldEpoch := c.RingEpoch()

	done := make(chan error, 1)
	go func() {
		_, err := sh.AddShard()
		done <- err
	}()

	shadow := map[string][]byte{}
	for round := 0; round < 30; round++ {
		keys := make([]string, 16)
		vals := make([][]byte, 16)
		for j := range keys {
			keys[j] = fmt.Sprintf("rc/%02d/%02d", round, j)
			vals[j] = bytes.Repeat([]byte{byte(round + j + 1)}, 40)
			shadow[keys[j]] = vals[j]
		}
		for j, err := range c.MPut(ctx, keys, vals) {
			if err != nil {
				t.Fatalf("round %d MPut[%d]: %v", round, j, err)
			}
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("AddShard: %v", err)
	}

	for k, v := range shadow {
		got, err := c.Get(ctx, k)
		if err != nil || !bytes.Equal(got, v) {
			t.Fatalf("Get(%s) after reshard: %v", k, err)
		}
	}

	// Raw store-level contract: every sub-op routed under a superseded
	// nonzero epoch is rejected NOT_MINE after the next flip, none applied.
	// (A fresh ring starts at epoch 0, which means "unstamped" on the wire,
	// so the stale epoch is captured after the first AddShard.)
	staleEpoch := sh.RingEpoch()
	if staleEpoch == oldEpoch {
		t.Fatalf("ring epoch did not advance (still %d)", staleEpoch)
	}
	if _, err := sh.AddShard(); err != nil {
		t.Fatalf("second AddShard: %v", err)
	}
	for i, err := range sh.MPut(staleEpoch, []string{"stale/a", "stale/b"}, [][]byte{{1}, {2}}) {
		if !errors.Is(err, dstore.ErrNotMine) {
			t.Fatalf("stale-epoch MPut[%d]: %v, want ErrNotMine", i, err)
		}
	}
	if _, err := c.Get(ctx, "stale/a"); !errors.Is(err, dstore.ErrNotFound) {
		t.Fatalf("stale sub-op leaked into the store: %v", err)
	}
}

// TestNetBatchReplication proves a standby applies group-committed,
// batch-written records identically: concurrent batched writers on the
// primary, WAL shipping to a tailing standby, byte-equal contents after
// promotion of nothing — just a caught-up follower.
func TestNetBatchReplication(t *testing.T) {
	primary, err := dstore.Format(netTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close() //nolint:errcheck // teardown
	addr, srv := serveStore(t, primary, dstore.ServeOptions{})

	sb, err := dstore.Format(netTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer sb.Close() //nolint:errcheck // teardown
	sb.BeginStandby()
	tailer, err := replica.Start(replica.Config{Addr: addr, Store: sb, AckEvery: 8})
	if err != nil {
		t.Fatal(err)
	}

	cl, err := client.Dial(client.Config{Addr: addr, Conns: 3})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	shadow := sync.Map{}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 10; round++ {
				keys := make([]string, 12)
				vals := make([][]byte, 12)
				for j := range keys {
					keys[j] = fmt.Sprintf("repl/%d/%02d/%02d", g, round, j)
					vals[j] = bytes.Repeat([]byte{byte(g*50 + round + j + 1)}, 64)
					shadow.Store(keys[j], vals[j])
				}
				for j, err := range cl.MPut(ctx, keys, vals) {
					if err != nil {
						t.Errorf("g%d MPut[%d]: %v", g, j, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	waitApplied(t, primary, sb)
	cl.Close() //nolint:errcheck // primary is going away

	shutdownServer(t, srv)
	waitApplied(t, primary, sb)
	if err := tailer.Stop(); err != nil {
		t.Fatalf("tailer.Stop: %v", err)
	}
	if err := sb.Promote(); err != nil {
		t.Fatalf("Promote: %v", err)
	}

	sctx := sb.Init()
	count := 0
	shadow.Range(func(k, v any) bool {
		count++
		got, err := sctx.Get(k.(string), nil)
		if err != nil || !bytes.Equal(got, v.([]byte)) {
			t.Fatalf("standby Get(%s): %v", k, err)
			return false
		}
		return true
	})
	if count != 4*10*12 {
		t.Fatalf("shadow holds %d keys, want %d", count, 4*10*12)
	}
	if gc := primary.Stats().Engine; gc.GCRecords == 0 {
		t.Fatal("primary writes did not flow through group commit")
	}
}
