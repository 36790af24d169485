package dstore

// Tests of stateless ring routing: one ShardedCtx shared by many goroutines
// while the ring changes under it (a shard fails over, a shard is added), and
// what a context's own locks do when their name moves or their store retires.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dstore/internal/fault"
)

// shareCtx runs 8 goroutines on c — Put, Get, Delete, and MPut/MGet on sh —
// calls change once they are under way, and stops them well after it
// returns. Each goroutine owns its keys, so every read it makes must return
// exactly its last acknowledged write; afterwards every acknowledged write
// reads back, through c and through a fresh context.
func shareCtx(t *testing.T, sh *Sharded, c *ShardedCtx, change func() error) {
	t.Helper()
	const workers = 8
	var ops atomic.Int64
	stop := make(chan struct{})
	models := make([]map[string][]byte, workers)
	var wg sync.WaitGroup
	for g := range workers {
		m := map[string][]byte{}
		models[g] = m
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			check := func(k string, got []byte, err error) bool {
				if want, ok := m[k]; ok && (err != nil || !bytes.Equal(got, want)) ||
					!ok && !errors.Is(err, ErrNotFound) {
					t.Errorf("worker %d: read %q = %d bytes, %v; acknowledged %d bytes (present %v)", g, k, len(got), err, len(m[k]), ok)
					return false
				}
				return true
			}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := fmt.Sprintf("%02d-g%d", rng.Intn(16), g)
				var err error
				switch i % 5 {
				case 0, 1:
					v := val(byte(i), 1+rng.Intn(600))
					if err = c.Put(k, v); err == nil {
						m[k] = v
					}
				case 2:
					got, gerr := c.Get(k, nil)
					if !check(k, got, gerr) {
						return
					}
				case 3:
					if err = c.Delete(k); err == nil || errors.Is(err, ErrNotFound) && m[k] == nil {
						err = nil
						delete(m, k)
					}
				case 4:
					keys := []string{k, k + "a", k + "b", k + "c"}
					vals := [][]byte{val(1, 10+i%50), val(2, 20), val(3, 30), val(4, 1+i%300)}
					errs := sh.MPut(0, keys, vals)
					for j := range keys {
						if errs[j] == nil {
							m[keys[j]] = vals[j]
						}
					}
					if err = errors.Join(errs...); err == nil {
						got, errs := sh.MGet(0, keys)
						for j := range keys {
							if !check(keys[j], got[j], errs[j]) {
								return
							}
						}
					}
				}
				if err != nil {
					t.Errorf("worker %d op %d on %q: %v", g, i, k, err)
					return
				}
				ops.Add(1)
			}
		}(g)
	}
	waitOps := func(n int64) {
		for deadline := time.Now().Add(time.Minute); ops.Load() < n && !t.Failed(); {
			if time.Now().After(deadline) {
				t.Errorf("workers stalled at %d ops", ops.Load())
				return
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitOps(400)
	if err := change(); err != nil {
		t.Error(err)
	}
	waitOps(ops.Load() + 800)
	close(stop)
	wg.Wait()
	fresh := sh.Init()
	defer fresh.Finalize()
	for g, m := range models {
		for k, want := range m {
			for _, cx := range []*ShardedCtx{c, fresh} {
				if got, err := cx.Get(k, nil); err != nil || !bytes.Equal(got, want) {
					t.Errorf("worker %d's acknowledged %q: %d bytes, %v; want %d bytes", g, k, len(got), err, len(want))
				}
			}
		}
	}
	if err := sh.Check(); err != nil {
		t.Error(err)
	}
}

// killPrimary makes shard i's primary fail PMEM writes from the from-th on
// (the next thousand, more than any writer retries), so the mutation that
// meets them degrades it and fails the shard over. The plan is installed
// while nothing writes, as the device requires.
func killPrimary(sh *Sharded, i int, from uint64) {
	dead := make([]uint64, 1000)
	for j := range dead {
		dead[j] = from + uint64(j)
	}
	pm, _ := sh.Replica(i).Active().Devices()
	pm.SetFaultPlan(fault.NewPlan(fault.Config{FailWriteAt: dead}))
}

// One context, shared by eight goroutines, keeps every acknowledged write
// while shard 0 of a replicated ring fails over to its standby under them:
// its primary's PMEM dies at its 500th write.
func TestShardedCtxSharedAcrossFailover(t *testing.T) {
	sh, err := FormatShardedReplicated(2, replTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close() //nolint:errcheck // best-effort teardown after verification
	c := sh.Init()
	defer c.Finalize()
	killPrimary(sh, 0, 500)
	shareCtx(t, sh, c, func() error {
		for deadline := time.Now().Add(time.Minute); !sh.Replica(0).FailedOver(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				return errors.New("shard 0 never failed over")
			}
		}
		return nil
	})
}

// One context, shared by eight goroutines, keeps every acknowledged write
// while AddShard migrates keys and flips the ring under them.
func TestShardedCtxSharedAcrossAddShard(t *testing.T) {
	sh, err := FormatSharded(2, shardTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	c := sh.Init()
	defer c.Finalize()
	shareCtx(t, sh, c, func() error {
		_, err := sh.AddShard()
		return err
	})
	if sh.RingEpoch() != 1 {
		t.Fatalf("ring epoch %d after AddShard", sh.RingEpoch())
	}
}

// A lock stays where it was taken. After AddShard moves its name, the
// holder's Put lands on the name's new shard and Unlock releases the lock on
// the donor; after the lock's shard fails over, the holder's Put lands on the
// promoted standby, Unlock settles the record on the retired primary, whose
// dead persistence path makes the verdict ErrDegraded, and a write another
// context made behind the held lock survived the failover.
func TestShardedCtxLockSurvivesReshardAndFailover(t *testing.T) {
	t.Run("AddShard", func(t *testing.T) {
		sh, err := FormatSharded(2, shardTestConfig())
		if err != nil {
			t.Fatal(err)
		}
		defer sh.Close()
		c := sh.Init()
		defer c.Finalize()
		names := make([]string, 32)
		for i := range names {
			names[i] = fmt.Sprintf("%02d-lock", i)
			if err := c.Lock(names[i]); err != nil {
				t.Fatal(err)
			}
		}
		donor := map[string]int{}
		for _, n := range names {
			donor[n] = sh.ShardFor(n)
		}
		if _, err := sh.AddShard(); err != nil {
			t.Fatal(err)
		}
		moved := ""
		for _, n := range names {
			if sh.ShardFor(n) == 2 {
				moved = n
				break
			}
		}
		if moved == "" {
			t.Fatal("AddShard moved none of 32 locked names")
		}
		if err := c.Put(moved, []byte("holder")); err != nil {
			t.Fatalf("holder's Put of moved %q: %v", moved, err)
		}
		if err := c.Unlock(moved); err != nil {
			t.Fatalf("Unlock of moved %q: %v", moved, err)
		}
		if err := c.Unlock(moved); err == nil {
			t.Fatalf("second Unlock of %q succeeded", moved)
		}
		// The donor's lock is gone: another context locks the name there.
		other := sh.Shard(donor[moved]).Init()
		defer other.Finalize()
		if err := other.Lock(moved); err != nil {
			t.Fatalf("donor lock of %q after Unlock: %v", moved, err)
		}
	})
	t.Run("Failover", func(t *testing.T) {
		sh, err := FormatShardedReplicated(2, replTestConfig())
		if err != nil {
			t.Fatal(err)
		}
		defer sh.Close() //nolint:errcheck // best-effort teardown after verification
		c := sh.Init()
		defer c.Finalize()
		name := "held"
		i := sh.ShardFor(name)
		if err := c.Lock(name); err != nil {
			t.Fatal(err)
		}
		// A write acknowledged behind the held lock's record reaches the
		// standby: the failover's final drain does not stop at the lock.
		after := ""
		for j := 0; after == "" || sh.ShardFor(after) != i; j++ {
			after = fmt.Sprintf("after-%d", j)
		}
		if err := sh.Init().Put(after, []byte("acked")); err != nil {
			t.Fatal(err)
		}
		killPrimary(sh, i, 1)
		if err := c.Put(name, []byte("holder")); err != nil {
			t.Fatalf("holder's Put after failover: %v", err)
		}
		if !sh.Replica(i).FailedOver() {
			t.Fatal("the holder's Put did not fail the shard over")
		}
		if err := c.Unlock(name); !errors.Is(err, ErrDegraded) {
			t.Fatalf("Unlock on the retired primary: %v, want ErrDegraded", err)
		}
		if got, err := c.Get(name, nil); err != nil || string(got) != "holder" {
			t.Fatalf("Get after Unlock: %q, %v", got, err)
		}
		if got, err := c.Get(after, nil); err != nil || string(got) != "acked" {
			t.Fatalf("write acknowledged behind the lock, after failover: %q, %v", got, err)
		}
	})
}

// Finalize releases every lock the context holds, on every shard: another
// context then takes each of them at once.
func TestShardedCtxFinalizeReleasesLocks(t *testing.T) {
	sh, err := FormatSharded(2, shardTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	c := sh.Init()
	names := make([]string, 8)
	shards := map[int]bool{}
	for i := range names {
		names[i] = fmt.Sprintf("fin-%d", i)
		shards[sh.ShardFor(names[i])] = true
		if err := c.Lock(names[i]); err != nil {
			t.Fatal(err)
		}
	}
	if len(shards) != 2 {
		t.Fatalf("8 names landed on shards %v; want both", shards)
	}
	c.Finalize()
	d := sh.Init()
	defer d.Finalize()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, n := range names {
			if err := d.Lock(n); err != nil {
				t.Error(err)
			}
		}
	}()
	finishBy(t, 10*time.Second, done)
	if err := c.Put("x", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Put on a finalized context: %v", err)
	}
}
