package dstore

// Tests of live resharding: membership changes on a serving store (the
// oracle's verdict against a model — its count check is the no-duplicate
// invariant, residue on a second shard fails it though routing hides it — and
// ring persistence across a crash) and a race-enabled soak that reshardes
// under a concurrent YCSB-A-style workload with seeded device write faults. A
// migration frozen at any protocol phase and then power-failed is the crash
// oracle's "reshard" rows (oracle_test.go).

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"dstore/internal/fault"
	"dstore/internal/ring"
)

// TestAddShardBasic grows a loaded 3-shard store to 4, checks equivalence
// and placement, then crashes and reopens to prove the flipped ring (not
// the mod-N default) is what recovery trusts.
func TestAddShardBasic(t *testing.T) {
	sh, err := FormatSharded(3, shardTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	shadow := play(t, sh, keyspace(200)).m

	idx, err := sh.AddShard()
	if err != nil {
		t.Fatalf("AddShard: %v", err)
	}
	if idx != 3 {
		t.Fatalf("AddShard index = %d, want 3", idx)
	}
	if got := sh.RingEpoch(); got != 1 {
		t.Fatalf("ring epoch = %d, want 1 after first membership change", got)
	}
	judge(t, "resharded", sh, shadow)
	counts := sh.ShardKeyCounts()
	if len(counts) != 4 || counts[3] == 0 {
		t.Fatalf("new shard holds no keys: counts = %v", counts)
	}

	cfgs, err := sh.Crash(1)
	if err != nil {
		t.Fatalf("Crash: %v", err)
	}
	sh2, err := OpenSharded(cfgs)
	if err != nil {
		t.Fatalf("OpenSharded: %v", err)
	}
	defer sh2.Close()
	if got := sh2.RingEpoch(); got != 1 {
		t.Fatalf("recovered ring epoch = %d, want 1", got)
	}
	judge(t, "recovered", sh2, shadow)
}

// TestRemoveShardBasic drains a member out of a grown store and checks the
// survivors absorb every key.
func TestRemoveShardBasic(t *testing.T) {
	sh, err := FormatSharded(3, shardTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	shadow := play(t, sh, keyspace(150)).m

	if err := sh.RemoveShard(1); err != nil {
		t.Fatalf("RemoveShard: %v", err)
	}
	judge(t, "resharded", sh, shadow)
	counts := sh.ShardKeyCounts()
	if counts[1] != 0 {
		t.Fatalf("drained shard still holds %d keys", counts[1])
	}
	for _, u := range shadow.units {
		for k := range u.w {
			if sh.ShardFor(k) == 1 {
				t.Fatalf("ring still routes %q to the drained shard", k)
			}
		}
	}
	// Removing a non-member (again, or out of range) is a typed refusal.
	if err := sh.RemoveShard(1); err == nil {
		t.Fatal("second RemoveShard(1) succeeded, want error")
	}
	if err := sh.RemoveShard(9); err == nil {
		t.Fatal("RemoveShard(9) succeeded, want error")
	}
}

// TestAddShardLiveSoak reshardes under fire: writer goroutines run a
// YCSB-A-style 50/50 read/update mix (with occasional deletes) against a
// 3-shard store with seeded transient device faults on the SSD tier, while the main
// goroutine grows the store by one shard. The migration hook stretches the
// copy phase so the workload genuinely overlaps it. Afterwards the store
// must hold exactly the shadow — zero lost, zero duplicated keys. Run with
// -race in CI.
func TestAddShardLiveSoak(t *testing.T) {
	cfg := shardTestConfig()
	// Transient SSD faults ride the store's device-retry path (PMEM WAL
	// faults would degrade the store instead — a different test's subject).
	cfg.SSDFaults = fault.NewPlan(fault.Config{Seed: 7, ReadErrRate: 0.002, WriteErrRate: 0.002})
	sh, err := FormatSharded(3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()

	const keys = 192
	key := func(i int) string { return fmt.Sprintf("soak/%04d", i) }

	// Shadow model: per-key locks make store-op + shadow-record atomic.
	type slot struct {
		mu  sync.Mutex
		val []byte // nil = absent
	}
	shadow := make([]slot, keys)

	c := sh.Init()
	for i := 0; i < keys; i++ {
		v := []byte(fmt.Sprintf("init-%04d", i))
		if err := c.Put(key(i), v); err != nil {
			t.Fatalf("seed Put: %v", err)
		}
		shadow[i].val = v
	}

	// Stretch the copy phase so writers overlap the migration window.
	sh.reshardHook = func(phase, _ string) error {
		if phase == "copy" {
			time.Sleep(200 * time.Microsecond)
		}
		return nil
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + w)))
			ctx := sh.Init()
			defer ctx.Finalize()
			for seq := 0; ; seq++ {
				select {
				case <-stop:
					return
				default:
				}
				i := rng.Intn(keys)
				switch op := rng.Intn(100); {
				case op < 50: // read
					s := &shadow[i]
					s.mu.Lock()
					got, err := ctx.Get(key(i), nil)
					switch {
					case s.val == nil:
						if !errors.Is(err, ErrNotFound) {
							t.Errorf("Get(%s) = %v, want NotFound", key(i), err)
						}
					case err != nil:
						t.Errorf("Get(%s): %v", key(i), err)
					case !bytes.Equal(got, s.val):
						t.Errorf("Get(%s): stale/wrong bytes", key(i))
					}
					s.mu.Unlock()
				case op < 95: // update
					v := []byte(fmt.Sprintf("w%d-s%d-k%04d", w, seq, i))
					s := &shadow[i]
					s.mu.Lock()
					if err := ctx.Put(key(i), v); err != nil {
						t.Errorf("Put(%s): %v", key(i), err)
					} else {
						s.val = append([]byte(nil), v...)
					}
					s.mu.Unlock()
				default: // delete
					s := &shadow[i]
					s.mu.Lock()
					err := ctx.Delete(key(i))
					switch {
					case err == nil:
						s.val = nil
					case errors.Is(err, ErrNotFound) && s.val == nil:
						// agreed
					default:
						t.Errorf("Delete(%s): %v (shadow present=%v)", key(i), err, s.val != nil)
					}
					s.mu.Unlock()
				}
			}
		}(w)
	}

	idx, err := sh.AddShard()
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatalf("AddShard under load: %v", err)
	}
	if idx != 3 {
		t.Fatalf("AddShard index = %d, want 3", idx)
	}

	final := make(map[string][]byte)
	for i := range shadow {
		if shadow[i].val != nil {
			final[key(i)] = shadow[i].val
		}
	}
	judge(t, "resharded", sh, modelOf(final))
}

// TestReshardRingRoundTrip pins that the persisted ring object is invisible
// to user-facing surfaces: counts, scans, and per-shard key counts all
// exclude the reserved namespace.
func TestReshardRingSurfacesHidden(t *testing.T) {
	sh, err := FormatSharded(2, shardTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	if got := sh.Count(); got != 0 {
		t.Fatalf("fresh store Count = %d, want 0 (ring object hidden)", got)
	}
	c := sh.Init()
	defer c.Finalize()
	if err := c.Scan("", func(info ObjectInfo) bool {
		t.Errorf("fresh store scan yielded %q", info.Name)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	for _, n := range sh.ShardKeyCounts() {
		if n != 0 {
			t.Fatalf("fresh store ShardKeyCounts = %v, want zeros", sh.ShardKeyCounts())
		}
	}
	// The ring data itself round-trips through the decode path clients use.
	r, err := ring.Decode(sh.RingData())
	if err != nil {
		t.Fatalf("RingData does not decode: %v", err)
	}
	if r.Epoch() != 0 || r.Mode() != ring.ModeModN || r.Len() != 2 {
		t.Fatalf("fresh ring = epoch %d mode %v len %d, want 0/modN/2", r.Epoch(), r.Mode(), r.Len())
	}
}
