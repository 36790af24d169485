package dstore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"dstore/internal/wal"
)

// Tests of the slot-hint table (readers.go): a point read takes the slot a
// hint names only when that slot records the reader's name, so a hint never
// answers differently from the B+ tree.

// TestSlotHintsAgreeWithIndex drives a seeded script over a store whose
// hint table has 16 buckets for 7 names (two of them sharing a bucket), so
// slots are reused and buckets change hands. After every step each Get
// matches the model and Check — which holds every hint to the index — passes.
// Planted hints stand in for a collision of bucket and tag, which no real
// pair of names here reaches.
// The degraded case is the one state where a slot records a name the index
// does not map there; only the writer-side clear keeps a hint from reaching
// it.
func TestSlotHintsAgreeWithIndex(t *testing.T) {
	t.Run("script", func(t *testing.T) {
		cfg := Config{Blocks: 512, MaxObjects: 8, LogBytes: 1 << 16, TrackPersistence: true}
		s := newStoreT(t, cfg)
		defer func() { s.Close() }() //nolint:errcheck // test teardown
		keys := []string{"k0", "k1", "k2", "k3", "a-name-longer-than-sixteen-bytes"}
		keys = append(keys, hintMate(s, "k0"), hintMate(s, "k3"))

		rng := rand.New(rand.NewSource(33))
		model := map[string][]byte{}
		ctx := s.Init()
		hits := 0
		verify := func(step int, what string) {
			t.Helper()
			for _, k := range keys {
				hash := wal.NameHash(k)
				if slot, ok := hinted(s.hints.bucket(hash).Load(), hash); ok {
					if got, in := s.front.tree.Get([]byte(k)); in && got == slot {
						hits++
					}
				}
				got, err := ctx.Get(k, nil)
				want, live := model[k]
				if live && (err != nil || !bytes.Equal(got, want)) || !live && !errors.Is(err, ErrNotFound) {
					t.Fatalf("step %d (%s): Get(%s) = %d bytes, %v; model has %d bytes (live %v)", step, what, k, len(got), err, len(want), live)
				}
			}
			if err := s.Check(); err != nil {
				t.Fatalf("step %d (%s): %v", step, what, err)
			}
		}
		value := func() []byte {
			v := make([]byte, 1+rng.Intn(6000))
			rng.Read(v)
			return v
		}

		for step := 0; step < 400; step++ {
			k := keys[rng.Intn(len(keys))]
			var what string
			switch op := rng.Intn(11); {
			case op < 3:
				what = "put " + k
				v := value()
				if err := ctx.Put(k, v); err != nil {
					t.Fatal(err)
				}
				model[k] = v
			case op < 5:
				what = "delete " + k
				err := ctx.Delete(k)
				if _, live := model[k]; live != (err == nil) {
					t.Fatalf("step %d: delete %s: %v (live %v)", step, k, err, live)
				}
				delete(model, k)
			case op == 5:
				what = "txn"
				tx, err := ctx.Begin()
				if err != nil {
					t.Fatal(err)
				}
				if got, err := tx.Get(k, nil); !bytes.Equal(got, model[k]) || (err == nil) != (model[k] != nil) {
					t.Fatalf("step %d: txn Get(%s) = %d bytes, %v", step, k, len(got), err)
				}
				writes := map[string][]byte{}
				for n := 2 + rng.Intn(2); n > 0; n-- {
					w := keys[rng.Intn(len(keys))]
					if rng.Intn(3) == 0 {
						writes[w] = nil
						err = tx.Delete(w)
					} else {
						writes[w] = value()
						err = tx.Put(w, writes[w])
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				if err := tx.Commit(); err != nil {
					t.Fatalf("step %d: commit: %v", step, err)
				}
				for w, v := range writes {
					if what += " " + w; v == nil {
						delete(model, w)
					} else {
						model[w] = v
					}
				}
			case op == 6:
				what = "locked put " + k
				if err := ctx.Lock(k); err != nil {
					t.Fatal(err)
				}
				v := value()
				if err := ctx.Put(k, v); err != nil {
					t.Fatal(err)
				}
				model[k] = v
				if got, err := ctx.Get(k, nil); err != nil || !bytes.Equal(got, v) {
					t.Fatalf("step %d: holder Get(%s): %v", step, k, err)
				}
				if err := ctx.Unlock(k); err != nil {
					t.Fatal(err)
				}
			case op < 9:
				what = "open+extend " + k
				o, err := ctx.Open(k, 0, OpenCreate|OpenRead|OpenWrite)
				if err != nil {
					t.Fatal(err)
				}
				old := model[k]
				if len(old) > 40000 {
					old = nil
					if err := ctx.Put(k, nil); err != nil {
						t.Fatal(err)
					}
				}
				p := value()
				if _, err := o.WriteAt(p, int64(len(old))); err != nil {
					t.Fatalf("step %d: WriteAt(%s): %v", step, k, err)
				}
				model[k] = append(append([]byte{}, old...), p...)
				if n, err := o.Size(); err != nil || n != uint64(len(model[k])) {
					t.Fatalf("step %d: Size(%s) = %d, %v, want %d", step, k, n, err, len(model[k]))
				}
				o.Close()
			case op == 9:
				// What a name sharing k's bucket and tag would leave: a hint
				// for k naming some other slot. A reader must not take it.
				slot := uint64(rng.Intn(int(cfg.MaxObjects)))
				what = fmt.Sprintf("hint %s at slot %d", k, slot)
				s.hints.bucket(wal.NameHash(k)).Store(hint(wal.NameHash(k), slot))
			default:
				what = "reopen"
				ctx.Finalize()
				s = reopen(t, s, cfg, int64(step), rng.Intn(2) == 0)
				ctx = s.Init()
			}
			verify(step, what)
		}
		ctx.Finalize()
		if hits == 0 {
			t.Fatal("no Get found its hint: the script never exercised the hint path")
		}
		t.Logf("%d of %d verified Gets found a live hint", hits, 400*len(keys))
	})

	// A transaction's second sub-op creates a name on the very slot the name
	// lived on before it was deleted, and its index insert fails (the arena
	// is exhausted): the apply stays visible — the slot records the name, the
	// index does not have it — and the store degrades. A hint left from the
	// name's earlier life would serve the dead record's value; the clear at
	// the delete and at the failed create means the read asks the index.
	t.Run("degraded-partial-apply", func(t *testing.T) {
		cfg := Config{Blocks: 64, MaxObjects: 4, LogBytes: 1 << 16, TrackPersistence: true}
		s := newStoreT(t, cfg)
		defer func() { s.CloseNoCheckpoint() }() //nolint:errcheck // a degraded store's teardown
		c := s.Init()
		const first, name = "a-overwritten", "x-a-name-longer-than-sixteen-bytes"
		for _, k := range []string{first, name} {
			if err := c.Put(k, []byte("old "+k)); err != nil {
				t.Fatal(err)
			}
		}
		hash := wal.NameHash(name)
		if _, err := c.Get(name, nil); err != nil {
			t.Fatal(err)
		}
		was, _ := s.front.tree.Get([]byte(name))
		if slot, ok := hinted(s.hints.bucket(hash).Load(), hash); !ok || slot != was {
			t.Fatalf("Get left no hint for slot %d (bucket says %d, %v)", was, slot, ok)
		}
		if err := c.Delete(name); err != nil {
			t.Fatal(err)
		}
		// Fill every other free slot: the pool hands out was next.
		for i := 0; s.slotPool.Free() > 1; i++ {
			if err := c.Put(fmt.Sprintf("filler-%d", i), []byte("f")); err != nil {
				t.Fatal(err)
			}
		}
		for size := uint64(1 << 20); size > 0; size /= 2 {
			for {
				if _, err := s.eng.Frontend().Alloc(size); err != nil {
					break
				}
			}
		}

		tx, err := c.Begin()
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []string{first, name} {
			if err := tx.Put(k, []byte("dead "+k)); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err == nil || !s.Degraded() {
			t.Fatalf("commit over an exhausted arena: %v (degraded %v)", err, s.Degraded())
		}
		if e, used, _ := s.zoneRead(was, nil); !used || string(e.Name) != name {
			t.Fatalf("the failed create did not land on slot %d (used %v, name %q)", was, used, e.Name)
		}
		if got, err := c.Get(name, nil); !errors.Is(err, ErrNotFound) {
			t.Fatalf("degraded store: Get(%s) = %q, %v; the index has no such name", name, got, err)
		}

		c.Finalize()
		if err := s.CloseNoCheckpoint(); err != nil {
			t.Fatal(err)
		}
		cfg.PMEM, cfg.SSD = s.Devices()
		if s, err = Open(cfg); err != nil {
			t.Fatal(err)
		}
		c = s.Init()
		defer c.Finalize()
		if err := s.Check(); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Get(name, nil); !errors.Is(err, ErrNotFound) {
			t.Fatalf("reopened: Get(%s): %v", name, err)
		}
		if got, err := c.Get(first, nil); err != nil || string(got) != "old "+first {
			t.Fatalf("reopened: Get(%s) = %q, %v", first, got, err)
		}
	})

	// A writer's pool phase takes a hint on the same terms (slotOf): a hint
	// naming a free slot, another name's slot, or a bucket mate's slot under
	// either tag sends the overwrite to the B+ tree, and it lands on the
	// name's own slot, whose hint it leaves behind.
	t.Run("pool-phase", func(t *testing.T) {
		s := newStoreT(t, Config{Blocks: 512, MaxObjects: 8, LogBytes: 1 << 16})
		defer s.Close()
		c := s.Init()
		defer c.Finalize()
		k, other, mate := "k", "other", hintMate(s, "k")
		for _, n := range []string{k, other, mate} {
			if err := c.Put(n, []byte("first "+n)); err != nil {
				t.Fatal(err)
			}
		}
		slotOf := func(n string) uint64 {
			slot, ok := s.front.tree.Get([]byte(n))
			if !ok {
				t.Fatalf("%s is not indexed", n)
			}
			return slot
		}
		s.poolMu.Lock()
		free, _ := s.slotPool.Get()
		s.slotPool.Put(free) //nolint:errcheck
		s.poolMu.Unlock()
		hk, hm := wal.NameHash(k), wal.NameHash(mate)
		plants := map[string]uint64{
			"free slot":       hint(hk, free),
			"other's slot":    hint(hk, slotOf(other)),
			"mate's hint":     hint(hm, slotOf(mate)),
			"mate's slot":     hint(hk, slotOf(mate)),
			"k's own, intact": hint(hk, slotOf(k)),
		}
		for what, w := range plants {
			s.hints.bucket(hk).Store(w)
			v := []byte("over " + what)
			if err := c.Put(k, v); err != nil {
				t.Fatal(err)
			}
			if got, ok := hinted(s.hints.bucket(hk).Load(), hk); !ok || got != slotOf(k) {
				t.Fatalf("%s: the hint names %d (%v) after the write, k is at %d", what, got, ok, slotOf(k))
			}
			for n, want := range map[string]string{k: string(v), other: "first " + other, mate: "first " + mate} {
				if got, err := c.Get(n, nil); err != nil || string(got) != want {
					t.Fatalf("%s: Get(%s) = %q, %v; want %q", what, n, got, err, want)
				}
			}
			if err := s.Check(); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		}
	})

	// Check rejects a hint a reader would take that is not the index's
	// answer — here the name copied into a free slot and its hint aimed there.
	t.Run("fsck", func(t *testing.T) {
		s := newStoreT(t, testConfig())
		defer s.CloseNoCheckpoint() //nolint:errcheck // the arena was corrupted on purpose
		c := s.Init()
		defer c.Finalize()
		if err := c.Put("k", []byte("v")); err != nil {
			t.Fatal(err)
		}
		if err := s.Check(); err != nil {
			t.Fatal(err)
		}
		free, err := s.slotPool.Get()
		if err != nil {
			t.Fatal(err)
		}
		if err := s.front.zone.Write(free, []byte("k"), 1, nil, nil); err != nil {
			t.Fatal(err)
		}
		hash := wal.NameHash("k")
		s.hints.bucket(hash).Store(hint(hash, free))
		if err := s.Check(); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "slot hint") {
			t.Fatalf("Check with a hint to a second slot named k: %v", err)
		}
	})
}

// hintMate returns a name other than name in name's hint bucket.
func hintMate(s *Store, name string) string {
	want := s.hints.bucket(wal.NameHash(name))
	for i := 0; ; i++ {
		if c := fmt.Sprintf("hmate%d", i); c != name && s.hints.bucket(wal.NameHash(c)) == want {
			return c
		}
	}
}
