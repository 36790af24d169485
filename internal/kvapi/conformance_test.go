package kvapi_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"dstore"
	"dstore/internal/kvapi"
)

// dstoreShapes is the table of DStore shapes the one KV adapter is exercised
// over: the bare per-shard engine and a ring of three.
var dstoreShapes = []struct {
	name   string
	format func(cfg dstore.Config) (dstore.API, error)
}{
	{"store", func(cfg dstore.Config) (dstore.API, error) { return dstore.Format(cfg) }},
	{"ring of 3", func(cfg dstore.Config) (dstore.API, error) { return dstore.FormatSharded(3, cfg) }},
}

// dstoreKVs builds a KV over every shape from one config.
func dstoreKVs(t *testing.T, cfg dstore.Config) []kvapi.Store {
	t.Helper()
	var out []kvapi.Store
	for _, shape := range dstoreShapes {
		api, err := shape.format(cfg)
		if err != nil {
			t.Fatalf("%s: %v", shape.name, err)
		}
		out = append(out, dstore.NewKV(api))
	}
	return out
}

// makeStores builds one instance of every evaluated system.
func makeStores(t *testing.T) []kvapi.Store {
	t.Helper()
	out := dstoreKVs(t, dstore.Config{Blocks: 2048, MaxObjects: 1024, LogBytes: 1 << 16})

	cow, err := dstore.Format(dstore.Config{Mode: dstore.ModeCoW, Blocks: 2048, MaxObjects: 1024, LogBytes: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, dstore.NewKV(cow))

	for _, b := range baselines {
		out = append(out, b.open(t, false, false))
	}
	return out
}

// TestConformanceModel runs the same randomized op stream against every
// system and a map model; all must agree.
func TestConformanceModel(t *testing.T) {
	for _, s := range makeStores(t) {
		s := s
		t.Run(s.Label(), func(t *testing.T) {
			defer s.Close()
			model := map[string][]byte{}
			rng := rand.New(rand.NewSource(7))
			for op := 0; op < 800; op++ {
				k := fmt.Sprintf("key-%02d", rng.Intn(40))
				switch rng.Intn(4) {
				case 0, 1:
					v := bytes.Repeat([]byte{byte(op)}, 1+rng.Intn(4000))
					if err := s.Put(k, v); err != nil {
						t.Fatalf("put: %v", err)
					}
					model[k] = v
				case 2:
					if err := s.Delete(k); err != nil && err != kvapi.ErrNotFound {
						t.Fatalf("delete: %v", err)
					}
					delete(model, k)
				case 3:
					got, err := s.Get(k, nil)
					want, had := model[k]
					if had {
						if err != nil {
							t.Fatalf("get(%q): %v", k, err)
						}
						// Page-granular systems may pad to the block size;
						// the value prefix must match exactly.
						if len(got) < len(want) || !bytes.Equal(got[:len(want)], want) {
							t.Fatalf("get(%q) prefix mismatch (%d vs %d bytes)", k, len(got), len(want))
						}
					} else if err != kvapi.ErrNotFound && err != dstore.ErrNotFound {
						t.Fatalf("get missing %q: %v", k, err)
					}
				}
			}
		})
	}
}

// TestFootprintReported ensures every system reports a sane footprint after
// a load (the Fig. 10 plumbing).
func TestFootprintReported(t *testing.T) {
	for _, s := range makeStores(t) {
		s := s
		t.Run(s.Label(), func(t *testing.T) {
			defer s.Close()
			for i := 0; i < 100; i++ {
				if err := s.Put(fmt.Sprintf("obj%03d", i), bytes.Repeat([]byte{1}, 4096)); err != nil {
					t.Fatal(err)
				}
			}
			fr, ok := s.(kvapi.FootprintReporter)
			if !ok {
				t.Fatalf("%s does not report footprint", s.Label())
			}
			dram, pm, ssdB := fr.FootprintBytes()
			if dram+pm+ssdB < 100*4096 {
				t.Fatalf("footprint %d/%d/%d smaller than the data", dram, pm, ssdB)
			}
		})
	}
}

// TestCrashRecoveryConformance: every Crasher recovers all committed data
// after a crash between operations, and every comparison system after a power
// cut inside one (crashSweep).
func TestCrashRecoveryConformance(t *testing.T) {
	mk := func() []kvapi.Store {
		out := dstoreKVs(t, dstore.Config{Blocks: 2048, MaxObjects: 1024, LogBytes: 1 << 16, TrackPersistence: true})
		for _, b := range baselines {
			out = append(out, b.open(t, false, true))
		}
		return out
	}
	for _, s := range mk() {
		s := s
		t.Run(s.Label(), func(t *testing.T) {
			want := map[string][]byte{}
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("k%03d", i%80)
				v := bytes.Repeat([]byte{byte(i)}, 2048)
				if err := s.Put(k, v); err != nil {
					t.Fatal(err)
				}
				want[k] = v
			}
			cr := s.(kvapi.Crasher)
			cr.Crash(11)
			metaNs, replayNs, err := cr.Recover()
			if err != nil {
				t.Fatal(err)
			}
			if metaNs < 0 || replayNs < 0 {
				t.Fatalf("negative phase times %d/%d", metaNs, replayNs)
			}
			for k, v := range want {
				got, err := s.Get(k, nil)
				if err != nil {
					t.Fatalf("get(%q) after recovery: %v", k, err)
				}
				if len(got) < len(v) || !bytes.Equal(got[:len(v)], v) {
					t.Fatalf("get(%q) after recovery: wrong data", k)
				}
			}
			s.Close()
		})
	}
	for _, b := range baselines {
		b := b
		t.Run(b.name+"/sweep", func(t *testing.T) { crashSweep(t, b.open, b.force, b.draws) })
	}
}

// TestTransactorConformance runs the same transaction script over every
// DStore shape: buffered writes are invisible until commit and atomic after
// it, an abort leaves no trace, and a commit whose read was overwritten in
// between fails with the harness's conflict sentinel.
func TestTransactorConformance(t *testing.T) {
	for _, s := range dstoreKVs(t, dstore.Config{Blocks: 2048, MaxObjects: 1024, LogBytes: 1 << 16}) {
		s := s
		t.Run(s.Label(), func(t *testing.T) {
			defer s.Close()
			keys := []string{"acct-a", "acct-b", "acct-c", "acct-d"}
			tx, err := s.(kvapi.Transactor).Begin()
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range keys {
				if err := tx.Put(k, []byte("v1")); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := s.Get(keys[0], nil); err != kvapi.ErrNotFound {
				t.Fatalf("buffered write visible before commit: %v", err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatalf("commit: %v", err)
			}
			for _, k := range keys {
				if got, err := s.Get(k, nil); err != nil || !bytes.Equal(got, []byte("v1")) {
					t.Fatalf("get(%q) after commit = %q, %v", k, got, err)
				}
			}

			aborted, _ := s.(kvapi.Transactor).Begin()
			if err := aborted.Delete(keys[0]); err != nil {
				t.Fatal(err)
			}
			if err := aborted.Abort(); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Get(keys[0], nil); err != nil {
				t.Fatalf("aborted delete took effect: %v", err)
			}

			stale, _ := s.(kvapi.Transactor).Begin()
			if _, err := stale.Get(keys[1], nil); err != nil {
				t.Fatal(err)
			}
			if err := s.Put(keys[1], []byte("v2")); err != nil {
				t.Fatal(err)
			}
			if err := stale.Put(keys[2], []byte("lost")); err != nil {
				t.Fatal(err)
			}
			if err := stale.Commit(); err != kvapi.ErrTxnConflict {
				t.Fatalf("commit over a stale read = %v, want ErrTxnConflict", err)
			}
			if got, _ := s.Get(keys[2], nil); !bytes.Equal(got, []byte("v1")) {
				t.Fatalf("conflicting transaction applied a write: %q", got)
			}
		})
	}
}
