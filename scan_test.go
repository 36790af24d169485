package dstore

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

func TestScanPrefix(t *testing.T) {
	s := newStoreT(t, testConfig())
	defer s.Close()
	ctx := s.Init()
	names := []string{
		"dir/a", "dir/b", "dir/sub/c", "other/x", "zzz",
	}
	for i, n := range names {
		if err := ctx.Put(n, val(byte(i), 100*(i+1))); err != nil {
			t.Fatal(err)
		}
	}

	var got []string
	err := ctx.Scan("dir/", func(info ObjectInfo) bool {
		got = append(got, info.Name)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"dir/a", "dir/b", "dir/sub/c"}
	if len(got) != len(want) {
		t.Fatalf("scan = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("scan order: %v", got)
		}
	}
}

func TestScanEmptyPrefixOrdersEverything(t *testing.T) {
	s := newStoreT(t, testConfig())
	defer s.Close()
	ctx := s.Init()
	var names []string
	for i := 0; i < 120; i++ {
		n := fmt.Sprintf("obj-%03d", (i*53)%120)
		ctx.Put(n, val('x', 64))
		names = append(names, n)
	}
	sort.Strings(names)
	var got []string
	ctx.Scan("", func(info ObjectInfo) bool {
		got = append(got, info.Name)
		return true
	})
	if len(got) != 120 {
		t.Fatalf("scanned %d objects", len(got))
	}
	for i := range names {
		if got[i] != names[i] {
			t.Fatalf("order mismatch at %d: %s vs %s", i, got[i], names[i])
		}
	}
	if s.Count() != 120 {
		t.Fatalf("count = %d", s.Count())
	}
}

func TestScanEarlyStop(t *testing.T) {
	s := newStoreT(t, testConfig())
	defer s.Close()
	ctx := s.Init()
	for i := 0; i < 20; i++ {
		ctx.Put(fmt.Sprintf("k%02d", i), val('x', 10))
	}
	n := 0
	if err := ctx.Scan("", func(ObjectInfo) bool {
		n++
		return n < 5
	}); err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("visited %d, want 5", n)
	}
}

func TestScanReportsSizes(t *testing.T) {
	s := newStoreT(t, testConfig())
	defer s.Close()
	ctx := s.Init()
	ctx.Put("a", val('x', 5000))
	var infos []ObjectInfo
	ctx.Scan("a", func(i ObjectInfo) bool {
		infos = append(infos, i)
		return true
	})
	if len(infos) != 1 || infos[0].Size != 5000 || infos[0].Blocks != 2 {
		t.Fatalf("infos = %+v", infos)
	}
}

func TestScanAfterDeletes(t *testing.T) {
	s := newStoreT(t, testConfig())
	defer s.Close()
	ctx := s.Init()
	for i := 0; i < 50; i++ {
		ctx.Put(fmt.Sprintf("k%02d", i), val('x', 10))
	}
	for i := 0; i < 50; i += 2 {
		ctx.Delete(fmt.Sprintf("k%02d", i))
	}
	var got []string
	ctx.Scan("", func(i ObjectInfo) bool {
		got = append(got, i.Name)
		return true
	})
	if len(got) != 25 {
		t.Fatalf("scan after deletes = %d entries", len(got))
	}
	for i, n := range got {
		if n != fmt.Sprintf("k%02d", 2*i+1) {
			t.Fatalf("unexpected survivor %s at %d", n, i)
		}
	}
}

func TestScanSurvivesRecovery(t *testing.T) {
	cfg := testConfig()
	s := newStoreT(t, cfg)
	ctx := s.Init()
	for i := 0; i < 40; i++ {
		ctx.Put(fmt.Sprintf("ns/%02d", i), val(byte(i), 128))
	}
	s2 := reopen(t, s, cfg, 3, true)
	defer s2.Close()
	n := 0
	s2.Init().Scan("ns/", func(ObjectInfo) bool {
		n++
		return true
	})
	if n != 40 {
		t.Fatalf("recovered scan = %d", n)
	}
}

// scanShapes formats the two store shapes Scan serves: a bare store and a
// 2-shard ring.
func scanShapes(t *testing.T) []API {
	t.Helper()
	s, err := Format(shardTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	sh, err := FormatSharded(2, shardTestConfig())
	if err != nil {
		s.Close()
		t.Fatal(err)
	}
	return []API{s, sh}
}

// A Scan callback may write to the store it scans: the index lock is held
// only while a chunk is read, never across the callback. Holding it across
// the callback deadlocked the first Delete (bare store) or the first Delete
// past a shard's buffered results (ring).
func TestScanCallbackMayWrite(t *testing.T) {
	const keys = 200
	for _, api := range scanShapes(t) {
		c := api.NewContext()
		for i := 0; i < keys; i++ {
			if err := c.Put(fmt.Sprintf("a/%03d", i), val(byte(i), 64)); err != nil {
				t.Fatal(err)
			}
		}
		var visited []string
		done := make(chan error, 1)
		go func() {
			done <- c.Scan("a/", func(info ObjectInfo) bool {
				visited = append(visited, info.Name)
				return c.Delete(info.Name) == nil && c.Put("b/"+info.Name[2:], val('b', 64)) == nil
			})
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%T: %v", api, err)
			}
		case <-time.After(3 * time.Second):
			t.Fatalf("%T: a Scan whose callback writes did not finish in 3 s", api)
		}
		if len(visited) != keys {
			t.Fatalf("%T: visited %d keys, want %d", api, len(visited), keys)
		}
		for i, name := range visited {
			if want := fmt.Sprintf("a/%03d", i); name != want {
				t.Fatalf("%T: visit %d is %q, want %q", api, i, name, want)
			}
		}
		if n := api.Count(); n != keys {
			t.Fatalf("%T: Count = %d after the scan, want %d", api, n, keys)
		}
		c.Finalize()
		if err := api.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// A fixed key set no writer touches comes back exactly once and in strictly
// ascending order from every Scan, while writers create and delete keys that
// sort between the fixed ones — so the cursor resumes across chunk
// boundaries whose neighbours keep changing.
func TestScanChunksUnderConcurrentWrites(t *testing.T) {
	const fixed, writers, scans = 300, 2, 20
	for _, api := range scanShapes(t) {
		c := api.NewContext()
		for i := 0; i < fixed; i++ {
			if err := c.Put(fmt.Sprintf("k/%04d", i), val(byte(i), 32)); err != nil {
				t.Fatal(err)
			}
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				wc := api.NewContext()
				defer wc.Finalize()
				rng := rand.New(rand.NewSource(int64(w)))
				for {
					select {
					case <-stop:
						return
					default:
					}
					name := fmt.Sprintf("k/%04d.%d", rng.Intn(fixed), w)
					if rng.Intn(2) == 0 {
						wc.Put(name, val('w', 32)) //nolint:errcheck // churn only
					} else {
						wc.Delete(name) //nolint:errcheck // churn only
					}
				}
			}(w)
		}
		for r := 0; r < scans; r++ {
			var last string
			seen := 0
			err := c.Scan("k/", func(info ObjectInfo) bool {
				if info.Name <= last {
					t.Errorf("%T: scan %d: %q after %q", api, r, info.Name, last)
				}
				if len(info.Name) == len("k/0000") {
					seen++
				}
				last = info.Name
				return true
			})
			if err != nil || seen != fixed {
				t.Errorf("%T: scan %d saw %d fixed keys (want %d): %v", api, r, seen, fixed, err)
			}
		}
		close(stop)
		wg.Wait()
		c.Finalize()
		if err := api.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// Reserved ('\x00'-prefixed) objects — transaction bookkeeping, the ring —
// never show to a public Scan, not even to a reserved prefix, on either
// shape or over the wire backend; only reservedNames lists them.
func TestScanHidesReservedNames(t *testing.T) {
	const name = txnPrepPrefix + "scan"
	for _, api := range scanShapes(t) {
		for _, s := range members(api) {
			if err := s.putReserved(name, val('r', 32)); err != nil {
				t.Fatal(err)
			}
			if names, err := s.reservedNames(txnPrepPrefix); err != nil || len(names) != 1 {
				t.Fatalf("%T: reservedNames = %v, %v; want [%q]", api, names, err, name)
			}
		}
		c := api.NewContext()
		for _, prefix := range []string{"", "\x00", txnPrepPrefix, name} {
			err := c.Scan(prefix, func(info ObjectInfo) bool {
				t.Errorf("%T: Scan(%q) showed %q", api, prefix, info.Name)
				return true
			})
			if err != nil {
				t.Fatalf("%T: Scan(%q): %v", api, prefix, err)
			}
			if objs, err := api.NetBackend().Scan(prefix, 10); err != nil || len(objs) != 0 {
				t.Errorf("%T: wire SCAN %q = %v, %v; want none", api, prefix, objs, err)
			}
		}
		c.Finalize()
		if err := api.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestScanAllocatesOnlyNames: a Scan reads every entry into one buffer its
// chunk reuses, so beyond the per-chunk bookkeeping the one allocation a key
// costs is its name string (about 3 a key when each entry's block and sum
// lists were copied out fresh).
func TestScanAllocatesOnlyNames(t *testing.T) {
	const keys = 1000
	cfg := testConfig()
	cfg.MaxObjects = 2 * keys
	s := newStoreT(t, cfg)
	defer s.Close()
	ctx := s.Init()
	for i := 0; i < keys; i++ {
		if err := ctx.Put(fmt.Sprintf("scan/%04d", i), val(byte(i), 10)); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	perKey := testing.AllocsPerRun(5, func() {
		n = 0
		if err := ctx.Scan("scan/", func(ObjectInfo) bool { n++; return true }); err != nil {
			t.Fatal(err)
		}
	}) / keys
	t.Logf("%.2f allocations a key", perKey)
	if n != keys {
		t.Fatalf("Scan of %d keys saw %d", keys, n)
	}
	if raceEnabled {
		return // the race build allocates where a plain build does not
	}
	if perKey > 1.5 {
		t.Fatalf("Scan of %d keys made %.2f allocations a key, want at most 1.5", keys, perKey)
	}
}
