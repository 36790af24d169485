package dstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func testConfig() Config {
	return Config{
		Blocks:           1024,
		MaxObjects:       512,
		LogBytes:         1 << 16,
		TrackPersistence: true,
	}
}

func newStoreT(t *testing.T, cfg Config) *Store {
	t.Helper()
	s, err := Format(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func val(pattern byte, n int) []byte {
	return bytes.Repeat([]byte{pattern}, n)
}

func TestPutGetDelete(t *testing.T) {
	s := newStoreT(t, testConfig())
	defer s.Close()
	ctx := s.Init()
	defer ctx.Finalize()

	if err := ctx.Put("hello", []byte("world")); err != nil {
		t.Fatal(err)
	}
	got, err := ctx.Get("hello", nil)
	if err != nil || string(got) != "world" {
		t.Fatalf("get = %q, %v", got, err)
	}
	if err := ctx.Delete("hello"); err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.Get("hello", nil); err != ErrNotFound {
		t.Fatalf("get after delete: %v", err)
	}
	if err := ctx.Delete("hello"); err != ErrNotFound {
		t.Fatalf("double delete: %v", err)
	}
}

func TestPutOverwriteSameSize(t *testing.T) {
	s := newStoreT(t, testConfig())
	defer s.Close()
	ctx := s.Init()
	ctx.Put("k", val('a', 4096))
	ctx.Put("k", val('b', 4096))
	got, err := ctx.Get("k", nil)
	if err != nil || !bytes.Equal(got, val('b', 4096)) {
		t.Fatalf("overwrite lost: %v", err)
	}
}

func TestPutOverwriteDifferentSize(t *testing.T) {
	s := newStoreT(t, testConfig())
	defer s.Close()
	ctx := s.Init()
	ctx.Put("k", val('a', 4096))
	before := s.Footprint()
	ctx.Put("k", val('b', 12000)) // 1 block -> 3 blocks
	got, err := ctx.Get("k", nil)
	if err != nil || !bytes.Equal(got, val('b', 12000)) {
		t.Fatalf("resize lost data: %v", err)
	}
	ctx.Put("k", val('c', 100)) // back to 1 block
	got, _ = ctx.Get("k", nil)
	if !bytes.Equal(got, val('c', 100)) {
		t.Fatalf("shrink lost data: %q", got)
	}
	after := s.Footprint()
	if after.SSDBytes != before.SSDBytes {
		t.Fatalf("blocks leaked: %d -> %d", before.SSDBytes, after.SSDBytes)
	}
}

func TestGetAppendsToBuffer(t *testing.T) {
	s := newStoreT(t, testConfig())
	defer s.Close()
	ctx := s.Init()
	ctx.Put("k", []byte("tail"))
	got, err := ctx.Get("k", []byte("head-"))
	if err != nil || string(got) != "head-tail" {
		t.Fatalf("got %q, %v", got, err)
	}
}

func TestValidation(t *testing.T) {
	s := newStoreT(t, testConfig())
	defer s.Close()
	ctx := s.Init()
	if err := ctx.Put("", []byte("x")); err == nil {
		t.Fatal("empty name accepted")
	}
	long := string(val('n', 65))
	if err := ctx.Put(long, []byte("x")); err == nil {
		t.Fatal("long name accepted")
	}
	huge := val('x', int(s.cfg.MaxBlocksPerObject*s.cfg.BlockSize)+1)
	if err := ctx.Put("k", huge); err == nil {
		t.Fatal("oversize value accepted")
	}
}

func TestEmptyValue(t *testing.T) {
	s := newStoreT(t, testConfig())
	defer s.Close()
	ctx := s.Init()
	if err := ctx.Put("empty", nil); err != nil {
		t.Fatal(err)
	}
	got, err := ctx.Get("empty", nil)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty object: %q, %v", got, err)
	}
}

func TestManyObjects(t *testing.T) {
	s := newStoreT(t, testConfig())
	defer s.Close()
	ctx := s.Init()
	for i := 0; i < 300; i++ {
		if err := ctx.Put(fmt.Sprintf("obj-%03d", i), val(byte(i), 100+i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 300; i++ {
		got, err := ctx.Get(fmt.Sprintf("obj-%03d", i), nil)
		if err != nil || !bytes.Equal(got, val(byte(i), 100+i)) {
			t.Fatalf("obj %d: %v", i, err)
		}
	}
}

func TestBlockExhaustion(t *testing.T) {
	cfg := testConfig()
	cfg.Blocks = 8
	s := newStoreT(t, cfg)
	defer s.Close()
	ctx := s.Init()
	var err error
	for i := 0; i < 20 && err == nil; i++ {
		err = ctx.Put(fmt.Sprintf("k%d", i), val('x', 4096))
	}
	if err == nil {
		t.Fatal("block pool never exhausted")
	}
	// The store must remain usable: delete frees blocks.
	if derr := ctx.Delete("k0"); derr != nil {
		t.Fatal(derr)
	}
	if perr := ctx.Put("fresh", val('y', 4096)); perr != nil {
		t.Fatalf("put after free: %v", perr)
	}
}

func TestObjectAPI(t *testing.T) {
	s := newStoreT(t, testConfig())
	defer s.Close()
	ctx := s.Init()

	o, err := ctx.Open("file", 8192, OpenCreate|OpenWrite|OpenRead)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	if sz, _ := o.Size(); sz != 8192 {
		t.Fatalf("size = %d", sz)
	}
	if _, err := o.WriteAt(val('a', 4096), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := o.WriteAt(val('b', 1000), 4096); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1000)
	if n, err := o.ReadAt(buf, 4096); err != nil || n != 1000 {
		t.Fatalf("read: %d, %v", n, err)
	}
	if !bytes.Equal(buf, val('b', 1000)) {
		t.Fatal("read wrong data")
	}
	// Cross-block read.
	buf2 := make([]byte, 200)
	if _, err := o.ReadAt(buf2, 4000); err != nil {
		t.Fatal(err)
	}
	want := append(val('a', 96), val('b', 104)...)
	if !bytes.Equal(buf2, want) {
		t.Fatal("cross-block read wrong")
	}
}

func TestObjectExtend(t *testing.T) {
	s := newStoreT(t, testConfig())
	defer s.Close()
	ctx := s.Init()
	o, err := ctx.Open("grow", 100, OpenCreate|OpenWrite|OpenRead)
	if err != nil {
		t.Fatal(err)
	}
	// Write past the end: extends across block boundaries.
	if _, err := o.WriteAt(val('z', 5000), 3000); err != nil {
		t.Fatal(err)
	}
	if sz, _ := o.Size(); sz != 8000 {
		t.Fatalf("size after extend = %d", sz)
	}
	buf := make([]byte, 5000)
	if _, err := o.ReadAt(buf, 3000); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, val('z', 5000)) {
		t.Fatal("extended data wrong")
	}
}

func TestOpenSemantics(t *testing.T) {
	s := newStoreT(t, testConfig())
	defer s.Close()
	ctx := s.Init()
	if _, err := ctx.Open("missing", 0, OpenRead); err != ErrNotFound {
		t.Fatalf("open missing: %v", err)
	}
	if _, err := ctx.Open("x", 10, 0); err == nil {
		t.Fatal("flagless open accepted")
	}
	o, err := ctx.Open("x", 10, OpenCreate)
	if err != nil {
		t.Fatal(err)
	}
	o.Close()
	if _, err := o.ReadAt(make([]byte, 1), 0); err != ErrClosed {
		t.Fatalf("read on closed object: %v", err)
	}
	// Reopen without create: must exist now.
	if _, err := ctx.Open("x", 0, OpenRead); err != nil {
		t.Fatal(err)
	}
	// Write permission enforced.
	ro, _ := ctx.Open("x", 0, OpenRead)
	if _, err := ro.WriteAt([]byte("n"), 0); err == nil {
		t.Fatal("write on read-only handle accepted")
	}
}

func TestLockUnlock(t *testing.T) {
	s := newStoreT(t, testConfig())
	defer s.Close()
	ctx := s.Init()
	if err := ctx.Lock("dir"); err != nil {
		t.Fatal(err)
	}
	// A write on the locked name must block until unlock.
	done := make(chan error, 1)
	go func() {
		c2 := s.Init()
		done <- c2.Put("dir", []byte("v"))
	}()
	select {
	case err := <-done:
		t.Fatalf("write completed under lock: %v", err)
	default:
	}
	if err := ctx.Unlock("dir"); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := ctx.Unlock("dir"); err == nil {
		t.Fatal("double unlock accepted")
	}
}

func TestConcurrentDistinctKeys(t *testing.T) {
	s := newStoreT(t, testConfig())
	defer s.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := s.Init()
			defer ctx.Finalize()
			for i := 0; i < 40; i++ {
				k := fmt.Sprintf("g%d-k%d", g, i%8)
				if err := ctx.Put(k, val(byte(g), 512+i)); err != nil {
					t.Errorf("put: %v", err)
					return
				}
				got, err := ctx.Get(k, nil)
				if err != nil || got[0] != byte(g) {
					t.Errorf("get: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestConcurrentSameKeyMixed(t *testing.T) {
	s := newStoreT(t, testConfig())
	defer s.Close()
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := s.Init()
			defer ctx.Finalize()
			for i := 0; i < 60; i++ {
				switch (g + i) % 3 {
				case 0:
					if err := ctx.Put("hot", val(byte(g), 1024)); err != nil {
						t.Errorf("put: %v", err)
						return
					}
				case 1:
					got, err := ctx.Get("hot", nil)
					if err != nil && err != ErrNotFound {
						t.Errorf("get: %v", err)
						return
					}
					// Reads must never observe a torn value: all bytes equal.
					if err == nil && len(got) > 0 {
						for _, b := range got {
							if b != got[0] {
								t.Errorf("torn read: %v vs %v", b, got[0])
								return
							}
						}
					}
				case 2:
					if err := ctx.Delete("hot"); err != nil && err != ErrNotFound {
						t.Errorf("delete: %v", err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	// With several writers per key the only checkable property is "not torn";
	// with one writer per key "not stale" is checkable too (readers_test.go).
	ackedVersions(t)
}

func TestCheckpointUnderLoad(t *testing.T) {
	cfg := testConfig()
	cfg.LogBytes = 1 << 14 // small log: many checkpoints
	s := newStoreT(t, cfg)
	defer s.Close()
	ctx := s.Init()
	for i := 0; i < 1500; i++ {
		if err := ctx.Put(fmt.Sprintf("k%03d", i%100), val(byte(i), 256)); err != nil {
			t.Fatal(err)
		}
	}
	if s.Stats().Engine.Checkpoints == 0 {
		t.Fatal("no checkpoints despite log pressure")
	}
	for i := 1400; i < 1500; i++ {
		got, err := ctx.Get(fmt.Sprintf("k%03d", i%100), nil)
		if err != nil || !bytes.Equal(got, val(byte(i), 256)) {
			t.Fatalf("k%03d after checkpoints: %v", i%100, err)
		}
	}
}

func reopen(t *testing.T, s *Store, cfg Config, seed int64, crash bool) *Store {
	t.Helper()
	var err error
	if crash {
		if cfg.PMEM, cfg.SSD, err = s.Crash(seed); err != nil {
			t.Fatal(err)
		}
	} else {
		if err = s.Close(); err != nil {
			t.Fatal(err)
		}
		cfg.PMEM, cfg.SSD = s.Devices()
	}
	s2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s2
}

func TestCleanShutdownRecovery(t *testing.T) {
	cfg := testConfig()
	s := newStoreT(t, cfg)
	ctx := s.Init()
	want := map[string][]byte{}
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("k%03d", i)
		v := val(byte(i), 100+i*13)
		ctx.Put(k, v)
		want[k] = v
	}
	ctx.Delete("k050")
	delete(want, "k050")

	s2 := reopen(t, s, cfg, 0, false)
	defer s2.Close()
	ctx2 := s2.Init()
	for k, v := range want {
		got, err := ctx2.Get(k, nil)
		if err != nil || !bytes.Equal(got, v) {
			t.Fatalf("recovered %s: %v", k, err)
		}
	}
	if _, err := ctx2.Get("k050", nil); err != ErrNotFound {
		t.Fatalf("deleted key resurrected: %v", err)
	}
	// The store must accept new writes after recovery.
	if err := ctx2.Put("new", []byte("post-recovery")); err != nil {
		t.Fatal(err)
	}
}

func TestCrashRecovery(t *testing.T) {
	cfg := testConfig()
	s := newStoreT(t, cfg)
	ctx := s.Init()
	want := map[string][]byte{}
	for i := 0; i < 150; i++ {
		k := fmt.Sprintf("k%03d", i%60)
		v := val(byte(i), 64+i*7)
		if err := ctx.Put(k, v); err != nil {
			t.Fatal(err)
		}
		want[k] = v
	}
	if err := s.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		k := fmt.Sprintf("post%02d", i)
		v := val(byte(i), 2048)
		ctx.Put(k, v)
		want[k] = v
	}

	s2 := reopen(t, s, cfg, 42, true)
	defer s2.Close()
	ctx2 := s2.Init()
	for k, v := range want {
		got, err := ctx2.Get(k, nil)
		if err != nil || !bytes.Equal(got, v) {
			t.Fatalf("after crash, %s: err=%v", k, err)
		}
	}
}

func TestCrashRecoveryAllModes(t *testing.T) {
	for _, mode := range []Mode{ModeDIPPER, ModeCoW, ModePhysical} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := testConfig()
			cfg.Mode = mode
			s := newStoreT(t, cfg)
			ctx := s.Init()
			want := map[string][]byte{}
			for i := 0; i < 120; i++ {
				k := fmt.Sprintf("k%02d", i%40)
				v := val(byte(i), 512)
				if err := ctx.Put(k, v); err != nil {
					t.Fatal(err)
				}
				want[k] = v
				if i == 60 {
					if err := s.CheckpointNow(); err != nil {
						t.Fatal(err)
					}
				}
			}
			s2 := reopen(t, s, cfg, int64(mode)+7, true)
			defer s2.Close()
			ctx2 := s2.Init()
			for k, v := range want {
				got, err := ctx2.Get(k, nil)
				if err != nil || !bytes.Equal(got, v) {
					t.Fatalf("mode %v: recovered %s: %v", mode, k, err)
				}
			}
		})
	}
}

func TestDisableOEStillCorrect(t *testing.T) {
	cfg := testConfig()
	cfg.DisableOE = true
	s := newStoreT(t, cfg)
	defer s.Close()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := s.Init()
			for i := 0; i < 50; i++ {
				k := fmt.Sprintf("g%dk%d", g, i%5)
				if err := ctx.Put(k, val(byte(g), 256)); err != nil {
					t.Errorf("put: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	ctx := s.Init()
	got, err := ctx.Get("g0k0", nil)
	if err != nil || got[0] != 0 {
		t.Fatalf("get: %v", err)
	}
}

func TestFootprintGrowsAndShrinks(t *testing.T) {
	s := newStoreT(t, testConfig())
	defer s.Close()
	ctx := s.Init()
	base := s.Footprint()
	for i := 0; i < 50; i++ {
		ctx.Put(fmt.Sprintf("k%02d", i), val('x', 4096))
	}
	grown := s.Footprint()
	if grown.SSDBytes <= base.SSDBytes {
		t.Fatal("SSD footprint did not grow")
	}
	if grown.DRAMBytes < base.DRAMBytes {
		t.Fatal("DRAM footprint shrank unexpectedly")
	}
	for i := 0; i < 50; i++ {
		ctx.Delete(fmt.Sprintf("k%02d", i))
	}
	final := s.Footprint()
	if final.SSDBytes != base.SSDBytes {
		t.Fatalf("SSD blocks leaked: %d -> %d", base.SSDBytes, final.SSDBytes)
	}
}

func TestBreakdownCollected(t *testing.T) {
	cfg := testConfig()
	cfg.Breakdown = true
	s := newStoreT(t, cfg)
	defer s.Close()
	ctx := s.Init()
	for i := 0; i < 10; i++ {
		ctx.Put(fmt.Sprintf("k%d", i), val('x', 4096))
	}
	bd := s.Breakdown()
	if bd.Count != 10 || bd.TotalNs == 0 {
		t.Fatalf("breakdown = %+v", bd)
	}
	sum := bd.LogNs + bd.PoolNs + bd.MetaNs + bd.TreeNs + bd.SSDNs
	if sum > bd.TotalNs {
		t.Fatalf("stage sum %d exceeds total %d", sum, bd.TotalNs)
	}
}

func TestClosedStoreRejectsOps(t *testing.T) {
	s := newStoreT(t, testConfig())
	ctx := s.Init()
	s.Close()
	if err := ctx.Put("k", []byte("v")); err != ErrClosed {
		t.Fatalf("put after close: %v", err)
	}
	if _, err := ctx.Get("k", nil); err != ErrClosed {
		t.Fatalf("get after close: %v", err)
	}
	if s.Close() != nil {
		t.Fatal("second close errored")
	}
}

// Property: any op sequence followed by a random crash recovers to exactly
// the committed state, in every mode.
func TestQuickCrashRecoveryModel(t *testing.T) {
	f := func(ops []uint16, seed int64) bool {
		cfg := testConfig()
		cfg.LogBytes = 1 << 14
		cfg.Mode = Mode(int(seed&3) % 3)
		s, err := Format(cfg)
		if err != nil {
			return false
		}
		ctx := s.Init()
		model := map[string]byte{}
		rng := rand.New(rand.NewSource(seed))
		for _, op := range ops {
			k := fmt.Sprintf("k%02d", op%17)
			switch op % 4 {
			case 0, 1:
				b := byte(rng.Intn(256))
				n := 1 + rng.Intn(6000)
				if err := ctx.Put(k, val(b, n)); err != nil {
					return false
				}
				model[k] = b
			case 2:
				err := ctx.Delete(k)
				_, had := model[k]
				if had && err != nil {
					return false
				}
				if !had && err != ErrNotFound {
					return false
				}
				delete(model, k)
			case 3:
				got, err := ctx.Get(k, nil)
				if b, had := model[k]; had {
					if err != nil || (len(got) > 0 && got[0] != b) {
						return false
					}
				} else if err != ErrNotFound {
					return false
				}
			}
		}
		var cerr error
		cfg.PMEM, cfg.SSD, cerr = s.Crash(seed)
		if cerr != nil {
			return false
		}
		s2, err := Open(cfg)
		if err != nil {
			return false
		}
		defer s2.Close()
		ctx2 := s2.Init()
		for k, b := range model {
			got, err := ctx2.Get(k, nil)
			if err != nil {
				return false
			}
			for _, g := range got {
				if g != b {
					return false
				}
			}
		}
		// No phantom keys.
		for i := 0; i < 17; i++ {
			k := fmt.Sprintf("k%02d", i)
			if _, had := model[k]; !had {
				if _, err := ctx2.Get(k, nil); err != ErrNotFound {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: observational equivalence across recovery — two stores fed the
// same committed operations, one crash-recovered and one not, answer all
// reads identically.
func TestQuickRecoveredStoreObservationallyEquivalent(t *testing.T) {
	f := func(ops []uint16, seed int64) bool {
		cfg := testConfig()
		a, err := Format(cfg)
		if err != nil {
			return false
		}
		cfgB := testConfig()
		b, err := Format(cfgB)
		if err != nil {
			return false
		}
		defer b.Close()
		ca, cb := a.Init(), b.Init()
		for i, op := range ops {
			k := fmt.Sprintf("k%02d", op%13)
			if op%3 == 0 {
				ca.Delete(k)
				cb.Delete(k)
			} else {
				v := val(byte(op), 1+int(op)%3000)
				if ca.Put(k, v) != nil || cb.Put(k, v) != nil {
					return false
				}
			}
			if i == len(ops)/2 {
				if a.CheckpointNow() != nil {
					return false
				}
			}
		}
		var cerr error
		cfg.PMEM, cfg.SSD, cerr = a.Crash(seed)
		if cerr != nil {
			return false
		}
		a2, err := Open(cfg)
		if err != nil {
			return false
		}
		defer a2.Close()
		ca2 := a2.Init()
		for i := 0; i < 13; i++ {
			k := fmt.Sprintf("k%02d", i)
			ga, ea := ca2.Get(k, nil)
			gb, eb := cb.Get(k, nil)
			if (ea == nil) != (eb == nil) {
				return false
			}
			if ea == nil && !bytes.Equal(ga, gb) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Get appends to the caller's buffer. A nil buffer — what every networked GET
// and MGET sub-read passes — gets exactly the value's size, not double it;
// a buffer being appended to still doubles, and one with room allocates
// nothing.
func TestGetBufferGrowth(t *testing.T) {
	if got := grow(nil, 4096); len(got) != 4096 || cap(got) != 4096 {
		t.Fatalf("grow(nil, 4096): len %d cap %d, want 4096 and 4096", len(got), cap(got))
	}
	if got := grow(make([]byte, 0, 64), 4096); cap(got) != 4096 {
		t.Fatalf("grow(empty, 4096): cap %d, want 4096", cap(got))
	}
	if got := grow(make([]byte, 100), 4096); len(got) != 4196 || cap(got) != 2*4196 {
		t.Fatalf("grow(100 bytes, 4096): len %d cap %d, want 4196 and doubled", len(got), cap(got))
	}

	s, err := Format(Config{Blocks: 256, MaxObjects: 64, CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := s.Init()
	defer ctx.Finalize()
	if err := ctx.Put("k", make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	got, err := ctx.Get("k", nil)
	if err != nil || len(got) != 4096 || cap(got) != 4096 {
		t.Fatalf("Get(k, nil): len %d cap %d err %v, want exactly the value's 4096", len(got), cap(got), err)
	}
	// Once the buffer is the caller's a read allocates nothing: the CC tables
	// are fixed arrays and the zone entry's lists are read into the stack.
	reused := testing.AllocsPerRun(100, func() { got, _ = ctx.Get("k", got[:0]) })
	fresh := testing.AllocsPerRun(100, func() { got, _ = ctx.Get("k", nil) })
	if reused != 0 || fresh != 1 {
		t.Fatalf("Get: %v allocs into a recycled buffer and %v into nil, want 0 and 1", reused, fresh)
	}
	o, err := ctx.Open("k", 0, OpenRead)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	p := make([]byte, 4096)
	for _, off := range []int64{0, 100} { // a whole span, and one staged through the context's scratch
		if n := testing.AllocsPerRun(100, func() { o.ReadAt(p, off) }); n != 0 {
			t.Fatalf("ReadAt(%d): %v allocs, want 0", off, n)
		}
	}
	tx, err := ctx.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Abort()
	if got, err = tx.Get("k", got[:0]); err != nil { // the first read of a key enters the read set
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { got, _ = tx.Get("k", got[:0]) }); n != 0 {
		t.Fatalf("transactional Get: %v allocs, want 0", n)
	}
}
