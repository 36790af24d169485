package dstore

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"dstore/internal/devmem"
)

// settleImages waits until every device image that was unreachable when it
// was called has been released, and returns the bytes of live images.
// Finalizers run on one goroutine, which takes the whole queue at once, runs
// it newest first, and finishes it before it takes the next. So a sentinel
// queued by a collection after an earlier sentinel ran is reached only once
// every finalizer queued with or before that earlier one has run: the third
// sentinel follows every release the first collection queued.
func settleImages() int64 {
	for i := 0; i < 3; i++ {
		done := make(chan struct{})
		runtime.SetFinalizer(&sentinel{}, func(*sentinel) { close(done) })
		runtime.GC()
		<-done
	}
	live, _ := devmem.Mapped()
	return live
}

// sentinel holds a pointer, so it is not a tiny allocation, whose finalizer
// would wait for the objects sharing its block.
type sentinel struct{ _ *byte }

// TestResultsOutliveTheirStore pins the image lifetime contract: device
// images live outside the Go heap, so a result that aliased one would read
// unmapped or recycled memory once its store is gone. The results of Scan,
// Get and Object.ReadAt are kept, the store and its devices are dropped and
// released, a second store takes over the recycled images and overwrites
// them, and the kept results must still read back intact.
func TestResultsOutliveTheirStore(t *testing.T) {
	cfg := testConfig()
	value := func(i int) []byte { return bytes.Repeat([]byte{byte('a' + i%26)}, 3000+i) }
	const n = 40
	var names []string
	var gets, reads [][]byte
	live := settleImages()
	func() {
		s := newStoreT(t, cfg)
		defer s.Close()
		ctx := s.Init()
		defer ctx.Finalize()
		for i := 0; i < n; i++ {
			if err := ctx.Put(fmt.Sprintf("obj/%02d", i), value(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := ctx.Scan("obj/", func(info ObjectInfo) bool { names = append(names, info.Name); return true }); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			got, err := ctx.Get(fmt.Sprintf("obj/%02d", i), nil)
			if err != nil {
				t.Fatal(err)
			}
			gets = append(gets, got)
			o, err := ctx.Open(fmt.Sprintf("obj/%02d", i), 0, OpenRead)
			if err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, len(value(i)))
			if _, err := o.ReadAt(buf, 0); err != nil {
				t.Fatal(err)
			}
			reads = append(reads, buf)
			o.Close()
		}
	}()
	runtime.GC()
	runtime.GC()
	if now := settleImages(); now > live {
		t.Fatalf("%d B of device images still live after the store was dropped", now-live)
	}

	// Off the heap, the images went back to the spare list; the next store
	// of the same geometry clears and rewrites them.
	s := newStoreT(t, cfg)
	ctx := s.Init()
	for i := 0; i < n; i++ {
		if err := ctx.Put(fmt.Sprintf("obj/%02d", i), bytes.Repeat([]byte{'#'}, 3000+i)); err != nil {
			t.Fatal(err)
		}
	}
	ctx.Finalize()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	if len(names) != n {
		t.Fatalf("scan kept %d names, want %d", len(names), n)
	}
	for i := 0; i < n; i++ {
		if names[i] != fmt.Sprintf("obj/%02d", i) || !bytes.Equal(gets[i], value(i)) || !bytes.Equal(reads[i], value(i)) {
			t.Fatalf("object %d: a kept result changed after its store was dropped (name %q)", i, names[i])
		}
	}
}

// TestMemoryLedger checks Store.Memory against what the runtime sees: its
// heap owners account for the heap a formatted and loaded store adds, and
// its image bytes are the images the store mapped. Where the images are heap
// slices (devmem.OffHeap false), they count among the heap owners.
func TestMemoryLedger(t *testing.T) {
	cfg := Config{Blocks: 8192, MaxObjects: 4096, LogBytes: 1 << 20, CacheBytes: 8 << 20}
	val := bytes.Repeat([]byte{'v'}, 4096)

	live0 := settleImages()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := newStoreT(t, cfg)
	defer s.Close()
	ctx := s.Init()
	for i := 0; i < 4000; i++ {
		if err := ctx.Put(fmt.Sprintf("key%05d", i), val); err != nil {
			t.Fatal(err)
		}
	}
	ctx.Finalize()
	runtime.GC()
	runtime.ReadMemStats(&after)
	live1, _ := devmem.Mapped()
	m := s.Memory()

	owners := m.ArenaReserved + m.Pools + m.Cache + m.SlotHints + m.CC + m.WALPending
	if !devmem.OffHeap {
		owners += m.Images
	}
	growth := after.HeapAlloc - before.HeapAlloc
	t.Logf("ledger %+v: heap owners %d B, HeapAlloc grew %d B", m, owners, growth)
	if diff := int64(owners) - int64(growth); diff > int64(growth)/10 || -diff > int64(growth)/10 {
		t.Fatalf("heap owners sum to %d B, HeapAlloc grew %d B: more than 10%% apart", owners, growth)
	}
	if m.Cache == 0 || m.ArenaUsed == 0 || m.ArenaUsed > m.ArenaReserved {
		t.Fatalf("ledger %+v: cache and arena must be in use", m)
	}
	if uint64(live1-live0) != m.Images {
		t.Fatalf("ledger images %d B, devices mapped %d B", m.Images, live1-live0)
	}
}
