package dstore

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"dstore/internal/wal"
)

// Tests of the read side of §4.4 (readers.go): the striped read-count table,
// its drain mark, and its pairing with the WAL's in-flight-name filter.

// stripeMate returns a name other than name on name's read-count stripe.
func stripeMate(s *Store, name string) string {
	want := s.readers.stripe(wal.NameHash(name))
	for i := 0; ; i++ {
		if c := fmt.Sprintf("mate%d", i); c != name && s.readers.stripe(wal.NameHash(c)) == want {
			return c
		}
	}
}

// filterMate returns a name other than name on name's filter stripe, found
// from outside the wal package: while busy's record is the only one in
// flight, exactly the names on its stripe read not-quiet.
func filterMate(t *testing.T, s *Store, busy string) string {
	t.Helper()
	if s.eng.Pair().InFlight() != 1 {
		t.Fatalf("filterMate wants %q's record alone in flight, have %d", busy, s.eng.Pair().InFlight())
	}
	for i := 0; ; i++ {
		if c := fmt.Sprintf("fmate%d", i); c != busy && !s.eng.Pair().Quiet(wal.NameHash(c)) {
			return c
		}
	}
}

func TestReadTableIsFixedSize(t *testing.T) {
	if sz := unsafe.Sizeof(readTable{}); sz > 64<<10 {
		t.Fatalf("read-count table is %d bytes, want at most 64 KiB", sz)
	}
	if sz := unsafe.Sizeof(readStripe{}); sz != 64 {
		t.Fatalf("read stripe is %d bytes, want one 64-byte cache line", sz)
	}
}

// A writer must not be starved by readers of another name that happens to
// share its read-count stripe: the readers' sections overlap, so without the
// drain mark the shared count the writer polls almost never reads zero.
func TestWriterNotStarvedByStripeNeighbours(t *testing.T) {
	s := newStoreT(t, testConfig())
	defer s.Close()
	const hot = "hot"
	cold := stripeMate(s, hot)
	w := s.Init()
	defer w.Finalize()
	if err := w.Put(hot, val('h', 1024)); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	var reads atomic.Uint64
	for g := 0; g < 2*runtime.GOMAXPROCS(0)+2; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			ctx := s.Init()
			defer ctx.Finalize()
			var buf []byte
			for {
				select {
				case <-stop:
					return
				default:
				}
				var err error
				if buf, err = ctx.Get(hot, buf[:0]); err != nil {
					t.Errorf("get: %v", err)
					return
				}
				reads.Add(1)
			}
		}()
	}
	for reads.Load() == 0 { // the hammering has started
		runtime.Gosched()
	}

	const puts = 40
	done := make(chan error, 1)
	go func() {
		for i := 0; i < puts; i++ {
			if err := w.Put(cold, val(byte(i), 256)); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("put: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Errorf("%d puts to %q did not finish while %q was being read: readers of a stripe neighbour starve the writer", puts, cold, hot)
	}
	close(stop)
	readers.Wait()
	if t.Failed() {
		<-done // the writer finishes once the readers are gone
	}
	if st := s.readers.stripe(wal.NameHash(hot)); st.n.Load() != 0 || st.drain.Load() != 0 {
		t.Fatalf("stripe left at n=%d drain=%d", st.n.Load(), st.drain.Load())
	}
}

// A reader that finds its stripe draining holds off — whatever name it reads
// — and resumes when the writer has seen zero and lowers the mark.
func TestReaderBehindDrainResumes(t *testing.T) {
	s := newStoreT(t, testConfig())
	defer s.Close()
	ctx := s.Init()
	defer ctx.Finalize()
	if err := ctx.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	st := s.readers.stripe(wal.NameHash("k"))
	st.drain.Add(1) // a writer of some name on the stripe is polling
	done := make(chan error, 1)
	go func() {
		_, err := ctx.Get("k", nil)
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("reader entered a draining stripe (err %v)", err)
	case <-time.After(20 * time.Millisecond):
	}
	if n := st.n.Load(); n != 0 {
		t.Fatalf("waiting reader holds the count at %d: the writer's poll would never see zero", n)
	}
	st.drain.Add(-1)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("reader did not resume after the drain mark was lowered")
	}
}

// An olock keeps its name's filter stripe raised for as long as it is held.
// The holder still reads the object it locked, a different name on the same
// stripe reads without waiting (the scan's exact verdict), and an outsider's
// read of the locked name waits for the unlock.
func TestOlockHolderAndFilterNeighbours(t *testing.T) {
	s := newStoreT(t, testConfig())
	defer s.Close()
	holder, other := s.Init(), s.Init()
	defer holder.Finalize()
	defer other.Finalize()
	if err := holder.Put("obj", []byte("locked")); err != nil {
		t.Fatal(err)
	}
	if err := holder.Lock("obj"); err != nil {
		t.Fatal(err)
	}
	nb := filterMate(t, s, "obj")
	if err := other.Put(nb, []byte("free")); err != nil {
		t.Fatalf("write of stripe neighbour %q under the lock: %v", nb, err)
	}

	if got, err := holder.Get("obj", nil); err != nil || string(got) != "locked" {
		t.Fatalf("holder read: %q %v", got, err)
	}
	if got, err := other.Get(nb, nil); err != nil || string(got) != "free" {
		t.Fatalf("neighbour read: %q %v", got, err)
	}
	o, err := holder.Open("obj", 0, OpenRead)
	if err != nil {
		t.Fatal(err)
	}
	p := make([]byte, 6)
	if n, err := o.ReadAt(p, 0); err != nil || string(p[:n]) != "locked" {
		t.Fatalf("holder ReadAt: %q %v", p[:n], err)
	}

	done := make(chan error, 1)
	go func() {
		_, err := other.Get("obj", nil)
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("outsider read the locked object (err %v)", err)
	case <-time.After(20 * time.Millisecond):
	}
	if err := holder.Unlock("obj"); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !s.eng.Pair().Quiet(wal.NameHash("obj")) {
		t.Fatal("filter stripe still raised after the unlock")
	}
}

// The store's CC state does not grow with the names it has seen: the read
// count table, the in-flight filter and the OCC version table (txn.go) are
// fixed arrays. Churn through distinct names — put, get, delete, and a get of
// the absent name — and compare the live heap of the whole store.
func TestCCStateIsSizeConstant(t *testing.T) {
	names := 200_000
	if raceEnabled || testing.Short() {
		names = 20_000
	}
	cfg := Config{Blocks: 256, MaxObjects: 64, LogBytes: 1 << 20}
	s := newStoreT(t, cfg)
	defer s.Close()
	ctx := s.Init()
	defer ctx.Finalize()
	churn := func(from, to int) {
		var buf []byte
		for i := from; i < to; i++ {
			k := fmt.Sprintf("churn-%07d", i)
			if err := ctx.Put(k, []byte("v")); err != nil {
				t.Fatal(err)
			}
			var err error
			if buf, err = ctx.Get(k, buf[:0]); err != nil {
				t.Fatal(err)
			}
			if err := ctx.Delete(k); err != nil {
				t.Fatal(err)
			}
			if _, err := ctx.Get(k, buf[:0]); err != ErrNotFound {
				t.Fatalf("get of deleted %s: %v", k, err)
			}
		}
	}
	live := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	churn(0, 1000) // pools, scratch and the checkpointer's buffers are warm
	before := live()
	churn(1000, 1000+names)
	after := live()
	// A per-name entry is some 100 bytes (the old sync.Map of counters kept
	// ~25 MB for 200k names); the fixed tables add nothing.
	const slack = 1 << 20
	if after > before+slack {
		t.Fatalf("live heap grew by %d KiB over %d distinct names, want under %d KiB: something keeps per-name CC state",
			(after-before)>>10, names, slack>>10)
	}
}

// ackedVersions is TestConcurrentSameKeyMixed's second half: same-key readers
// and writers, cache off and on, where a read never returns a torn value and
// never one older than a write acknowledged before the read began. Each key
// has one writer, which publishes every version it was acked; the keys share
// a read-count stripe, so every writer's drain meets the other keys' readers.
func ackedVersions(t *testing.T) {
	for _, cacheBytes := range []uint64{0, 1 << 20} {
		t.Run(fmt.Sprintf("acked/cache=%dK", cacheBytes>>10), func(t *testing.T) {
			cfg := testConfig()
			cfg.CacheBytes = cacheBytes
			s := newStoreT(t, cfg)
			defer s.Close()
			keys := []string{"seq"}
			for len(keys) < 3 {
				keys = append(keys, stripeMate(s, keys[len(keys)-1]))
			}
			acked := make([]atomic.Uint64, len(keys))
			const versions = 150
			var writers, readers sync.WaitGroup
			stop := make(chan struct{})
			for k := range keys {
				writers.Add(1)
				go func(k int) {
					defer writers.Done()
					ctx := s.Init()
					defer ctx.Finalize()
					for v := uint64(1); v <= versions; v++ {
						// The length varies with the version so a torn read
						// can also show as a size/content mismatch.
						if err := ctx.Put(keys[k], bytes.Repeat([]byte{byte(v)}, 512+int(v)*8)); err != nil {
							t.Errorf("put %s v%d: %v", keys[k], v, err)
							return
						}
						acked[k].Store(v)
					}
				}(k)
			}
			for g := 0; g < 4; g++ {
				readers.Add(1)
				go func(g int) {
					defer readers.Done()
					ctx := s.Init()
					defer ctx.Finalize()
					var buf []byte
					for i := g; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						k := i % len(keys)
						floor := acked[k].Load()
						var err error
						buf, err = ctx.Get(keys[k], buf[:0])
						if err == ErrNotFound && floor == 0 {
							continue
						}
						if err != nil {
							t.Errorf("get %s: %v", keys[k], err)
							return
						}
						v := uint64((len(buf) - 512) / 8)
						if want := bytes.Repeat([]byte{byte(v)}, len(buf)); !bytes.Equal(buf, want) {
							t.Errorf("torn read of %s: %d bytes, first %d", keys[k], len(buf), buf[0])
							return
						}
						if v < floor {
							t.Errorf("stale read of %s: version %d after version %d was acknowledged", keys[k], v, floor)
							return
						}
					}
				}(g)
			}
			writers.Wait()
			close(stop)
			readers.Wait()
		})
	}
}
