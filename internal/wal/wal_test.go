package wal

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"dstore/internal/pmem"
	"dstore/internal/space"
)

const testLogSize = 1 << 16

func newTestPair(t *testing.T) (*Pair, *pmem.Device) {
	t.Helper()
	dev := pmem.New(pmem.Config{Size: 2 * testLogSize, TrackPersistence: true})
	a := space.MustPMEM(dev, 0, testLogSize)
	b := space.MustPMEM(dev, testLogSize, testLogSize)
	return NewPair(a, b, 1), dev
}

func mustAppend(t *testing.T, p *Pair, op uint16, name string, payload []byte) *Handle {
	t.Helper()
	for {
		h, conflict, err := p.Append(op, []byte(name), payload)
		if err != nil {
			t.Fatalf("append: %v", err)
		}
		if conflict != nil {
			conflict.Wait()
			continue
		}
		return h
	}
}

func collect(t *testing.T, l *Log, end uint64) []RecordView {
	t.Helper()
	var out []RecordView
	if err := l.IterateCommitted(end, func(rv RecordView) error {
		// Copy slices: views alias log memory.
		cp := rv
		cp.Name = append([]byte(nil), rv.Name...)
		cp.Payload = append([]byte(nil), rv.Payload...)
		out = append(out, cp)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestAppendCommitIterate(t *testing.T) {
	p, _ := newTestPair(t)
	h1 := mustAppend(t, p, 1, "alpha", []byte{1, 2, 3})
	h2 := mustAppend(t, p, 2, "beta", nil)
	if h1.LSN() != 1 || h2.LSN() != 2 {
		t.Fatalf("LSNs = %d, %d", h1.LSN(), h2.LSN())
	}
	p.Commit(h1)
	// h2 uncommitted: must not appear in committed iteration.
	got := collect(t, p.Active(), p.Active().Tail())
	if len(got) != 1 || string(got[0].Name) != "alpha" || got[0].Op != 1 {
		t.Fatalf("committed records = %+v", got)
	}
	if string(got[0].Payload) != string([]byte{1, 2, 3}) {
		t.Fatalf("payload = %v", got[0].Payload)
	}
	p.Commit(h2)
	if got := collect(t, p.Active(), p.Active().Tail()); len(got) != 2 {
		t.Fatalf("want 2 committed records, got %d", len(got))
	}
}

func TestWriteWriteConflictDetected(t *testing.T) {
	p, _ := newTestPair(t)
	h1 := mustAppend(t, p, 1, "obj", nil)
	_, conflict, err := p.Append(1, []byte("obj"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if conflict == nil {
		t.Fatal("conflicting append not detected")
	}
	if conflict.LSN() != h1.LSN() {
		t.Fatalf("conflict LSN = %d, want %d", conflict.LSN(), h1.LSN())
	}
	p.Commit(h1)
	h2 := mustAppend(t, p, 1, "obj", nil)
	p.Commit(h2)
}

func TestNoConflictAcrossDistinctObjects(t *testing.T) {
	p, _ := newTestPair(t)
	h1 := mustAppend(t, p, 1, "a", nil)
	h2 := mustAppend(t, p, 1, "b", nil) // must not block
	p.Commit(h2)
	p.Commit(h1)
}

func TestFindConflictForReaders(t *testing.T) {
	p, _ := newTestPair(t)
	h := mustAppend(t, p, 1, "obj", nil)
	if c := p.FindConflictIgnore([]byte("obj"), 0); c == nil || c.LSN() != h.LSN() {
		t.Fatal("reader did not find uncommitted writer")
	}
	if c := p.FindConflictIgnore([]byte("other"), 0); c != nil {
		t.Fatal("phantom conflict")
	}
	p.Commit(h)
	if c := p.FindConflictIgnore([]byte("obj"), 0); c != nil {
		t.Fatal("conflict after commit")
	}
}

func TestNoopLockConflicts(t *testing.T) {
	p, _ := newTestPair(t)
	lockH, _, err := p.Append(99, []byte("locked"), nil)
	if err != nil || lockH == nil {
		t.Fatalf("noop append: %v", err)
	}
	_, conflict, err := p.Append(1, []byte("locked"), nil)
	if err != nil || conflict == nil {
		t.Fatal("NOOP lock did not conflict with a write")
	}
	p.Commit(lockH) // ounlock
	h := mustAppend(t, p, 1, "locked", nil)
	p.Commit(h)
}

func TestAbortReleasesWaiters(t *testing.T) {
	p, _ := newTestPair(t)
	h := mustAppend(t, p, 1, "obj", nil)
	p.Abort(h)
	if !h.Committed() {
		t.Fatal("abort did not settle the handle")
	}
	// Aborted records are dead: not replayed, no conflicts.
	if c := p.FindConflictIgnore([]byte("obj"), 0); c != nil {
		t.Fatal("dead record conflicts")
	}
	if got := collect(t, p.Active(), p.Active().Tail()); len(got) != 0 {
		t.Fatal("dead record replayed")
	}
}

func TestLogFull(t *testing.T) {
	dev := pmem.New(pmem.Config{Size: 2048, TrackPersistence: true})
	p := NewPair(space.MustPMEM(dev, 0, 1024), space.MustPMEM(dev, 1024, 1024), 1)
	full := false
	for i := 0; i < 100; i++ {
		h, _, err := p.Append(1, []byte(fmt.Sprintf("k%03d", i)), nil)
		if err == ErrLogFull {
			full = true
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		p.Commit(h)
	}
	if !full {
		t.Fatal("log never filled")
	}
}

func TestSwapArchivesCommittedPrefix(t *testing.T) {
	p, _ := newTestPair(t)
	for i := 0; i < 5; i++ {
		p.Commit(mustAppend(t, p, 1, fmt.Sprintf("k%d", i), nil))
	}
	inflight := mustAppend(t, p, 1, "pending", nil)
	p.Commit(mustAppend(t, p, 1, "after", nil)) // committed after the pending one

	var rootCalls int
	res, err := p.Swap(func(newActive, archived int, replayEnd uint64) { rootCalls++ })
	if err != nil {
		t.Fatal(err)
	}
	if rootCalls != 1 {
		t.Fatal("persistRoot not called")
	}
	if res.NewActiveIndex != 1 || res.ArchivedIndex != 0 {
		t.Fatalf("swap result %+v", res)
	}
	// Archived prefix: the five committed records before the pending one.
	arch := collect(t, res.Archived, res.ReplayEnd)
	if len(arch) != 5 {
		t.Fatalf("archived committed records = %d, want 5", len(arch))
	}
	// Migrated suffix: pending (uncommitted) + after (committed).
	if res.Migrated != 2 {
		t.Fatalf("migrated = %d, want 2", res.Migrated)
	}
	act := collect(t, p.Active(), p.Active().Tail())
	if len(act) != 1 || string(act[0].Name) != "after" {
		t.Fatalf("active committed records = %+v", act)
	}
	// The in-flight handle must still commit, in the new log.
	p.Commit(inflight)
	act = collect(t, p.Active(), p.Active().Tail())
	if len(act) != 2 {
		t.Fatalf("after commit, active committed = %d, want 2", len(act))
	}
	if act[0].LSN >= act[1].LSN {
		t.Fatal("active log not LSN ordered")
	}
}

func TestSwapPreservesLSNOrderForReplay(t *testing.T) {
	p, _ := newTestPair(t)
	pending := mustAppend(t, p, 1, "p", nil)
	for i := 0; i < 3; i++ {
		p.Commit(mustAppend(t, p, 1, fmt.Sprintf("k%d", i), nil))
	}
	res, err := p.Swap(func(int, int, uint64) {})
	if err != nil {
		t.Fatal(err)
	}
	if res.ReplayEnd != logHeader {
		t.Fatalf("replayEnd = %d, want empty prefix (first record uncommitted)", res.ReplayEnd)
	}
	p.Commit(pending)
	act := collect(t, p.Active(), p.Active().Tail())
	if len(act) != 4 {
		t.Fatalf("active committed = %d, want 4", len(act))
	}
	for i := 1; i < len(act); i++ {
		if act[i].LSN <= act[i-1].LSN {
			t.Fatal("LSN order violated after migration")
		}
	}
}

func TestAppendAfterSwapUsesNewLog(t *testing.T) {
	p, _ := newTestPair(t)
	p.Commit(mustAppend(t, p, 1, "x", nil))
	p.Swap(func(int, int, uint64) {})
	if p.ActiveIndex() != 1 {
		t.Fatal("active index did not flip")
	}
	h := mustAppend(t, p, 1, "y", nil)
	p.Commit(h)
	if got := collect(t, p.Log(1), p.Log(1).Tail()); len(got) != 1 {
		t.Fatalf("new active log committed = %d", len(got))
	}
}

func TestRecoverAfterCleanRun(t *testing.T) {
	dev := pmem.New(pmem.Config{Size: 2 * testLogSize, TrackPersistence: true})
	a := space.MustPMEM(dev, 0, testLogSize)
	b := space.MustPMEM(dev, testLogSize, testLogSize)
	p := NewPair(a, b, 1)
	for i := 0; i < 10; i++ {
		p.Commit(mustAppend(t, p, 3, fmt.Sprintf("key%d", i), []byte{byte(i)}))
	}
	dev.Crash(pmem.CrashDropDirty, 1)

	p2, err := RecoverPair(a, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, p2.Log(0), p2.Log(0).Tail())
	if len(got) != 10 {
		t.Fatalf("recovered %d records, want 10", len(got))
	}
	if p2.LastLSN() != 10 {
		t.Fatalf("recovered LSN = %d", p2.LastLSN())
	}
	// New appends must continue above recovered LSNs.
	h := mustAppend(t, p2, 1, "new", nil)
	if h.LSN() != 11 {
		t.Fatalf("next LSN = %d, want 11", h.LSN())
	}
}

func TestRecoverMarksInFlightDead(t *testing.T) {
	dev := pmem.New(pmem.Config{Size: 2 * testLogSize, TrackPersistence: true})
	a := space.MustPMEM(dev, 0, testLogSize)
	b := space.MustPMEM(dev, testLogSize, testLogSize)
	p := NewPair(a, b, 1)
	p.Commit(mustAppend(t, p, 1, "done", nil))
	mustAppend(t, p, 1, "inflight", nil) // never committed
	// A later commit publishes the pending suffix, the in-flight record with
	// it: the record is valid and uncommitted on media when power goes.
	p.Commit(mustAppend(t, p, 1, "later", nil))
	dev.Crash(pmem.CrashDropDirty, 1)

	p2, err := RecoverPair(a, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, p2.Log(0), p2.Log(0).Tail())
	if len(got) != 2 || string(got[0].Name) != "done" || string(got[1].Name) != "later" {
		t.Fatalf("recovered committed = %+v", got)
	}
	var states []uint8
	p2.Log(0).IterateAll(func(rv RecordView) error { //nolint:errcheck // fn never fails
		if string(rv.Name) == "inflight" {
			states = append(states, rv.State)
		}
		return nil
	})
	if len(states) != 1 || states[0] != StateDead {
		t.Fatalf("in-flight record after recovery: states %v, want one record, dead", states)
	}
	// The dead record must not block future writers on the same name.
	h := mustAppend(t, p2, 1, "inflight", nil)
	p2.Commit(h)
}

func TestTornAppendIsInvisible(t *testing.T) {
	// A record whose body persisted but whose LSN did not must vanish.
	dev := pmem.New(pmem.Config{Size: 2 * testLogSize, TrackPersistence: true})
	a := space.MustPMEM(dev, 0, testLogSize)
	b := space.MustPMEM(dev, testLogSize, testLogSize)
	p := NewPair(a, b, 1)
	p.Commit(mustAppend(t, p, 1, "ok", nil))

	// Hand-craft a torn append: write a record body without the LSN-last
	// protocol's final step, then crash adversarially.
	l := p.Log(0)
	l.mu.Lock()
	off := l.tail
	sp := l.sp
	sp.PutU32(off+recLen, uint32(recordSize(4, 0)))
	sp.PutU16(off+recOp, 7)
	sp.PutU16(off+recNameLen, 4)
	sp.Write(off+recHeader, []byte("torn"))
	// Flush body but never write the LSN.
	sp.Persist(off, recordSize(4, 0))
	l.mu.Unlock()

	dev.Crash(pmem.CrashDropDirty, 3)
	p2, err := RecoverPair(a, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, p2.Log(0), p2.Log(0).Tail())
	if len(got) != 1 || string(got[0].Name) != "ok" {
		t.Fatalf("torn record became visible: %+v", got)
	}
}

func TestStaleRecordsFromPreviousEpochIgnored(t *testing.T) {
	// After a swap, the new active log may be a previously-used region.
	// Records appended there must not resurrect stale higher-offset bytes.
	p, _ := newTestPair(t)
	for i := 0; i < 20; i++ {
		p.Commit(mustAppend(t, p, 1, fmt.Sprintf("first%02d", i), []byte("xxxxxxxx")))
	}
	p.Swap(func(int, int, uint64) {}) // active -> log 1
	for i := 0; i < 20; i++ {
		p.Commit(mustAppend(t, p, 1, fmt.Sprintf("second%02d", i), nil))
	}
	p.Swap(func(int, int, uint64) {}) // active -> log 0, which has stale bytes
	p.Commit(mustAppend(t, p, 1, "fresh", nil))
	got := collect(t, p.Active(), p.Active().Tail())
	if len(got) != 1 || string(got[0].Name) != "fresh" {
		t.Fatalf("stale records leaked into scan: %d records", len(got))
	}
}

func TestConcurrentAppendCommit(t *testing.T) {
	p, _ := newTestPair(t)
	var wg sync.WaitGroup
	perG := 50
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				// Shared key space forces real conflicts.
				name := fmt.Sprintf("key%d", i%10)
				var h *Handle
				for {
					var c *Handle
					var err error
					h, c, err = p.Append(1, []byte(name), nil)
					if err != nil {
						t.Errorf("append: %v", err)
						return
					}
					if c == nil {
						break
					}
					c.Wait()
				}
				p.Commit(h)
			}
		}(g)
	}
	wg.Wait()
	if p.InFlight() != 0 {
		t.Fatalf("in flight = %d", p.InFlight())
	}
	wantFilter(t, p, "quiesced", "key0", 0)
	got := collect(t, p.Active(), p.Active().Tail())
	if len(got) != 8*perG {
		t.Fatalf("committed = %d, want %d", len(got), 8*perG)
	}
	for i := 1; i < len(got); i++ {
		if got[i].LSN <= got[i-1].LSN {
			t.Fatal("LSN order violated")
		}
	}
}

func TestConcurrentAppendsWithSwaps(t *testing.T) {
	p, _ := newTestPair(t)
	stop := make(chan struct{})
	var swaps sync.WaitGroup
	swaps.Add(1)
	go func() {
		defer swaps.Done()
		for {
			select {
			case <-stop:
				return
			default:
				p.Swap(func(int, int, uint64) {})
			}
		}
	}()
	var wg sync.WaitGroup
	total := 0
	var totalMu sync.Mutex
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			n := 0
			for i := 0; i < 200; i++ {
				h := mustAppend(t, p, 1, fmt.Sprintf("g%dk%d", g, i%5), nil)
				p.Commit(h)
				n++
			}
			totalMu.Lock()
			total += n
			totalMu.Unlock()
		}(g)
	}
	wg.Wait()
	close(stop)
	swaps.Wait()
	if total != 800 {
		t.Fatalf("total = %d", total)
	}
	if p.InFlight() != 0 {
		t.Fatalf("in flight = %d", p.InFlight())
	}
	wantFilter(t, p, "quiesced", "key0", 0)
}

// Property: for any crash seed, recovery sees exactly the committed records,
// in order, with intact contents.
func TestQuickCommittedSurviveAnyCrash(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		count := int(n%16) + 1
		dev := pmem.New(pmem.Config{Size: 2 * testLogSize, TrackPersistence: true})
		a := space.MustPMEM(dev, 0, testLogSize)
		b := space.MustPMEM(dev, testLogSize, testLogSize)
		p := NewPair(a, b, 1)
		want := make([]string, 0, count)
		for i := 0; i < count; i++ {
			name := fmt.Sprintf("obj-%d-%d", seed&0xff, i)
			h, _, err := p.Append(2, []byte(name), []byte{byte(i)})
			if err != nil || h == nil {
				return false
			}
			p.Commit(h)
			want = append(want, name)
		}
		// One in-flight record that may or may not have persisted.
		p.Append(2, []byte("inflight"), nil)
		dev.Crash(pmem.CrashRandom, seed)
		p2, err := RecoverPair(a, b, 0)
		if err != nil {
			return false
		}
		var got []string
		p2.Log(0).IterateCommitted(p2.Log(0).Tail(), func(rv RecordView) error {
			got = append(got, string(rv.Name))
			return nil
		})
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRecordSizePadding(t *testing.T) {
	if recordSize(0, 0) != 24 {
		t.Fatalf("empty record size = %d", recordSize(0, 0))
	}
	if recordSize(1, 0) != 32 {
		t.Fatalf("1-name record size = %d", recordSize(1, 0))
	}
	if recordSize(8, 8) != 40 {
		t.Fatalf("8+8 record size = %d", recordSize(8, 8))
	}
}

func TestOversizeFieldsRejected(t *testing.T) {
	p, _ := newTestPair(t)
	if _, _, err := p.Append(1, make([]byte, MaxName+1), nil); err == nil {
		t.Fatal("oversize name accepted")
	}
	if _, _, err := p.Append(1, []byte("k"), make([]byte, MaxPayload+1)); err == nil {
		t.Fatal("oversize payload accepted")
	}
}
