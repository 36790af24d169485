package wal

import (
	"fmt"
	"sync"
	"testing"

	"dstore/internal/pmem"
	"dstore/internal/space"
)

func newGroupPair(t *testing.T) (*Pair, *pmem.Device) {
	t.Helper()
	p, dev := newTestPair(t)
	p.SetGroupCommit(GroupCommitConfig{Enabled: true})
	return p, dev
}

func TestGroupCommitConcurrent(t *testing.T) {
	p, _ := newGroupPair(t)
	const workers = 8
	const perWorker = 40
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				name := fmt.Sprintf("w%d-k%d", w, i)
				h := mustAppend(t, p, 1, name, []byte{byte(w), byte(i)})
				if err := p.Commit(h); err != nil {
					t.Errorf("commit %s: %v", name, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	recs := collect(t, p.Active(), p.Active().Tail())
	if len(recs) != workers*perWorker {
		t.Fatalf("committed %d records, want %d", len(recs), workers*perWorker)
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].LSN <= recs[i-1].LSN {
			t.Fatalf("LSN order violated at %d: %d then %d", i, recs[i-1].LSN, recs[i].LSN)
		}
	}
	st := p.GroupCommitStats()
	if st.Records != workers*perWorker {
		t.Fatalf("stats records %d, want %d", st.Records, workers*perWorker)
	}
	if st.Batches == 0 || st.Batches > st.Records {
		t.Fatalf("implausible batch count %d for %d records", st.Batches, st.Records)
	}
	if p.InFlight() != 0 {
		t.Fatalf("in-flight %d after all settled", p.InFlight())
	}
	wantFilter(t, p, "quiesced", "w0-k0", 0)
}

func TestGroupCommitAbortMix(t *testing.T) {
	p, _ := newGroupPair(t)
	var wg sync.WaitGroup
	const n = 64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h := mustAppend(t, p, 1, fmt.Sprintf("k%d", i), nil)
			var err error
			if i%2 == 0 {
				err = p.Commit(h)
			} else {
				err = p.Abort(h)
			}
			if err != nil {
				t.Errorf("settle %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	recs := collect(t, p.Active(), p.Active().Tail())
	if len(recs) != n/2 {
		t.Fatalf("committed %d records, want %d", len(recs), n/2)
	}
}

func TestGroupCommitConflictPendingVisible(t *testing.T) {
	p, _ := newGroupPair(t)
	h := mustAppend(t, p, 1, "dup", []byte{1})
	// The record is pending (no LSN published yet) but must still be
	// visible to the conflict window.
	_, conflict, err := p.Append(1, []byte("dup"), []byte{2})
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	if conflict == nil {
		t.Fatal("pending record invisible to conflict scan")
	}
	done := make(chan *Handle, 1)
	go func() {
		conflict.Wait()
		h2 := mustAppend(t, p, 1, "dup", []byte{2})
		done <- h2
	}()
	if err := p.Commit(h); err != nil {
		t.Fatalf("commit: %v", err)
	}
	h2 := <-done
	if err := p.Commit(h2); err != nil {
		t.Fatalf("commit second: %v", err)
	}
	recs := collect(t, p.Active(), p.Active().Tail())
	if len(recs) != 2 {
		t.Fatalf("committed %d records, want 2", len(recs))
	}
}

func TestGroupCommitSwapPublishesPending(t *testing.T) {
	p, _ := newGroupPair(t)
	seed := mustAppend(t, p, 1, "seed", []byte("s"))
	if err := p.Commit(seed); err != nil {
		t.Fatal(err)
	}
	// Leave two records pending-unsettled across a swap: the swap must
	// publish them before migrating, or they vanish from the new log.
	h1 := mustAppend(t, p, 1, "pend1", []byte("a"))
	h2 := mustAppend(t, p, 1, "pend2", []byte("b"))
	res, err := p.Swap(func(newActive, archived int, replayEnd uint64) {})
	if err != nil {
		t.Fatalf("swap: %v", err)
	}
	arch := collect(t, res.Archived, res.ReplayEnd)
	if len(arch) != 1 || string(arch[0].Name) != "seed" {
		t.Fatalf("archived = %+v, want just seed", arch)
	}
	if err := p.Commit(h1); err != nil {
		t.Fatalf("commit after swap: %v", err)
	}
	if err := p.Commit(h2); err != nil {
		t.Fatalf("commit after swap: %v", err)
	}
	recs := collect(t, p.Active(), p.Active().Tail())
	if len(recs) != 2 {
		t.Fatalf("committed %d migrated records after swap, want 2", len(recs))
	}
}

func TestGroupCommitCrashPendingInvisible(t *testing.T) {
	dev := pmem.New(pmem.Config{Size: 2 * testLogSize, TrackPersistence: true})
	a := space.MustPMEM(dev, 0, testLogSize)
	b := space.MustPMEM(dev, testLogSize, testLogSize)
	p := NewPair(a, b, 1)
	p.SetGroupCommit(GroupCommitConfig{Enabled: true})

	h := mustAppend(t, p, 1, "durable", []byte("x"))
	if err := p.Commit(h); err != nil {
		t.Fatal(err)
	}
	// Pending, never settled: its LSN was never published, so after a crash
	// it must not exist at all.
	mustAppend(t, p, 1, "ghost", []byte("y"))

	if err := dev.Crash(pmem.CrashDropDirty, 1); err != nil {
		t.Fatalf("crash: %v", err)
	}
	p2, err := RecoverPair(a, b, 0)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	recs := collect(t, p2.Log(0), p2.Log(0).Tail())
	if len(recs) != 1 {
		t.Fatalf("recovered %d committed records, want 1", len(recs))
	}
	if string(recs[0].Name) != "durable" {
		t.Fatalf("recovered %q, want durable", recs[0].Name)
	}
	// The log must still be appendable past the recovered prefix.
	h2 := mustAppend(t, p2, 1, "after", []byte("z"))
	if err := p2.Commit(h2); err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
}

func TestGroupCommitStrictPersistOrder(t *testing.T) {
	dev := pmem.New(pmem.Config{Size: 2 * testLogSize, TrackPersistence: true})
	dev.SetStrictPersistOrder(true)
	a := space.MustPMEM(dev, 0, testLogSize)
	b := space.MustPMEM(dev, testLogSize, testLogSize)
	p := NewPair(a, b, 1)
	p.SetGroupCommit(GroupCommitConfig{Enabled: true})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 16; i++ {
				h := mustAppend(t, p, 1, fmt.Sprintf("s%d-%d", w, i), []byte{byte(i)})
				if err := p.Commit(h); err != nil {
					t.Errorf("commit under strict order: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	recs := collect(t, p.Active(), p.Active().Tail())
	if len(recs) != 64 {
		t.Fatalf("committed %d records, want 64", len(recs))
	}
}
