package wal

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"dstore/internal/fault"
	"dstore/internal/pmem"
	"dstore/internal/space"
)

// The in-flight-name filter (Pair.Quiet) must be non-zero on a name's stripe
// exactly while a record naming it is registered and unsettled — a stripe
// that reads zero too early loses a conflict, one that stays raised sends
// every reader of the stripe to the scan for ever.

func inflightOf(p *Pair, name string) int32 {
	return p.inflight[filterStripe(NameHash(name))].Load()
}

// filterTotal sums the filter: the number of records it holds in flight.
func filterTotal(p *Pair) (n int) {
	for i := range p.inflight {
		n += int(p.inflight[i].Load())
	}
	return n
}

// wantFilter checks the whole filter against the registry and name's stripe
// against want.
func wantFilter(t *testing.T, p *Pair, when, name string, want int32) {
	t.Helper()
	if got := inflightOf(p, name); got != want {
		t.Fatalf("%s: filter stripe of %q = %d, want %d", when, name, got, want)
	}
	if total, reg := filterTotal(p), p.InFlight(); total != reg {
		t.Fatalf("%s: filter holds %d records, registry %d", when, total, reg)
	}
}

// sameStripe returns a name other than name that shares its filter stripe.
func sameStripe(t *testing.T, name string) string {
	t.Helper()
	want := filterStripe(NameHash(name))
	for i := 0; i < 1<<20; i++ {
		if c := fmt.Sprintf("n%d", i); c != name && filterStripe(NameHash(c)) == want {
			return c
		}
	}
	t.Fatalf("no name shares %q's stripe", name)
	return ""
}

func TestFilterTracksUnsettledRecords(t *testing.T) {
	for _, grouped := range []bool{false, true} {
		t.Run(fmt.Sprintf("grouped=%v", grouped), func(t *testing.T) {
			p, dev := newTestPair(t)
			p.SetGroupCommit(GroupCommitConfig{Enabled: grouped})
			wantFilter(t, p, "fresh pair", "a", 0)

			a := mustAppend(t, p, 1, "a", nil)
			wantFilter(t, p, "appended", "a", 1)
			if err := p.Commit(a); err != nil {
				t.Fatal(err)
			}
			wantFilter(t, p, "committed", "a", 0)

			b := mustAppend(t, p, 1, "b", nil)
			wantFilter(t, p, "appended", "b", 1)
			if err := p.Abort(b); err != nil {
				t.Fatal(err)
			}
			wantFilter(t, p, "aborted", "b", 0)

			// An append the device rejects lays nothing down and raises nothing.
			dev.SetFaultPlan(fault.NewPlan(fault.Config{WriteErrRate: 1}))
			if _, _, err := p.Append(1, []byte("rejected"), nil); err == nil {
				t.Fatal("append on a failing device succeeded")
			}
			dev.SetFaultPlan(nil)
			wantFilter(t, p, "rejected append", "rejected", 0)

			// A settle that hits a device fault still settles the handle in
			// DRAM: waiters are released and the stripe is lowered.
			c := mustAppend(t, p, 1, "c", nil)
			dev.SetFaultPlan(fault.NewPlan(fault.Config{WriteErrRate: 1}))
			if err := p.Commit(c); err == nil {
				t.Fatal("commit on a failing device reported success")
			}
			dev.SetFaultPlan(nil)
			if !c.Committed() {
				t.Fatal("faulted settle left waiters spinning")
			}
			wantFilter(t, p, "faulted settle", "c", 0)
		})
	}
}

// A group-commit batch: every record is in the filter from its (store-only)
// append, and the leader lowers each stripe before it releases that record's
// committer — a committer that returns from Commit finds its stripe released.
func TestFilterGroupCommitBatch(t *testing.T) {
	p, _ := newGroupPair(t)
	const n = 16
	names := make([]string, 0, n) // pairwise distinct stripes
	taken := map[uint32]bool{}
	for i := 0; len(names) < n; i++ {
		name := fmt.Sprintf("batch%d", i)
		if st := filterStripe(NameHash(name)); !taken[st] {
			taken[st] = true
			names = append(names, name)
		}
	}
	hs := make([]*Handle, n)
	for i, name := range names {
		hs[i] = mustAppend(t, p, 1, name, nil)
		wantFilter(t, p, "pending", name, 1)
	}
	var wg sync.WaitGroup
	for i := range hs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := p.Commit(hs[i]); err != nil {
				t.Errorf("commit %s: %v", names[i], err)
			}
			if got := inflightOf(p, names[i]); got != 0 {
				t.Errorf("Commit(%s) returned with its stripe at %d", names[i], got)
			}
		}(i)
	}
	wg.Wait()
	wantFilter(t, p, "batch settled", names[0], 0)
	if st := p.GroupCommitStats(); st.Records != n {
		t.Fatalf("group commit settled %d records, want %d", st.Records, n)
	}
}

// A handle settled through a pair that did not append it — what a failover
// did when it released the retired primary's olocks through the promoted
// store, which mirrors the primary's LSNs — is refused: the call errors, not
// one byte of the pair's logs moves (with group commit on, the leader used to
// store the state byte at the foreign offset of its own active log), and the
// pair's own record under the same LSN stays registered and in the filter.
func TestFilterIgnoresForeignHandle(t *testing.T) {
	for _, grouped := range []bool{false, true} {
		old, _ := newTestPair(t)
		promoted, dev := newTestPair(t)
		promoted.SetGroupCommit(GroupCommitConfig{Enabled: grouped})
		// The promoted log holds a committed record where the foreign handle's
		// offset points, so a stray state byte would land inside it.
		// (The old pair's own pad stays unsettled: that pair is retired.)
		mustAppend(t, old, 1, "pad", nil)
		promoted.Commit(mustAppend(t, promoted, 1, "pad", bytes.Repeat([]byte{0xAB}, 256))) //nolint:errcheck
		foreign := mustAppend(t, old, 1, "x", nil)
		own := mustAppend(t, promoted, 1, "x", nil)
		if foreign.LSN() != own.LSN() {
			t.Fatalf("test wants colliding LSNs, got %d and %d", foreign.LSN(), own.LSN())
		}
		before := bytes.Clone(dev.Bytes())
		if err := promoted.Commit(foreign); err == nil {
			t.Fatalf("grouped=%v: settling a foreign handle did not error", grouped)
		}
		if foreign.Committed() {
			t.Fatalf("grouped=%v: foreign handle settled", grouped)
		}
		if !bytes.Equal(before, dev.Bytes()) {
			t.Fatalf("grouped=%v: settling a foreign handle changed the pair's log bytes", grouped)
		}
		wantFilter(t, promoted, "foreign settle", "x", 1)
		if c := promoted.FindConflict([]byte("x")); c != own {
			t.Fatalf("grouped=%v: settling a foreign handle unregistered the pair's own record", grouped)
		}
		promoted.Commit(own) //nolint:errcheck
		wantFilter(t, promoted, "own settle", "x", 0)
	}
}

// Swap migrates uncommitted records to the new active log; the filter is
// keyed by name, not location, so the records stay in it until they settle.
func TestFilterSurvivesSwap(t *testing.T) {
	for _, grouped := range []bool{false, true} {
		p, _ := newTestPair(t)
		p.SetGroupCommit(GroupCommitConfig{Enabled: grouped})
		p.Commit(mustAppend(t, p, 1, "settled", nil)) //nolint:errcheck
		u1 := mustAppend(t, p, 1, "u1", nil)
		u2 := mustAppend(t, p, 1, "u2", nil)
		res, err := p.Swap(func(int, int, uint64) {})
		if err != nil {
			t.Fatal(err)
		}
		if res.Migrated != 2 {
			t.Fatalf("grouped=%v: migrated %d records, want 2", grouped, res.Migrated)
		}
		wantFilter(t, p, "after swap", "u1", 1)
		wantFilter(t, p, "after swap", "u2", 1)
		if c := p.FindConflict([]byte("u1")); c != u1 {
			t.Fatalf("grouped=%v: migrated record not found through the filter: %v", grouped, c)
		}
		p.Commit(u1) //nolint:errcheck
		p.Abort(u2)  //nolint:errcheck
		wantFilter(t, p, "settled after swap", "u1", 0)
		wantFilter(t, p, "settled after swap", "u2", 0)
	}
}

// Recovery marks every uncommitted record dead: no record is in flight, and
// the filter starts all-zero.
func TestFilterEmptyAfterRecover(t *testing.T) {
	dev := pmem.New(pmem.Config{Size: 2 * testLogSize, TrackPersistence: true})
	a := space.MustPMEM(dev, 0, testLogSize)
	b := space.MustPMEM(dev, testLogSize, testLogSize)
	p := NewPair(a, b, 1)
	mustAppend(t, p, 1, "inflight", nil)
	dev.Crash(pmem.CrashKeepAll, 1)
	p2, err := RecoverPair(a, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantFilter(t, p2, "recovered", "inflight", 0)
	if c := p2.FindConflict([]byte("inflight")); c != nil {
		t.Fatalf("dead record conflicts after recovery: LSN %d", c.LSN())
	}
}

// A conflict check on a quiet stripe takes neither swapMu nor the active
// log's mu: it returns while the test holds both.
func TestFindConflictQuietStripeTakesNoLock(t *testing.T) {
	p, _ := newTestPair(t)
	busy := mustAppend(t, p, 1, "busy", nil) // some other stripe is raised
	quiet := "quiet"
	if filterStripe(NameHash(quiet)) == filterStripe(NameHash("busy")) {
		quiet = "quiet2"
	}
	p.swapMu.Lock()
	l := p.logs[p.active]
	l.mu.Lock()
	done := make(chan *Handle, 1)
	go func() { done <- p.FindConflict([]byte(quiet)) }()
	var c *Handle
	select {
	case c = <-done:
	case <-time.After(10 * time.Second):
		t.Error("FindConflict on a quiet stripe blocked on the log's locks")
	}
	l.mu.Unlock()
	p.swapMu.Unlock()
	if t.Failed() {
		c = <-done // it returns now that the locks are free
	}
	if c != nil {
		t.Errorf("quiet name conflicts with LSN %d", c.LSN())
	}
	p.Commit(busy) //nolint:errcheck
}

// A raised stripe only means "look": the scan behind it still gives every
// name its exact verdict — the olock holder reads its own object, a
// neighbour on the stripe is free, an outsider conflicts.
func TestFilterCollisionGetsExactVerdict(t *testing.T) {
	p, _ := newTestPair(t)
	lock, _, err := p.AppendNoop(99, []byte("obj"))
	if err != nil {
		t.Fatal(err)
	}
	nb := sameStripe(t, "obj")
	if p.Quiet(NameHash(nb)) {
		t.Fatal("neighbour's stripe reads quiet while the lock is held")
	}
	if c := p.FindConflictIgnore([]byte("obj"), lock.LSN()); c != nil {
		t.Fatal("holder's read saw its own lock as a conflict")
	}
	if c := p.FindConflict([]byte(nb)); c != nil {
		t.Fatalf("neighbour %q conflicts with a record that does not name it", nb)
	}
	if c := p.FindConflict([]byte("obj")); c != lock {
		t.Fatal("outsider's read missed the lock")
	}
	w := mustAppend(t, p, 1, nb, nil)
	if c := p.FindConflict([]byte(nb)); c != w {
		t.Fatal("neighbour's own writer not found")
	}
	if c := p.FindConflictIgnore([]byte("obj"), lock.LSN()); c != nil {
		t.Fatal("holder's read blocked by the neighbour's writer")
	}
	p.Commit(w)    //nolint:errcheck
	p.Commit(lock) //nolint:errcheck
	wantFilter(t, p, "released", "obj", 0)
}

// A scan that can see a record can resolve it: the handle is registered
// before the append releases l.mu, so a scan racing appends and settles of
// the same name never comes back with an LSN and no handle (which a reader
// would take for "no conflict" and a second writer would spin on).
func TestScanNeverFindsUnregisteredRecord(t *testing.T) {
	for _, grouped := range []bool{false, true} {
		p, _ := newTestPair(t)
		p.SetGroupCommit(GroupCommitConfig{Enabled: grouped})
		stop := make(chan struct{})
		var scans sync.WaitGroup
		for g := 0; g < 2; g++ {
			scans.Add(1)
			go func() {
				defer scans.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if lsn, h := p.scanConflict([]byte("hot"), 0); lsn != 0 && h == nil {
						t.Errorf("grouped=%v: scan found LSN %d with no registered handle", grouped, lsn)
						return
					}
				}
			}()
		}
		for i := 0; i < 3000; i++ {
			h, conflict, err := p.Append(1, []byte("hot"), nil)
			if err != nil || conflict != nil {
				t.Fatalf("append %d: conflict %v, err %v", i, conflict != nil, err)
			}
			p.Commit(h) //nolint:errcheck
			if i%500 == 499 {
				p.Swap(func(int, int, uint64) {}) //nolint:errcheck // keep the log from filling
			}
		}
		close(stop)
		scans.Wait()
		wantFilter(t, p, "quiesced", "hot", 0)
	}
}
