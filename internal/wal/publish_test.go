package wal

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"dstore/internal/fault"
	"dstore/internal/pmem"
	"dstore/internal/space"
)

// The group-commit publish round (publishAndSettleLocked): what it costs, what
// a power cut inside it can leave, and that the appends which skip the window
// scan on a quiet filter stripe decide exactly as the scan would.

// trackedPair is a fresh pair on a persistence-tracking device.
func trackedPair(strict, grouped bool) (*Pair, *pmem.Device, *space.PMEM, *space.PMEM) {
	dev := pmem.New(pmem.Config{Size: 2 * testLogSize, TrackPersistence: true, StrictPersistOrder: strict})
	a := space.MustPMEM(dev, 0, testLogSize)
	b := space.MustPMEM(dev, testLogSize, testLogSize)
	p := NewPair(a, b, 1)
	p.SetGroupCommit(GroupCommitConfig{Enabled: grouped})
	return p, dev, a, b
}

// settleTogether settles hs in one leader round on the calling goroutine: all
// but the last are queued as committers that found a leader at work, and the
// last one's settle takes the free leadership and drains them.
func settleTogether(p *Pair, hs []*Handle, states []uint8) error {
	last := len(hs) - 1
	for i, h := range hs[:last] {
		h.settleState, h.settleErr = states[i], nil
		p.gc.queue = append(p.gc.queue, h)
	}
	return p.settle(hs[last], states[last])
}

type wantRec struct {
	op            uint16
	name, payload string
}

func (w wantRec) matches(rv RecordView) bool {
	return rv.Op == w.op && string(rv.Name) == w.name && string(rv.Payload) == w.payload
}

// A leader round over three records — one published uncommitted by an earlier
// round, two still pending, one of those settling dead — cut at every PMEM
// mutation, each cut resolved by seeded per-line draws (a line keeps its old
// image, its flushed image or its current bytes, independently of the others).
// Whatever survives, recovery must find a whole prefix of what was appended,
// every acknowledged commit in it, and the abort never committed.
func TestPublishRoundCrashAtEveryMutation(t *testing.T) {
	const draws = 48
	// Bodies of two to three cache lines, so a record's LSN word, its state
	// byte and its tail can each survive or vanish on their own.
	recs := []wantRec{
		{1, "acked-before-the-round", string(bytes.Repeat([]byte{0xA1}, 90))},
		{2, "published-by-an-earlier-round", string(bytes.Repeat([]byte{0xB2}, 70))},
		{3, "pending-commits-in-the-round", string(bytes.Repeat([]byte{0xC3}, 130))},
		{4, "pending-dies-in-the-round", string(bytes.Repeat([]byte{0xD4}, 100))},
	}
	// scenario builds the state before the round and runs the round with the
	// device hook counting its mutations, panicking out of the cutAt-th.
	const sentinel = "power cut"
	scenario := func(cutAt int) (dev *pmem.Device, a, b *space.PMEM, seen int, done bool) {
		p, dev, a, b := trackedPair(true, true)
		hs := make([]*Handle, len(recs))
		for i, r := range recs[:2] {
			hs[i] = mustAppend(t, p, r.op, r.name, []byte(r.payload))
		}
		if err := p.Commit(hs[0]); err != nil { // publishes both, settles the first
			t.Fatalf("commit before the round: %v", err)
		}
		for i, r := range recs[2:] {
			hs[2+i] = mustAppend(t, p, r.op, r.name, []byte(r.payload))
		}
		dev.SetMutationHook(func() {
			if seen++; seen == cutAt {
				panic(sentinel)
			}
		})
		defer func() {
			dev.SetMutationHook(nil)
			if r := recover(); r != nil && r != sentinel {
				panic(r)
			}
		}()
		if err := settleTogether(p, []*Handle{hs[1], hs[3], hs[2]},
			[]uint8{StateCommitted, StateDead, StateCommitted}); err != nil {
			t.Fatalf("round: %v", err)
		}
		for _, h := range hs {
			if !h.Committed() {
				t.Fatalf("round left record %d unsettled", h.LSN())
			}
		}
		return dev, a, b, seen, true
	}
	_, _, _, total, _ := scenario(0)
	t.Logf("round: %d PMEM mutations", total)
	if total < 8 {
		t.Fatalf("the round made %d PMEM mutations; the scenario is not what it says", total)
	}
	// Cut total+1 never fires: the round is acknowledged, then power goes.
	for cut := 1; cut <= total+1; cut++ {
		for seed := int64(0); seed < draws; seed++ {
			dev, a, b, _, acked := scenario(cut)
			if acked != (cut > total) {
				t.Fatalf("cut %d of %d: round finished = %v", cut, total, acked)
			}
			if err := dev.Crash(pmem.CrashRandom, seed); err != nil {
				t.Fatal(err)
			}
			p2, err := RecoverPair(a, b, 0)
			if err != nil {
				t.Fatalf("cut %d seed %d: recover: %v", cut, seed, err)
			}
			where := fmt.Sprintf("cut %d of %d, seed %d", cut, total, seed)
			var got []RecordView
			p2.Log(0).IterateAll(func(rv RecordView) error { //nolint:errcheck // fn never fails
				got = append(got, rv)
				return nil
			})
			if len(got) > len(recs) {
				t.Fatalf("%s: %d valid records, %d appended", where, len(got), len(recs))
			}
			for i, rv := range got {
				if rv.LSN != uint64(i+1) {
					t.Fatalf("%s: valid records are not an LSN prefix: record %d has LSN %d", where, i, rv.LSN)
				}
				if !recs[i].matches(rv) {
					t.Fatalf("%s: record %d is valid but torn: op %d name %q payload %x", where, rv.LSN, rv.Op, rv.Name, rv.Payload)
				}
				if rv.State == StateUncommitted {
					t.Fatalf("%s: record %d uncommitted after recovery", where, rv.LSN)
				}
			}
			committed := func(i int) bool { return i < len(got) && got[i].State == StateCommitted }
			if !committed(0) {
				t.Fatalf("%s: the commit acknowledged before the round is missing or dead", where)
			}
			if acked && !(committed(1) && committed(2)) {
				t.Fatalf("%s: a commit the round acknowledged is missing or dead", where)
			}
			if committed(3) {
				t.Fatalf("%s: the aborted record recovered committed", where)
			}
			// The log takes appends where the prefix ends, and nothing stale
			// beyond the new record's guard comes back.
			if err := p2.Commit(mustAppend(t, p2, 9, "after", nil)); err != nil {
				t.Fatalf("%s: append after recovery: %v", where, err)
			}
			n := 0
			p2.Log(0).IterateAll(func(RecordView) error { n++; return nil }) //nolint:errcheck // fn never fails
			if n != len(got)+1 {
				t.Fatalf("%s: %d valid records after one more append on %d", where, n, len(got))
			}
		}
	}
}

// linesOf counts the cache lines [off, off+n) touches.
func linesOf(off, n uint64) uint64 { return (off+n-1)/pmem.LineSize - off/pmem.LineSize + 1 }

// What a commit costs in fences and flushed lines, from the device's counters.
// Under group commit a solo append+commit is the publish alone: body and guard
// flushed once, fence, the LSN's line flushed, fence — the state byte rides
// the body flush, so no line is flushed on its account (the LSN's line is the
// one line flushed twice, as the protocol demands: body before validity). A
// record some earlier round published pays one line and one fence. With group
// commit off it is the paper's fence per step, unchanged.
func TestCommitFenceAndFlushCost(t *testing.T) {
	payload := bytes.Repeat([]byte{7}, 100)
	cost := func(dev *pmem.Device, fn func()) (fences, lines uint64) {
		before := dev.Stats()
		fn()
		after := dev.Stats()
		return after.Fences - before.Fences, after.LinesFlushed - before.LinesFlushed
	}
	for _, grouped := range []bool{true, false} {
		p, dev, _, _ := trackedPair(true, grouped)
		p.Commit(mustAppend(t, p, 1, "warm", payload)) //nolint:errcheck // offsets off the log header
		var h *Handle
		fences, lines := cost(dev, func() {
			h = mustAppend(t, p, 1, "solo", payload)
			if err := p.Commit(h); err != nil {
				t.Fatal(err)
			}
		})
		body := linesOf(h.off, recordSize(len("solo"), len(payload))+8)
		wantFences, wantLines := uint64(2), body+1
		if !grouped {
			wantFences, wantLines = 3, body+2 // append: body | LSN; commit: state
		}
		if fences != wantFences || lines != wantLines {
			t.Errorf("grouped=%v: solo append+commit cost %d fences and %d flushed lines, want %d and %d",
				grouped, fences, lines, wantFences, wantLines)
		}
		if dev.DirtyLines() != 0 {
			t.Errorf("grouped=%v: %d lines not persistent after the commit returned", grouped, dev.DirtyLines())
		}
		if !grouped {
			continue
		}
		first := mustAppend(t, p, 1, "first", payload)
		second := mustAppend(t, p, 1, "second", payload)
		p.Commit(first)                                                                         //nolint:errcheck // publishes second as well
		if fences, lines := cost(dev, func() { p.Commit(second) }); fences != 1 || lines != 1 { //nolint:errcheck
			t.Errorf("commit of an already published record cost %d fences and %d lines, want 1 and 1", fences, lines)
		}
	}
}

// firstUnsettled walks the active log to where its first unsettled record
// lies (the tail when there is none).
func firstUnsettled(p *Pair) uint64 {
	l := p.logs[p.active]
	off := uint64(logHeader)
	for off < l.tail {
		rv, next, ok := l.readRecord(off)
		if !ok || rv.State == StateUncommitted {
			break // unpublished records are unsettled too
		}
		off = next
	}
	return off
}

// Seeded interleavings of append, commit, abort, olock with the holder's own
// writes, multi-record leader rounds and Swap. An append consults the window
// scan only when its filter stripe is raised; its verdict must be the one the
// exact scan (scanConflict, which never asks the filter) gives at that moment.
// And since such appends no longer move the cursor, the settles must: between
// operations it stands on the first unsettled record — not one leader round
// behind — so the scan a busy stripe does pay for starts where it should.
func TestAppendVerdictMatchesScanAndCursorKeepsUp(t *testing.T) {
	names := []string{"a", "b", "c", "d", "e"}
	names = append(names, sameStripe(t, "a"), sameStripe(t, "b")) // neighbours: raised stripe, no conflict
	for _, grouped := range []bool{true, false} {
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			p, _, _, _ := trackedPair(true, grouped)
			var open []*Handle            // unsettled records, locks included
			locks := map[string]*Handle{} // held olocks by name
			where := func(step int, what string) string {
				return fmt.Sprintf("grouped=%v seed %d step %d (%s)", grouped, seed, step, what)
			}
			drop := func(h *Handle) {
				for i, o := range open {
					if o == h {
						open = append(open[:i], open[i+1:]...)
					}
				}
				for n, l := range locks {
					if l == h {
						delete(locks, n)
					}
				}
			}
			for step := 0; step < 400; step++ {
				what := ""
				switch r := rng.Intn(10); {
				case r < 5: // append, a lock holder ignoring its own lock
					name := names[rng.Intn(len(names))]
					op, ignore := uint16(1), uint64(0)
					if l := locks[name]; l != nil && rng.Intn(4) > 0 {
						ignore = l.LSN()
					} else if l == nil && rng.Intn(5) == 0 {
						op = 99 // an olock
					}
					what = fmt.Sprintf("append %q op %d ignore %d", name, op, ignore)
					wantLSN, want := p.scanConflict([]byte(name), ignore)
					h, conflict, err := p.AppendIgnore(op, []byte(name), []byte{byte(step)}, ignore)
					if err == ErrLogFull {
						continue
					}
					if err != nil {
						t.Fatalf("%s: %v", where(step, what), err)
					}
					if conflict != want || (conflict == nil) != (h != nil) {
						t.Fatalf("%s: append says conflict %v, scan says LSN %d", where(step, what), conflict != nil, wantLSN)
					}
					if h != nil {
						open = append(open, h)
						if op == 99 {
							locks[name] = h
						}
					}
				case r < 8 && len(open) > 0: // settle one to three records in one round
					n := min(1+rng.Intn(3), len(open))
					if !grouped {
						n = 1
					}
					rng.Shuffle(len(open), func(i, j int) { open[i], open[j] = open[j], open[i] })
					hs := append([]*Handle(nil), open[:n]...)
					states := make([]uint8, n)
					for i := range states {
						states[i] = StateCommitted + uint8(rng.Intn(2))
					}
					what = fmt.Sprintf("settle %d records", n)
					if err := settleTogether(p, hs, states); err != nil {
						t.Fatalf("%s: %v", where(step, what), err)
					}
					for _, h := range hs {
						if !h.Committed() {
							t.Fatalf("%s: record %d left unsettled", where(step, what), h.LSN())
						}
						drop(h)
					}
				case r == 8:
					what = "swap"
					if _, err := p.Swap(func(int, int, uint64) {}); err != nil {
						t.Fatalf("%s: %v", where(step, what), err)
					}
				default:
					continue
				}
				l := p.logs[p.active]
				if want := firstUnsettled(p); l.cur != want {
					t.Fatalf("%s: cursor at %d, first unsettled record at %d (tail %d)", where(step, what), l.cur, want, l.tail)
				}
				if total := filterTotal(p); total != len(open) || p.InFlight() != len(open) {
					t.Fatalf("%s: filter holds %d, registry %d, %d records unsettled", where(step, what), total, p.InFlight(), len(open))
				}
			}
		}
	}
}

// A settle the device refuses is applied in DRAM — waiters are released, scans
// see the record settled — and stays off the media: the caller got an error, so
// a crash must not bring the record back committed. Under group commit that
// includes a record still pending, whose state byte would otherwise ride the
// body flush.
func TestRefusedSettleStaysOffMedia(t *testing.T) {
	for _, grouped := range []bool{true, false} {
		p, dev, a, b := trackedPair(true, grouped)
		p.Commit(mustAppend(t, p, 1, "durable", nil)) //nolint:errcheck
		h := mustAppend(t, p, 1, "refused", []byte("x"))
		dev.SetFaultPlan(fault.NewPlan(fault.Config{WriteErrRate: 1}))
		if err := p.Commit(h); err == nil {
			t.Fatalf("grouped=%v: commit on a failing device reported success", grouped)
		}
		dev.SetFaultPlan(nil)
		if !h.Committed() || p.FindConflict([]byte("refused")) != nil {
			t.Fatalf("grouped=%v: refused settle not applied in DRAM", grouped)
		}
		if err := dev.Crash(pmem.CrashDropDirty, 1); err != nil {
			t.Fatal(err)
		}
		p2, err := RecoverPair(a, b, 0)
		if err != nil {
			t.Fatal(err)
		}
		if recs := collect(t, p2.Log(0), p2.Log(0).Tail()); len(recs) != 1 || string(recs[0].Name) != "durable" {
			t.Fatalf("grouped=%v: recovered committed records %+v, want only the acknowledged one", grouped, recs)
		}
	}
}
