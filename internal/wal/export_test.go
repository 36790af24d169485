package wal

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"dstore/internal/fault"
	"dstore/internal/pmem"
	"dstore/internal/space"
)

func exportAll(t *testing.T, p *Pair, from uint64) []ExportRecord {
	t.Helper()
	out, err := p.ExportCommitted(from, 1<<20)
	if err != nil {
		t.Fatalf("export from %d: %v", from, err)
	}
	return out
}

func TestExportCommittedBasic(t *testing.T) {
	p, _ := newTestPair(t)
	for i := 0; i < 5; i++ {
		p.Commit(mustAppend(t, p, 3, fmt.Sprintf("k%d", i), []byte{byte(i)}))
	}
	recs := exportAll(t, p, 0)
	if len(recs) != 5 {
		t.Fatalf("exported %d records, want 5", len(recs))
	}
	for i, r := range recs {
		if r.LSN != uint64(i+1) || string(r.Name) != fmt.Sprintf("k%d", i) ||
			r.Op != 3 || string(r.Payload) != string([]byte{byte(i)}) {
			t.Fatalf("record %d = %+v", i, r)
		}
	}
	// from filters strictly greater.
	if got := exportAll(t, p, 3); len(got) != 2 || got[0].LSN != 4 {
		t.Fatalf("export from 3 = %+v", got)
	}
	// max truncates.
	got, err := p.ExportCommitted(0, 2)
	if err != nil || len(got) != 2 || got[1].LSN != 2 {
		t.Fatalf("export max 2 = %+v (%v)", got, err)
	}
}

func TestExportStopsAtUncommittedPrefix(t *testing.T) {
	p, _ := newTestPair(t)
	p.Commit(mustAppend(t, p, 1, "a", nil))
	pending := mustAppend(t, p, 1, "b", nil)
	p.Commit(mustAppend(t, p, 1, "c", nil)) // committed after the pending one
	recs := exportAll(t, p, 0)
	if len(recs) != 1 || string(recs[0].Name) != "a" {
		t.Fatalf("export past uncommitted record: %+v", recs)
	}
	p.Commit(pending)
	recs = exportAll(t, p, 0)
	if len(recs) != 3 {
		t.Fatalf("after commit, exported %d, want 3", len(recs))
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].LSN <= recs[i-1].LSN {
			t.Fatal("export not LSN ordered")
		}
	}
}

func TestExportSkipsDeadRecords(t *testing.T) {
	p, _ := newTestPair(t)
	p.Commit(mustAppend(t, p, 1, "a", nil))
	p.Abort(mustAppend(t, p, 1, "b", nil))
	p.Commit(mustAppend(t, p, 1, "c", nil))
	recs := exportAll(t, p, 0)
	if len(recs) != 2 || recs[0].LSN != 1 || recs[1].LSN != 3 {
		t.Fatalf("export with dead gap = %+v", recs)
	}
}

// Satellite: committed iteration across an active-log switch boundary. The
// exporter must see one continuous LSN sequence even though the records are
// split between the archived log's prefix and the new active log (and the
// archived log still holds stale copies of the migrated suffix).
func TestExportAcrossSwapBoundary(t *testing.T) {
	p, _ := newTestPair(t)
	for i := 0; i < 4; i++ {
		p.Commit(mustAppend(t, p, 1, fmt.Sprintf("pre%d", i), nil))
	}
	pending := mustAppend(t, p, 1, "pending", nil)
	p.Commit(mustAppend(t, p, 1, "post", nil))
	if _, err := p.Swap(func(int, int, uint64) {}); err != nil {
		t.Fatal(err)
	}
	// pending + post migrated; archive retains stale copies of both.
	p.Commit(pending)
	p.Commit(mustAppend(t, p, 1, "new", nil))

	recs := exportAll(t, p, 0)
	if len(recs) != 7 {
		t.Fatalf("exported %d records across swap, want 7", len(recs))
	}
	for i, r := range recs {
		if r.LSN != uint64(i+1) {
			t.Fatalf("record %d LSN = %d, want %d", i, r.LSN, i+1)
		}
	}
	if string(recs[4].Name) != "pending" || string(recs[6].Name) != "new" {
		t.Fatalf("tail of export = %q, %q", recs[4].Name, recs[6].Name)
	}
}

// Satellite: pair rotation mid-iteration. A chunked export interleaved with
// swaps must still recover the complete committed sequence with no loss or
// duplication — each chunk resumes from the previous chunk's last LSN.
func TestExportChunkedAcrossRotations(t *testing.T) {
	p, _ := newTestPair(t)
	const total = 30
	next := 1
	appendSome := func(n int) {
		for i := 0; i < n && next <= total; i++ {
			p.Commit(mustAppend(t, p, 1, fmt.Sprintf("k%03d", next), nil))
			next++
		}
	}
	appendSome(10)
	var got []ExportRecord
	var from uint64
	for round := 0; ; round++ {
		chunk, err := p.ExportCommitted(from, 3)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if len(chunk) == 0 {
			if next > total {
				break
			}
			appendSome(7)
			continue
		}
		got = append(got, chunk...)
		from = chunk[len(chunk)-1].LSN
		if round%2 == 1 {
			if _, err := p.Swap(func(int, int, uint64) {}); err != nil {
				t.Fatalf("swap: %v", err)
			}
		}
	}
	if len(got) != total {
		t.Fatalf("chunked export recovered %d records, want %d", len(got), total)
	}
	for i, r := range got {
		if r.LSN != uint64(i+1) || string(r.Name) != fmt.Sprintf("k%03d", i+1) {
			t.Fatalf("record %d = LSN %d %q", i, r.LSN, r.Name)
		}
	}
}

func TestExportTruncationHorizon(t *testing.T) {
	p, _ := newTestPair(t)
	for i := 0; i < 5; i++ {
		p.Commit(mustAppend(t, p, 1, fmt.Sprintf("a%d", i), nil))
	}
	p.Swap(func(int, int, uint64) {}) // archives LSNs 1..5
	if p.Truncated() != 0 {
		t.Fatalf("truncated after first swap = %d, want 0 (archive still readable)", p.Truncated())
	}
	for i := 0; i < 3; i++ {
		p.Commit(mustAppend(t, p, 1, fmt.Sprintf("b%d", i), nil))
	}
	p.Swap(func(int, int, uint64) {}) // recycles the log holding 1..5
	if p.Truncated() != 5 {
		t.Fatalf("truncated after second swap = %d, want 5", p.Truncated())
	}
	if _, err := p.ExportCommitted(0, 100); !errors.Is(err, ErrTruncated) {
		t.Fatalf("export below horizon: err = %v, want ErrTruncated", err)
	}
	recs := exportAll(t, p, 5)
	if len(recs) != 3 || recs[0].LSN != 6 {
		t.Fatalf("export from horizon = %+v", recs)
	}
}

func TestAppendCommittedAndRecover(t *testing.T) {
	dev := pmem.New(pmem.Config{Size: 2 * testLogSize, TrackPersistence: true})
	a := space.MustPMEM(dev, 0, testLogSize)
	b := space.MustPMEM(dev, testLogSize, testLogSize)
	p := NewPair(a, b, 1)
	// Standby apply: explicit LSNs with a gap (primary burned LSN 3).
	for _, lsn := range []uint64{1, 2, 4, 5} {
		if err := p.AppendCommitted(lsn, 7, []byte(fmt.Sprintf("r%d", lsn)), []byte{byte(lsn)}); err != nil {
			t.Fatalf("append committed %d: %v", lsn, err)
		}
	}
	if p.LastLSN() != 5 {
		t.Fatalf("LastLSN = %d, want 5", p.LastLSN())
	}
	// Non-monotonic LSNs are rejected.
	if err := p.AppendCommitted(5, 7, []byte("dup"), nil); err == nil {
		t.Fatal("duplicate LSN accepted")
	}
	// The applied prefix survives a crash: records were published committed.
	dev.Crash(pmem.CrashDropDirty, 1)
	p2, err := RecoverPair(a, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p2.LastLSN() != 5 {
		t.Fatalf("recovered LastLSN = %d, want 5", p2.LastLSN())
	}
	got := collect(t, p2.Log(0), p2.Log(0).Tail())
	if len(got) != 4 || got[3].LSN != 5 || string(got[3].Name) != "r5" {
		t.Fatalf("recovered standby records = %+v", got)
	}
}

// A standby append the device refuses leaves the log as it was: tail, LSN
// counter and pending list do not move, the same LSN applies on retry, and a
// crash recovers the retried record once.
func TestRefusedStandbyAppendLeavesLogUnchanged(t *testing.T) {
	dev := pmem.New(pmem.Config{Size: 2 * testLogSize, TrackPersistence: true})
	a := space.MustPMEM(dev, 0, testLogSize)
	b := space.MustPMEM(dev, testLogSize, testLogSize)
	p := NewPair(a, b, 1)
	if err := p.AppendCommitted(1, 7, []byte("r1"), []byte("one")); err != nil {
		t.Fatal(err)
	}
	l := p.Active()
	tail, last, pending := l.Tail(), p.LastLSN(), slices.Clone(l.pending)
	dev.SetFaultPlan(fault.NewPlan(fault.Config{FailWriteAt: []uint64{1}}))
	if err := p.AppendCommitted(2, 7, []byte("r2"), []byte("refused")); err == nil {
		t.Fatal("standby append on a failing device succeeded")
	}
	dev.SetFaultPlan(nil)
	if l.Tail() != tail || p.LastLSN() != last || !slices.Equal(l.pending, pending) {
		t.Fatalf("refused append moved the log: tail %d→%d, LSN %d→%d, pending %v→%v",
			tail, l.Tail(), last, p.LastLSN(), pending, l.pending)
	}
	if err := p.AppendCommitted(2, 7, []byte("r2"), []byte("retried")); err != nil {
		t.Fatalf("retry at the refused LSN: %v", err)
	}
	if err := dev.Crash(pmem.CrashDropDirty, 1); err != nil {
		t.Fatal(err)
	}
	p2, err := RecoverPair(a, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, p2.Log(0), p2.Log(0).Tail())
	if len(got) != 2 || got[1].LSN != 2 || string(got[1].Name) != "r2" || string(got[1].Payload) != "retried" {
		t.Fatalf("recovered standby records = %+v, want r1 and the retried r2", got)
	}
	if p2.LastLSN() != 2 {
		t.Fatalf("recovered LastLSN = %d, want 2", p2.LastLSN())
	}
}

func TestRecoverSetsConservativeHorizon(t *testing.T) {
	dev := pmem.New(pmem.Config{Size: 2 * testLogSize, TrackPersistence: true})
	a := space.MustPMEM(dev, 0, testLogSize)
	b := space.MustPMEM(dev, testLogSize, testLogSize)
	p := NewPair(a, b, 10) // as if LSNs 1..9 were consumed before this epoch
	p.Commit(mustAppendPair(t, p, "x"))
	p.Commit(mustAppendPair(t, p, "y"))
	dev.Crash(pmem.CrashDropDirty, 1)
	p2, err := RecoverPair(a, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Truncated() != 9 {
		t.Fatalf("recovered horizon = %d, want 9", p2.Truncated())
	}
	if _, err := p2.ExportCommitted(0, 10); !errors.Is(err, ErrTruncated) {
		t.Fatalf("pre-horizon export err = %v", err)
	}
	if recs := exportAll(t, p2, 9); len(recs) != 2 {
		t.Fatalf("post-horizon export = %+v", recs)
	}
}

func mustAppendPair(t *testing.T, p *Pair, name string) *Handle {
	t.Helper()
	return mustAppend(t, p, 1, name, nil)
}
