package wal

import "testing"

func TestAppendIgnoreSkipsOwnLock(t *testing.T) {
	p, _ := newTestPair(t)
	lock, _, err := p.Append(99, []byte("obj"), nil)
	if err != nil || lock == nil {
		t.Fatalf("lock append: %v", err)
	}
	// Without the ignore, the holder's own write conflicts.
	_, conflict, err := p.Append(1, []byte("obj"), nil)
	if err != nil || conflict == nil {
		t.Fatal("expected conflict against the lock record")
	}
	// With the ignore, it proceeds.
	h, conflict, err := p.AppendIgnore(1, []byte("obj"), nil, lock.LSN())
	if err != nil || conflict != nil || h == nil {
		t.Fatalf("ignored append: h=%v conflict=%v err=%v", h, conflict, err)
	}
	// A third party still conflicts with BOTH records.
	_, c2, err := p.AppendIgnore(1, []byte("obj"), nil, 0)
	if err != nil || c2 == nil {
		t.Fatal("third party saw no conflict")
	}
	if c2.LSN() != lock.LSN() {
		t.Fatalf("conflict should be the earliest record (lock), got LSN %d", c2.LSN())
	}
	p.Commit(h)
	p.Commit(lock)
}

func TestFindConflictIgnore(t *testing.T) {
	p, _ := newTestPair(t)
	lock, _, _ := p.Append(99, []byte("obj"), nil)
	if c := p.FindConflictIgnore([]byte("obj"), lock.LSN()); c != nil {
		t.Fatal("holder's read saw its own lock as a conflict")
	}
	if c := p.FindConflictIgnore([]byte("obj"), 0); c == nil {
		t.Fatal("outsider's read missed the lock")
	}
	p.Commit(lock)
}

func TestIgnoreOnlyAffectsThatLSN(t *testing.T) {
	p, _ := newTestPair(t)
	lock, _, _ := p.Append(99, []byte("obj"), nil)
	other := mustAppend(t, p, 1, "other", nil)
	// Ignoring the lock must not hide a real conflicting write.
	w := mustAppend(t, p, 1, "obj2", nil)
	_, conflict, err := p.AppendIgnore(1, []byte("obj2"), nil, lock.LSN())
	if err != nil || conflict == nil || conflict.LSN() != w.LSN() {
		t.Fatal("ignore hid an unrelated conflict")
	}
	p.Commit(lock)
	p.Commit(other)
	p.Commit(w)
}
