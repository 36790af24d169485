package btree

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"dstore/internal/alloc"
	"dstore/internal/pmem"
	"dstore/internal/space"
)

func newTree(t *testing.T, size uint64) *Tree {
	t.Helper()
	al := alloc.Format(space.NewDRAM(size))
	tr, _, err := New(al)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestEmptyTree(t *testing.T) {
	tr := newTree(t, 1<<20)
	if _, ok := tr.Get([]byte("nope")); ok {
		t.Fatal("found key in empty tree")
	}
	if tr.Len() != 0 {
		t.Fatalf("len = %d", tr.Len())
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertGet(t *testing.T) {
	tr := newTree(t, 1<<22)
	for i := 0; i < 1000; i++ {
		key := []byte(fmt.Sprintf("key-%04d", i))
		if _, rep, err := tr.Insert(key, uint64(i)); err != nil || rep {
			t.Fatalf("insert %d: err=%v replaced=%v", i, err, rep)
		}
	}
	if tr.Len() != 1000 {
		t.Fatalf("len = %d", tr.Len())
	}
	for i := 0; i < 1000; i++ {
		v, ok := tr.Get([]byte(fmt.Sprintf("key-%04d", i)))
		if !ok || v != uint64(i) {
			t.Fatalf("get %d: %d, %v", i, v, ok)
		}
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertReplace(t *testing.T) {
	tr := newTree(t, 1<<20)
	tr.Insert([]byte("k"), 1)
	old, rep, err := tr.Insert([]byte("k"), 2)
	if err != nil || !rep || old != 1 {
		t.Fatalf("replace: old=%d rep=%v err=%v", old, rep, err)
	}
	if v, _ := tr.Get([]byte("k")); v != 2 {
		t.Fatalf("get after replace = %d", v)
	}
	if tr.Len() != 1 {
		t.Fatalf("len = %d", tr.Len())
	}
}

func TestDelete(t *testing.T) {
	tr := newTree(t, 1<<22)
	for i := 0; i < 500; i++ {
		tr.Insert([]byte(fmt.Sprintf("key-%04d", i)), uint64(i))
	}
	for i := 0; i < 500; i += 2 {
		v, ok, err := tr.Delete([]byte(fmt.Sprintf("key-%04d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if !ok || v != uint64(i) {
			t.Fatalf("delete %d: %d, %v", i, v, ok)
		}
	}
	if tr.Len() != 250 {
		t.Fatalf("len = %d", tr.Len())
	}
	for i := 0; i < 500; i++ {
		_, ok := tr.Get([]byte(fmt.Sprintf("key-%04d", i)))
		if want := i%2 == 1; ok != want {
			t.Fatalf("get %d after deletes: ok=%v want %v", i, ok, want)
		}
	}
	if _, ok, _ := tr.Delete([]byte("missing")); ok {
		t.Fatal("deleted a missing key")
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteThenReinsert(t *testing.T) {
	tr := newTree(t, 1<<22)
	for round := 0; round < 3; round++ {
		for i := 0; i < 200; i++ {
			tr.Insert([]byte(fmt.Sprintf("k%03d", i)), uint64(round*1000+i))
		}
		for i := 0; i < 200; i++ {
			if _, _, err := tr.Delete([]byte(fmt.Sprintf("k%03d", i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("len = %d after full delete", tr.Len())
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestIterateOrdered(t *testing.T) {
	tr := newTree(t, 1<<22)
	keys := []string{"mango", "apple", "zebra", "kiwi", "banana"}
	for i, k := range keys {
		tr.Insert([]byte(k), uint64(i))
	}
	var got []string
	tr.Iterate(func(key []byte, _ uint64) error {
		got = append(got, string(key))
		return nil
	})
	want := append([]string(nil), keys...)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("iterated %d keys", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order: got %v want %v", got, want)
		}
	}
}

func TestIterateEarlyStop(t *testing.T) {
	tr := newTree(t, 1<<22)
	for i := 0; i < 100; i++ {
		tr.Insert([]byte(fmt.Sprintf("k%03d", i)), uint64(i))
	}
	n := 0
	sentinel := fmt.Errorf("stop")
	err := tr.Iterate(func([]byte, uint64) error {
		n++
		if n == 10 {
			return sentinel
		}
		return nil
	})
	if err != sentinel || n != 10 {
		t.Fatalf("early stop: n=%d err=%v", n, err)
	}
}

func TestRandomMixAgainstModel(t *testing.T) {
	tr := newTree(t, 1<<24)
	model := map[string]uint64{}
	rng := rand.New(rand.NewSource(42))
	for op := 0; op < 20000; op++ {
		k := fmt.Sprintf("key-%04d", rng.Intn(2000))
		switch rng.Intn(3) {
		case 0, 1:
			v := rng.Uint64()
			tr.Insert([]byte(k), v)
			model[k] = v
		case 2:
			_, ok, derr := tr.Delete([]byte(k))
			if derr != nil {
				t.Fatal(derr)
			}
			_, mok := model[k]
			if ok != mok {
				t.Fatalf("op %d: delete(%q) = %v, model %v", op, k, ok, mok)
			}
			delete(model, k)
		}
	}
	if tr.Len() != uint64(len(model)) {
		t.Fatalf("len = %d, model %d", tr.Len(), len(model))
	}
	for k, v := range model {
		got, ok := tr.Get([]byte(k))
		if !ok || got != v {
			t.Fatalf("get(%q) = %d,%v want %d", k, got, ok, v)
		}
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestSameCodeOnPMEMSpace(t *testing.T) {
	// The DIPPER property: the tree code must run unmodified on a PMEM arena.
	dev := pmem.New(pmem.Config{Size: 1 << 22, TrackPersistence: true})
	al := alloc.Format(&space.MustPMEM(dev, 0, 1<<22).Arena)
	tr, hdr, err := New(al)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if _, _, err := tr.Insert([]byte(fmt.Sprintf("obj%03d", i)), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	al.SetRoot(0, hdr)
	al.FlushAll()
	dev.Crash(pmem.CrashDropDirty, 9)

	al2, err := alloc.Open(&space.MustPMEM(dev, 0, 1<<22).Arena)
	if err != nil {
		t.Fatal(err)
	}
	tr2 := Open(al2, al2.Root(0))
	if tr2.Len() != 300 {
		t.Fatalf("recovered len = %d", tr2.Len())
	}
	for i := 0; i < 300; i++ {
		v, ok := tr2.Get([]byte(fmt.Sprintf("obj%03d", i)))
		if !ok || v != uint64(i) {
			t.Fatalf("recovered get %d = %d,%v", i, v, ok)
		}
	}
	if err := tr2.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestCloneCarriesTree(t *testing.T) {
	src := alloc.Format(space.NewDRAM(1 << 22))
	tr, hdr, err := New(src)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		tr.Insert([]byte(fmt.Sprintf("k%03d", i)), uint64(i*i))
	}
	src.SetRoot(0, hdr)

	dst := space.NewDRAM(1 << 22)
	clone, err := src.CloneTo(dst)
	if err != nil {
		t.Fatal(err)
	}
	ct := Open(clone, clone.Root(0))
	if ct.Len() != 200 {
		t.Fatalf("clone len = %d", ct.Len())
	}
	// Mutating the clone must not affect the source (shadow-update property).
	ct.Insert([]byte("only-in-clone"), 1)
	if _, _, err := ct.Delete([]byte("k000")); err != nil {
		t.Fatal(err)
	}
	if _, ok := tr.Get([]byte("only-in-clone")); ok {
		t.Fatal("clone write leaked into source")
	}
	if _, ok := tr.Get([]byte("k000")); !ok {
		t.Fatal("clone delete leaked into source")
	}
}

// Property: a tree matches a map model under arbitrary insert/delete streams.
func TestQuickModelEquivalence(t *testing.T) {
	f := func(ops []uint16) bool {
		al := alloc.Format(space.NewDRAM(1 << 22))
		tr, _, err := New(al)
		if err != nil {
			return false
		}
		model := map[string]uint64{}
		for i, op := range ops {
			k := fmt.Sprintf("k%02d", op%97)
			if op%3 == 0 {
				if _, _, err := tr.Delete([]byte(k)); err != nil {
					t.Fatal(err)
				}
				delete(model, k)
			} else {
				tr.Insert([]byte(k), uint64(i))
				model[k] = uint64(i)
			}
		}
		if tr.Len() != uint64(len(model)) {
			return false
		}
		for k, v := range model {
			got, ok := tr.Get([]byte(k))
			if !ok || got != v {
				return false
			}
		}
		return tr.Check() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestArenaExhaustionSurfaced(t *testing.T) {
	al := alloc.Format(space.NewDRAM(alloc.HeaderSize + 2048))
	tr, _, err := New(al)
	if err != nil {
		t.Fatal(err)
	}
	var sawErr bool
	for i := 0; i < 200; i++ {
		if _, _, err := tr.Insert([]byte(fmt.Sprintf("key-%04d", i)), 1); err != nil {
			sawErr = true
			break
		}
	}
	if !sawErr {
		t.Fatal("tiny arena never exhausted")
	}
}
